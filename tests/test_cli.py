import json

import numpy as np
import pytest

from rgae.cli import load_embeddings, main, save_embeddings


def run(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "ds"
    code = run(
        "generate", "--out", str(path), "--n", "30", "--communities", "10,10,10",
        "--views", "2", "--seed", "7",
    )
    assert code == 0
    return path


class TestGenerate:
    def test_writes_expected_files(self, dataset):
        names = {p.name for p in dataset.iterdir()}
        assert {"nodes.txt", "view_0.txt", "view_1.txt", "labels.txt", "manifest.json"} <= names

    def test_manifest_has_resolved_config(self, dataset):
        manifest = json.loads((dataset / "manifest.json").read_text())
        assert manifest["command"] == "generate"
        assert manifest["config"]["n"] == 30
        assert manifest["config"]["p_in"] == 0.3
        assert "numpy" in manifest["versions"]


class TestTrainEval(object):
    def test_pipeline_produces_parsable_metrics(self, dataset, tmp_path):
        out = tmp_path / "run"
        code = run(
            "train", "--data", str(dataset), "--out", str(out),
            "--dim", "12", "--layers", "8", "--epochs", "40", "--seed", "0",
        )
        assert code == 0
        assert (out / "embeddings.txt").is_file()
        assert (out / "history.tsv").is_file()
        assert (out / "manifest.json").is_file()

        metrics = tmp_path / "metrics.tsv"
        code = run(
            "eval", "--embeddings", str(out / "embeddings.txt"), "--data", str(dataset),
            "--out", str(metrics), "--seeds", "0,1",
        )
        assert code == 0
        lines = metrics.read_text().splitlines()
        assert lines[0] == "task\ttrain_ratio\tseed\tmetric\tvalue"
        rows = [l.split("\t") for l in lines[1:]]
        ratios = {r[1] for r in rows}
        assert ratios == {"0.1", "0.3", "0.5"}
        metrics_seen = {r[3] for r in rows}
        assert metrics_seen == {"micro_f1", "macro_f1"}
        for r in rows:
            float(r[4])

    def test_history_columns(self, dataset, tmp_path):
        out = tmp_path / "run"
        run("train", "--data", str(dataset), "--out", str(out), "--dim", "9",
            "--layers", "8", "--epochs", "5", "--seed", "1")
        lines = (out / "history.tsv").read_text().splitlines()
        assert lines[0] == "epoch\trec\tsim\tdif\ttotal\tlambda"
        assert len(lines) == 6

    def test_identical_runs_are_byte_identical(self, dataset, tmp_path):
        args = ["--data", str(dataset), "--dim", "12", "--layers", "8",
                "--epochs", "30", "--seed", "3"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run("train", "--out", str(out1), *args) == 0
        assert run("train", "--out", str(out2), *args) == 0
        assert (out1 / "embeddings.txt").read_bytes() == (out2 / "embeddings.txt").read_bytes()

    def test_config_file_with_flag_override(self, dataset, tmp_path):
        cfg = tmp_path / "train.cfg"
        cfg.write_text("dim=12\nlayers=8\nepochs=7\nseed=5\n")
        out = tmp_path / "run"
        code = run("train", "--config", str(cfg), "--data", str(dataset),
                   "--out", str(out), "--epochs", "3")
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["epochs"] == 3
        assert manifest["config"]["dim"] == 12
        lines = (out / "history.tsv").read_text().splitlines()
        assert len(lines) == 4

    def test_target_view_excluded_from_training(self, dataset, tmp_path):
        out = tmp_path / "run"
        code = run("train", "--data", str(dataset), "--out", str(out), "--dim", "12",
                   "--layers", "8", "--epochs", "5", "--target-view", "1")
        assert code == 0
        names, y, n_views, d = load_embeddings(out / "embeddings.txt")
        assert n_views == 1
        assert y.shape[1] == 2 * d

    def test_linkpred_eval(self, tmp_path):
        data = tmp_path / "ds3"
        run("generate", "--out", str(data), "--n", "30", "--communities", "10,10,10",
            "--views", "3", "--seed", "5")
        out = tmp_path / "run"
        run("train", "--data", str(data), "--out", str(out), "--dim", "12", "--layers", "8",
            "--epochs", "40", "--target-view", "2")
        metrics = tmp_path / "lp.tsv"
        code = run("eval", "--embeddings", str(out / "embeddings.txt"), "--data", str(data),
                   "--task", "linkpred", "--target-view", "2", "--seeds", "0,1",
                   "--out", str(metrics))
        assert code == 0
        rows = [l.split("\t") for l in metrics.read_text().splitlines()[1:]]
        assert {r[3] for r in rows} == {"roc_auc", "average_precision"}


class TestAnalyze:
    def test_identical_views_give_full_overlap(self, tmp_path, capsys):
        data = tmp_path / "ds"
        run("generate", "--out", str(data), "--n", "24", "--communities", "12,12",
            "--views", "3", "--unique-frac", "0", "--seed", "2")
        capsys.readouterr()
        assert run("analyze", "--data", str(data)) == 0
        lines = capsys.readouterr().out.splitlines()
        values = [l.split("\t")[1:] for l in lines[1:]]
        assert all(float(x) == 1.0 for row in values for x in row)

    def test_written_table(self, dataset, tmp_path):
        out = tmp_path / "jaccard.tsv"
        assert run("analyze", "--data", str(dataset), "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("view\t")
        assert len(lines) == 3


class TestSweep:
    def test_gamma_sweep_dispersion_ordering(self, tmp_path):
        data = tmp_path / "ds"
        run("generate", "--out", str(data), "--n", "36", "--communities", "12,12,12",
            "--views", "3", "--p-in", "0.35", "--p-out", "0.03", "--unique-frac", "0.6",
            "--seed", "3")
        out = tmp_path / "sweep.tsv"
        code = run(
            "sweep", "--data", str(data), "--out", str(out),
            "--gammas", "0.05,5,500", "--dim", "16", "--layers", "16",
            "--epochs", "60", "--lambda-every", "60", "--seeds", "0",
        )
        assert code == 0
        lines = out.read_text().splitlines()
        header = lines[0].split("\t")
        spread_col = header.index("lambda_spread")
        gamma_col = header.index("gamma")
        rows = [l.split("\t") for l in lines[1:]]
        assert len(rows) == 3
        by_gamma = sorted(rows, key=lambda r: float(r[gamma_col]))
        spreads = [float(r[spread_col]) for r in by_gamma]
        assert spreads[0] > spreads[1] > spreads[2]


class TestEmbeddingsFormat:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        y = rng.normal(size=(5, 6))
        path = tmp_path / "emb.txt"
        save_embeddings(path, [f"n{i}" for i in range(5)], y, 2, 2)
        names, back, n_views, d = load_embeddings(path)
        assert names == [f"n{i}" for i in range(5)]
        assert np.array_equal(back, y)
        assert (n_views, d) == (2, 2)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("5 6\n")
        from rgae.errors import ParseError

        with pytest.raises(ParseError):
            load_embeddings(path)


class TestErrorReporting:
    def test_missing_data_dir(self, tmp_path, capsys):
        code = run("train", "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "o"))
        assert code == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("FileError:")
        assert "\n" not in err

    def test_bad_ablate_value(self, dataset, tmp_path, capsys):
        code = run("train", "--data", str(dataset), "--out", str(tmp_path / "o"),
                   "--ablate", "everything")
        assert code == 1
        assert capsys.readouterr().err.startswith("ConfigError:")

    def test_unknown_config_key(self, dataset, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("unknown_key=1\n")
        code = run("train", "--config", str(cfg), "--data", str(dataset),
                   "--out", str(tmp_path / "o"))
        assert code == 1
        assert capsys.readouterr().err.startswith("ConfigError:")

    @pytest.mark.parametrize("line", ["epochs=abc", "layers=8,x", "verbose=maybe"])
    def test_bad_config_value(self, dataset, tmp_path, capsys, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("# run settings\n\nseed=1\n" + line + "\n")
        code = run("train", "--config", str(cfg), "--data", str(dataset),
                   "--out", str(tmp_path / "o"))
        assert code == 1
        err = capsys.readouterr().err
        key = line.split("=")[0]
        assert err.startswith(f"ConfigError: {cfg}:4: bad value for {key}")

    def test_missing_required_flag(self, capsys):
        code = run("train", "--out", "somewhere")
        assert code == 1
        assert capsys.readouterr().err.startswith("ConfigError:")
