import json
import os
import platform
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rgae
from rgae import __version__
from rgae.cli import (
    ANALYZE_KEYS,
    EVAL_KEYS,
    GENERATE_KEYS,
    MODEL_FIELDS,
    MODEL_KEYS,
    SWEEP_KEYS,
    TRAIN_KEYS,
    _build_parser,
    _parse_bool,
    _parse_floats,
    _parse_ints,
    _read_config,
    _resolve,
    _train_config,
    load_embeddings,
    main,
    save_embeddings,
)
from rgae.errors import ConfigError, LengthMismatch, ParseError, RgaeError
from rgae.graph import load_dataset, read_text
from rgae.synth import SynthConfig
from rgae.trainer import TrainConfig


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


@pytest.fixture(scope="module")
def embeddings(dataset, tmp_path_factory):
    """Random embeddings over the dataset's nodes; enough for the argument checks of eval."""
    names = (dataset / "nodes.txt").read_text().split()
    path = tmp_path_factory.mktemp("emb") / "embeddings.txt"
    save_embeddings(path, names, np.random.default_rng(0).normal(size=(len(names), 6)), 2, 2)
    return path


# The CLI surface as released: every key with its parser and default.
MODEL_SURFACE = {
    "alpha": (float, 0.5),
    "beta": (float, 0.5),
    "gamma": (float, 5.0),
    "dim": (int, 32),
    "layers": (_parse_ints, (32,)),
    "lr": (float, 0.01),
    "epochs": (int, 500),
    "patience": (float, 20),
    "tol": (float, 1e-5),
    "seed": (int, 0),
    "lambda_every": (int, 1),
}
SURFACE = {
    "generate": {
        "out": (str, None),
        "n": (int, 60),
        "communities": (_parse_ints, (20, 20, 20)),
        "views": (int, 2),
        "p_in": (float, 0.3),
        "p_out": (float, 0.02),
        "unique_frac": (float, 0.5),
        "seed": (int, 7),
    },
    "train": {
        "data": (str, None),
        "out": (str, None),
        **MODEL_SURFACE,
        "ablate": (str, "none"),
        "target_view": (int, None),
        "verbose": (_parse_bool, False),
    },
    "sweep": {
        "data": (str, None),
        "out": (str, None),
        "alphas": (_parse_floats, (0.5,)),
        "betas": (_parse_floats, (0.5,)),
        "gammas": (_parse_floats, (5.0,)),
        "dims": (_parse_ints, (32,)),
        **{k: v for k, v in MODEL_SURFACE.items() if k not in ("alpha", "beta", "gamma", "dim")},
        "train_ratio": (float, 0.5),
        "seeds": (_parse_ints, (0, 1, 2)),
    },
}
KEYS = {"generate": GENERATE_KEYS, "train": TRAIN_KEYS, "sweep": SWEEP_KEYS}
SAMPLE = {str: "x", int: "3", float: "0.25", _parse_ints: "4,5", _parse_floats: "0.1,2"}


def resolve_defaults(command):
    return _resolve(_build_parser().parse_args([command]), KEYS[command])


def readme_commands():
    """Every `rgae ...` command in README.md's code blocks, continuation lines joined, as argv lists."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = []
    for block in re.findall(r"^```[^\n]*\n(.*?)^```", readme, flags=re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("rgae "):
                commands.append(shlex.split(line, comments=True)[1:])
    return commands


README_COMMANDS = readme_commands()
ALL_KEYS = {**KEYS, "eval": EVAL_KEYS, "analyze": ANALYZE_KEYS}


class TestReadmeCommands:
    def test_readme_shows_every_command(self):
        assert {argv[0] for argv in README_COMMANDS} == set(ALL_KEYS)

    @pytest.mark.parametrize("argv", README_COMMANDS, ids=[f"{i}-{argv[0]}" for i, argv in enumerate(README_COMMANDS)])
    def test_resolves(self, argv):
        # an unknown or misspelled flag exits the parser, a bad value fails to parse; nothing is run
        args = _build_parser().parse_args(argv)
        _resolve(args, ALL_KEYS[args.command])


class TestSurface:
    @pytest.mark.parametrize("command", sorted(SURFACE))
    def test_keys_parsers_and_defaults(self, command):
        assert KEYS[command] == SURFACE[command]
        assert resolve_defaults(command) == {k: d for k, (_, d) in SURFACE[command].items()}

    @pytest.mark.parametrize(
        "command,key", [(c, k) for c in sorted(SURFACE) for k in SURFACE[c]]
    )
    def test_flag_parses(self, command, key):
        conv, _ = SURFACE[command][key]
        flag = "--" + key.replace("_", "-")
        if conv is _parse_bool:
            argv, expected = [flag], True
        else:
            argv, expected = [flag, SAMPLE[conv]], conv(SAMPLE[conv])
        args = _build_parser().parse_args([command, *argv])
        assert getattr(args, key) == expected

    def test_train_defaults_are_train_config(self):
        assert _train_config(resolve_defaults("train")) == TrainConfig()

    def test_generate_defaults_are_synth_config_but_three(self):
        resolved = resolve_defaults("generate")
        cli_own = {"n": 60, "communities": (20, 20, 20), "seed": 7}
        for f in fields(SynthConfig):
            assert resolved[f.name] == cli_own.get(f.name, f.default)

    @pytest.mark.parametrize(
        "command,flag", [("generate", "--overlap"), *(("sweep", f) for f in ("--alpha", "--beta", "--gamma", "--dim"))]
    )
    def test_removed_flag_is_unknown(self, command, flag, capsys):
        # nor is it taken as an abbreviation of --alphas and the other grids
        with pytest.raises(SystemExit):
            _build_parser().parse_args([command, flag, "0.3"])
        assert f"unrecognized arguments: {flag} 0.3" in capsys.readouterr().err

    def test_every_model_field_reachable(self):
        reached = {MODEL_FIELDS.get(key, key) for key in MODEL_KEYS}
        expected = {f.name for f in fields(TrainConfig)} - {"use_sim", "use_dif", "verbose"}
        assert reached == expected


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

    def test_fewer_views_over_an_earlier_dataset_are_refused(self, tmp_path, capsys):
        # view_2.txt would otherwise be loaded as a third view while manifest.json lists two
        out = tmp_path / "ds"
        assert run("generate", "--out", str(out), "--views", "3") == 0
        # a dataset of the same shape replaces every file
        assert run("generate", "--out", str(out), "--views", "3", "--seed", "8") == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        assert run("generate", "--out", str(out), "--views", "2") == 1
        assert capsys.readouterr().err.startswith(f"FileError: {out}: view_2.txt would be read with this dataset")
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_manifest_bytes(self, tmp_path, monkeypatch):
        # pins key order, the 2-space indent, tuples as lists, null and the trailing newline
        monkeypatch.chdir(tmp_path)
        assert run("generate", "--out", "ds") == 0
        expected = MANIFEST_GOLDEN
        for key, value in (("PYTHON", platform.python_version()), ("NUMPY", np.__version__), ("RGAE", __version__)):
            expected = expected.replace(key, value)
        assert (tmp_path / "ds" / "manifest.json").read_text() == expected


MANIFEST_GOLDEN = """{
  "command": "generate",
  "config": {
    "communities": [
      20,
      20,
      20
    ],
    "n": 60,
    "out": "ds",
    "p_in": 0.3,
    "p_out": 0.02,
    "seed": 7,
    "unique_frac": 0.5,
    "views": 2
  },
  "inputs": {},
  "outputs": [
    "labels.txt",
    "nodes.txt",
    "view_0.txt",
    "view_1.txt"
  ],
  "versions": {
    "numpy": "NUMPY",
    "python": "PYTHON",
    "rgae": "RGAE"
  }
}
"""


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

    @pytest.mark.parametrize(
        "flags, epochs, reason",
        [
            (["--epochs", "5"], 5, "max epochs"),
            # tol 1e9 counts every epoch after the first toward the streak
            (["--epochs", "50", "--patience", "2", "--tol", "1e9"], 3, "a patience streak of 2 epochs"),
            (["--epochs", "50", "--patience", "1.5", "--tol", "1e9"], 3, "a patience streak of 2 epochs"),
            (["--epochs", "3", "--patience", "2", "--tol", "1e9"], 3, "max epochs"),
        ],
    )
    def test_summary_names_the_stop_reason(self, dataset, tmp_path, capsys, flags, epochs, reason):
        out = tmp_path / "run"
        assert run("train", "--data", str(dataset), "--out", str(out), "--dim", "9", "--layers", "8", *flags) == 0
        summary = capsys.readouterr().out.splitlines()[-1]
        assert summary.startswith(f"trained {epochs} epochs (final loss ")
        assert summary.endswith(f", stopped by {reason}); embeddings in {out}")
        assert len((out / "history.tsv").read_text().splitlines()) == epochs + 1

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

    def test_manifest_next_to_table(self, dataset, tmp_path):
        out = tmp_path / "jaccard.tsv"
        assert run("analyze", "--data", str(dataset), "--out", str(out)) == 0
        manifest = json.loads((tmp_path / "jaccard.manifest.json").read_text())
        assert manifest["command"] == "analyze"
        assert manifest["outputs"] == ["jaccard.tsv"]
        assert str(dataset / "view_0.txt") in manifest["inputs"]

    def test_creates_missing_parent_directory(self, dataset, tmp_path):
        out = tmp_path / "new" / "deeper" / "jaccard.tsv"
        assert run("analyze", "--data", str(dataset), "--out", str(out)) == 0
        assert len(out.read_text().splitlines()) == 3
        assert (out.parent / "jaccard.manifest.json").is_file()


class TestSweep:
    def test_gamma_sweep_dispersion_ordering(self, tmp_path):
        data = tmp_path / "ds"
        run("generate", "--out", str(data), "--n", "36", "--communities", "12,12,12",
            "--views", "3", "--p-in", "0.35", "--p-out", "0.03", "--unique-frac", "0.6",
            "--seed", "3")
        out = tmp_path / "sweep.tsv"
        code = run(
            "sweep", "--data", str(data), "--out", str(out),
            "--gammas", "0.05,5,500", "--dims", "16", "--layers", "16",
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


class TestSweepKeys:
    def test_model_key_in_config_file_is_unknown(self, dataset, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("alpha=0.3\n")
        out = tmp_path / "sweep.tsv"
        assert run("sweep", "--config", str(cfg), "--data", str(dataset), "--out", str(out)) == 1
        assert capsys.readouterr().err == "ConfigError: unknown config keys: alpha\n"
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["--alphas", "--betas", "--gammas", "--dims"])
    def test_empty_grid_rejected(self, dataset, tmp_path, capsys, grid):
        out = tmp_path / "sweep.tsv"
        assert run("sweep", "--data", str(dataset), "--out", str(out), grid, "") == 1
        assert capsys.readouterr().err == f"ConfigError: {grid} needs at least one value\n"
        assert not out.exists()

    def test_manifest_records_the_grids_that_ran(self, dataset, tmp_path):
        out = tmp_path / "sweep.tsv"
        argv = ["--data", str(dataset), "--out", str(out), "--layers", "8", "--epochs", "2", "--seeds", "0"]
        assert run("sweep", *argv, "--dims", "9") == 0
        config = json.loads((tmp_path / "sweep.manifest.json").read_text())["config"]
        assert {k: config[k] for k in ("alphas", "betas", "gammas", "dims")} == {
            "alphas": [0.5], "betas": [0.5], "gammas": [5.0], "dims": [9]
        }
        assert not {"alpha", "beta", "gamma", "dim"} & set(config)
        rows = [line.split("\t") for line in out.read_text().splitlines()]
        assert rows[1][:4] == ["0.5", "0.5", "5", "9"]


class TestEvalKeys:
    def test_target_view_rejected_for_classification(self, dataset, embeddings, tmp_path, capsys):
        out = tmp_path / "metrics.tsv"
        code = run("eval", "--embeddings", str(embeddings), "--data", str(dataset), "--out", str(out),
                   "--task", "classification", "--target-view", "1")
        assert code == 1
        assert capsys.readouterr().err == "ConfigError: --target-view applies to --task linkpred only\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "task, message",
        [
            (["--task", "bogus"], "--task must be classification or linkpred, got 'bogus'"),
            (["--target-view", "1"], "--target-view applies to --task linkpred only"),
        ],
        ids=["unknown-task", "classification-target-view"],
    )
    def test_options_checked_before_any_file_is_read(self, tmp_path, capsys, task, message):
        missing = tmp_path / "missing"
        code = run("eval", "--embeddings", str(missing / "emb.txt"), "--data", str(missing), *task)
        assert code == 1
        assert capsys.readouterr().err == f"ConfigError: {message}\n"


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

    def test_bytes_match_per_value_formatting(self, tmp_path):
        y = np.array(
            [
                [-0.0, 0.0, 5e-324, -2.5e-310, 1e308, -1.7976931348623157e308],
                [0.1, 1.0 / 3.0, -np.pi, 1e16, 123456789.0, 2.0**-1074 * 3],
            ]
        )
        names = ["a", "node_b"]
        path = tmp_path / "emb.txt"
        save_embeddings(path, names, y, 2, 2)
        lines = ["2 6 2 2"] + [name + " " + " ".join(f"{v:.17g}" for v in row) for name, row in zip(names, y)]
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
        assert "-0 0 4.9406564584124654e-324" in path.read_text()

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("5 6\n")
        with pytest.raises(ParseError):
            load_embeddings(path)

    def test_repeated_name_names_file_and_both_lines(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("3 2 1 1\na 0 1\nb 1 0\na 2 2\n")
        with pytest.raises(ParseError) as info:
            load_embeddings(path)
        assert str(info.value).startswith(f"{path}:4: node 'a' is already on line 2")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_names_file_and_line(self, tmp_path, value):
        path = tmp_path / "emb.txt"
        path.write_text(f"2 2 1 1\na 0 1\nb 1 {value}\n")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:3: value is not finite"):
            load_embeddings(path)

    def test_non_utf8_byte_names_file_and_line(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_bytes(b"2 1 1 1\na 0\nb\xff 1\n")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:3: not UTF-8"):
            load_embeddings(path)

    def test_huge_width_sizes_no_array_from_the_header(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("1 100000000000 1 1\na 1\n")
        tracemalloc.start()
        try:
            with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:2: expected a name and 100000000000 values"):
                load_embeddings(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("name", ["", "b c", "b\tc", "b ", "#b", "\ufeffb"])
    def test_unreadable_name_rejected_before_writing(self, tmp_path, name):
        path = tmp_path / "emb.txt"
        with pytest.raises(ConfigError, match="node name"):
            save_embeddings(path, ["a", name], np.zeros((2, 2)), 1, 1)
        assert not path.exists()

    @pytest.mark.parametrize(
        "names, rows, error, message",
        [
            # load_embeddings would read a 2-node file and drop the third row
            (["a", "b"], np.zeros((3, 2)), LengthMismatch, "3 embedding rows for 2 items"),
            # load_embeddings would fail with "expected 4 node lines, found 3"
            (["a", "b", "c", "d"], np.zeros((3, 2)), LengthMismatch, "3 embedding rows for 4 items"),
            (["a", "b", "c"], np.array([[0, 1], [np.nan, 0], [1, 1]]), ConfigError, "embedding row 1 is not finite"),
            (["a", "b", "a"], np.zeros((3, 2)), ConfigError, "node name 'a' is repeated"),
        ],
        ids=["fewer-names", "more-names", "nan-row", "repeated-name"],
    )
    def test_unreadable_file_rejected_before_writing(self, tmp_path, names, rows, error, message):
        path = tmp_path / "emb.txt"
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            save_embeddings(path, names, rows, 1, 1)
        assert not path.exists()

    @pytest.mark.parametrize("field", ["n_views", "block_dim"])
    @pytest.mark.parametrize("value", [-1, 1.5, True], ids=["negative", "float", "bool"])
    def test_header_the_reader_rejects_is_not_written(self, tmp_path, field, value):
        # each would write a header such as "2 2 -1 2" that load_embeddings refuses
        path = tmp_path / "emb.txt"
        sizes = {"n_views": 2, "block_dim": 2, field: value}
        with pytest.raises(ConfigError, match=f"^{field} must be an integer of at least 0, got {value!r}$"):
            save_embeddings(path, ["a", "b"], np.zeros((2, 2)), sizes["n_views"], sizes["block_dim"])
        assert not path.exists()


# ---------------------------------------------------------------------------
# The embeddings reader as it was before it parsed whole files, one line at a
# time: kept as the reference the whole-file reader must match, error for error
# ---------------------------------------------------------------------------

def reference_load_embeddings(path):
    path = Path(path)
    lines = read_text(path).splitlines()
    if not lines:
        raise ParseError(f"{path}:1: empty embeddings file")
    header = lines[0].split()
    if len(header) != 4:
        raise ParseError(f"{path}:1: expected 'n d_total n_views d'")
    try:
        n, d_total, n_views, d = (int(x) for x in header)
    except ValueError as exc:
        raise ParseError(f"{path}:1: bad header {lines[0]!r}") from exc
    if min(n, d_total, n_views, d) < 0:
        raise ParseError(f"{path}:1: negative value in header {lines[0]!r}")
    if len(lines) != n + 1:
        raise ParseError(f"{path}: expected {n} node lines, found {len(lines) - 1}")
    first_line = {}
    rows = []
    for i, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if len(parts) != d_total + 1:
            raise ParseError(f"{path}:{i}: expected a name and {d_total} values")
        if parts[0] in first_line:
            raise ParseError(f"{path}:{i}: node {parts[0]!r} is already on line {first_line[parts[0]]}")
        first_line[parts[0]] = i
        try:
            rows.append([float(x) for x in parts[1:]])
        except ValueError as exc:
            raise ParseError(f"{path}:{i}: bad value") from exc
        if not np.all(np.isfinite(rows[-1])):
            raise ParseError(f"{path}:{i}: value is not finite")
    return list(first_line), np.array(rows, dtype=np.float64).reshape(n, d_total), n_views, d


def outcome(read, path):
    """What read returns, arrays as bytes, or the type and message of what it raises."""
    try:
        result = read(path)
    except RgaeError as exc:
        return type(exc), str(exc)
    return [(a.shape, a.tobytes()) if isinstance(a, np.ndarray) else a for a in result]


EMBEDDING_NAMES = ["a", "b", "n7", "#c", "d,"]
good_value = st.one_of(
    st.sampled_from(["0", "-0", "1e-320", "+2.5", "1_0", "-1.5E10", "3."]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)
bad_value = st.sampled_from(["x", "1..2", "0x1", "1,5", "--1"])
non_finite_value = st.sampled_from(["nan", "-nan", "inf", "-inf", "1e999", "-Infinity"])


@st.composite
def embeddings_texts(draw):
    """An embeddings file with up to three faults: a wrong field count, a repeated name, a bad or non-finite value.

    A value that does not parse outranks a non-finite one earlier on its line, as every value is parsed first.
    """
    d = draw(st.integers(0, 3))
    names = draw(st.permutations(EMBEDDING_NAMES))[: draw(st.integers(0, len(EMBEDDING_NAMES)))]
    rows = [[name, *draw(st.lists(good_value, min_size=d, max_size=d))] for name in names]
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        i = draw(st.integers(0, len(rows) - 1))
        row = rows[i]
        fault = draw(st.sampled_from(["count", "repeat", "bad", "non-finite", "non-finite-then-bad"]))
        if fault == "non-finite-then-bad" and len(row) > 2:
            row[1:] = [draw(non_finite_value), *row[2:-1], draw(bad_value)]
        elif fault == "count":
            row.pop() if row and draw(st.booleans()) else row.append("1")
        elif fault == "repeat" and row and len(names) > 1:
            row[0] = draw(st.sampled_from(names[:i] + names[i + 1 :]))
        elif len(row) > 1:
            row[draw(st.integers(1, len(row) - 1))] = draw(bad_value if fault == "bad" else non_finite_value)
    sep = draw(st.sampled_from([" ", "\t", " \t "]))
    return f"{len(rows)} {d} 2 1\n" + "".join(sep.join(row) + "\n" for row in rows)


class TestEmbeddingsReaderEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(embeddings_texts())
    def test_reader_matches_the_line_loop(self, text):
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "emb.txt"
            path.write_text(text, encoding="utf-8")
            assert outcome(load_embeddings, path) == outcome(reference_load_embeddings, path)


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

    def test_repeated_config_key_names_both_lines(self, dataset, tmp_path, capsys):
        cfg = tmp_path / "twice.cfg"
        cfg.write_text("epochs=3\n# again\nepochs=5\n")
        code = run("train", "--config", str(cfg), "--data", str(dataset), "--out", str(tmp_path / "o"))
        assert code == 1
        assert capsys.readouterr().err.startswith(f"ParseError: {cfg}:3: key 'epochs' is already on line 1")
        assert not (tmp_path / "o").exists()

    def test_non_utf8_view_file_names_file_and_line(self, dataset, tmp_path, capsys):
        data = tmp_path / "ds"
        shutil.copytree(dataset, data)
        view = data / "view_0.txt"
        lines = view.read_bytes().count(b"\n")
        with view.open("ab") as f:
            f.write(b"\xff")
        assert run("analyze", "--data", str(data)) == 1
        assert capsys.readouterr().err.startswith(f"ParseError: {view}:{lines + 1}: not UTF-8")

    def test_non_utf8_config_names_file_and_line(self, dataset, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"epochs=3\xff\n")
        code = run("train", "--config", str(cfg), "--data", str(dataset), "--out", str(tmp_path / "o"))
        assert code == 1
        assert capsys.readouterr().err.startswith(f"ParseError: {cfg}:1: not UTF-8")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "--seed=-1"],
            ["train", "--seed=-1", "--epochs", "1"],
            ["eval", "--seeds=-1"],
            ["eval", "--seeds=0,-1", "--task", "linkpred", "--target-view", "1"],
            ["sweep", "--seeds=-1"],
        ],
        ids=["generate", "train", "eval", "eval-linkpred", "sweep"],
    )
    def test_negative_seed(self, dataset, embeddings, tmp_path, capsys, argv):
        paths = {
            "generate": ["--out", str(tmp_path / "o")],
            "train": ["--data", str(dataset), "--out", str(tmp_path / "o")],
            "eval": ["--embeddings", str(embeddings), "--data", str(dataset), "--out", str(tmp_path / "o")],
            "sweep": ["--data", str(dataset), "--out", str(tmp_path / "o")],
        }
        code = run(*argv, *paths[argv[0]])
        assert code == 1
        assert capsys.readouterr().err.startswith("ConfigError:")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("task", [[], ["--task", "linkpred", "--target-view", "1"]])
    def test_eval_empty_seed_list(self, dataset, embeddings, tmp_path, capsys, task):
        out = tmp_path / "metrics.tsv"
        code = run("eval", "--embeddings", str(embeddings), "--data", str(dataset),
                   "--seeds", "", "--out", str(out), *task)
        assert code == 1
        assert capsys.readouterr().err.startswith("ConfigError:")
        assert not out.exists()

    def test_eval_empty_seed_list_from_config(self, dataset, embeddings, tmp_path, capsys):
        cfg = tmp_path / "eval.cfg"
        cfg.write_text("seeds=\n")
        code = run("eval", "--config", str(cfg), "--embeddings", str(embeddings),
                   "--data", str(dataset))
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("ConfigError:")
        assert captured.out == ""

    def test_sweep_empty_seed_list(self, dataset, tmp_path, capsys):
        out = tmp_path / "sweep.tsv"
        code = run("sweep", "--data", str(dataset), "--out", str(out), "--seeds", "",
                   "--dims", "6", "--layers", "4", "--epochs", "2")
        assert code == 1
        assert capsys.readouterr().err.startswith("ConfigError:")
        assert not out.exists()

    def test_sweep_empty_seed_list_trains_nothing(self, dataset, tmp_path, capsys, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("sweep trained before checking its seed list")

        monkeypatch.setattr("rgae.cli.train", no_training)
        code = run("sweep", "--data", str(dataset), "--out", str(tmp_path / "sweep.tsv"),
                   "--seeds", "")
        assert code == 1
        assert capsys.readouterr().err.startswith("ConfigError:")

    def test_non_finite_tol(self, dataset, tmp_path, capsys):
        code = run("train", "--data", str(dataset), "--out", str(tmp_path / "o"), "--tol", "nan")
        assert code == 1
        assert capsys.readouterr().err.startswith("ConfigError: tol must be finite")

    def test_missing_required_flag(self, capsys):
        code = run("train", "--out", "somewhere")
        assert code == 1
        assert capsys.readouterr().err.startswith("ConfigError:")

    @pytest.mark.parametrize(
        "flag, argv",
        [
            ("--out", ["generate"]),
            ("--data", ["train", "--out", "OUT"]),
            ("--out", ["train", "--data", "DATA"]),
            ("--embeddings", ["eval", "--data", "DATA", "--out", "OUT"]),
            ("--data", ["eval", "--embeddings", "EMB", "--out", "OUT"]),
            ("--target-view",
             ["eval", "--embeddings", "EMB", "--data", "DATA", "--task", "linkpred", "--out", "OUT"]),
            ("--data", ["analyze", "--out", "OUT"]),
            ("--data", ["sweep", "--out", "OUT"]),
            ("--out", ["sweep", "--data", "DATA"]),
        ],
        ids=["generate-out", "train-data", "train-out", "eval-embeddings", "eval-data", "eval-target-view",
             "analyze-data", "sweep-data", "sweep-out"],
    )
    def test_required_flag_named(self, dataset, embeddings, tmp_path, capsys, monkeypatch, flag, argv):
        monkeypatch.chdir(tmp_path)
        paths = {"DATA": str(dataset), "EMB": str(embeddings), "OUT": str(tmp_path / "out")}
        code = run(*(paths.get(a, a) for a in argv))
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == f"ConfigError: {flag} is required\n"
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []


def failing(capsys, *argv):
    """stderr of a command that must exit 1."""
    assert run(*argv) == 1
    return capsys.readouterr().err


class TestByteOrderMark:
    """Every reader skips a leading UTF-8 BOM, as some editors write one."""

    @staticmethod
    def with_bom(src, dst):
        dst.write_bytes(b"\xef\xbb\xbf" + src.read_bytes())
        return dst

    @pytest.mark.parametrize("name", ["nodes.txt", "view_0.txt", "view_1.txt", "labels.txt"])
    def test_dataset_file(self, dataset, tmp_path, name):
        data = tmp_path / "ds"
        shutil.copytree(dataset, data)
        self.with_bom(dataset / name, data / name)
        got, want = load_dataset(data), load_dataset(dataset)
        assert (got.node_names, got.labels) == (want.node_names, want.labels)
        for a, b in zip(got.views, want.views, strict=True):
            for m, w in ((a, b), (a.normalized(), b.normalized())):
                assert [x.tobytes() for x in (m.row_offsets, m.col_indices, m.values)] == [
                    x.tobytes() for x in (w.row_offsets, w.col_indices, w.values)
                ]

    def test_embeddings_file(self, embeddings, tmp_path):
        got = load_embeddings(self.with_bom(embeddings, tmp_path / "emb.txt"))
        want = load_embeddings(embeddings)
        assert got[0] == want[0] and got[1].tobytes() == want[1].tobytes() and got[2:] == want[2:]

    def test_config_file(self, tmp_path):
        plain = tmp_path / "plain.cfg"
        plain.write_text("epochs = 3\n# note\nseed=1\n")
        assert _read_config(self.with_bom(plain, tmp_path / "bom.cfg")) == _read_config(plain)


class TestTypedInputErrors:
    """Every malformed input ends the command with exit 1 and one typed line naming the file and line."""

    @pytest.mark.parametrize(
        "text, where",
        [
            ("", ":1: empty embeddings file"),
            ("30 six 2 2\n", ":1: bad header '30 six 2 2'"),
            ("30 6\n", ":1: expected 'n d_total n_views d'"),
            ("3 2 1 1\na 0 1\n", ": expected 3 node lines, found 1"),
            ("2 2 1 1\na 0 1\nb 1 x\n", ":3: bad value"),
            ("2 -1 1 1\na\nb\n", ":1: negative value in header '2 -1 1 1'"),
            ("1 100000000000 1 1\na 1\n", ":2: expected a name and 100000000000 values"),
        ],
        ids=["empty", "bad-header", "header-arity", "node-count", "bad-value", "negative", "huge-width"],
    )
    def test_bad_embeddings_file(self, dataset, tmp_path, capsys, text, where):
        path = tmp_path / "emb.txt"
        path.write_text(text)
        err = failing(capsys, "eval", "--embeddings", str(path), "--data", str(dataset))
        assert err == f"ParseError: {path}{where}\n"

    def test_embeddings_of_other_nodes(self, dataset, tmp_path, capsys):
        path = tmp_path / "emb.txt"
        save_embeddings(path, [f"x{i}" for i in range(30)], np.ones((30, 2)), 1, 1)
        err = failing(capsys, "eval", "--embeddings", str(path), "--data", str(dataset))
        assert err == f"ConfigError: {path}: node names do not match the dataset\n"

    def test_config_line_without_equals(self, dataset, tmp_path, capsys):
        cfg = tmp_path / "train.cfg"
        cfg.write_text("# settings\nepochs=3\nverbose\n")
        err = failing(capsys, "train", "--config", str(cfg), "--data", str(dataset), "--out", str(tmp_path / "o"))
        assert err == f"ParseError: {cfg}:3: expected key=value\n"

    @pytest.mark.parametrize("value, printed", [("yes", 2), ("no", 0)])
    def test_verbose_from_config_file(self, dataset, tmp_path, capsys, value, printed):
        cfg = tmp_path / "train.cfg"
        cfg.write_text(f"verbose={value}\nepochs=2\ndim=6\nlayers=4\n")
        assert run("train", "--config", str(cfg), "--data", str(dataset), "--out", str(tmp_path / "o")) == 0
        epoch_lines = [l for l in capsys.readouterr().out.splitlines() if l[:1].isdigit()]
        assert len(epoch_lines) == printed
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["config"]["verbose"] is (value == "yes")

    @pytest.mark.parametrize(
        "line, message",
        [("0 1 extra", "expected 'node label'"), ("nobody 1", "unknown node 'nobody'")],
        ids=["three-fields", "unknown-node"],
    )
    def test_bad_label_line(self, dataset, tmp_path, capsys, line, message):
        data = tmp_path / "ds"
        shutil.copytree(dataset, data)
        labels = data / "labels.txt"
        lineno = len(labels.read_text().splitlines()) + 1
        with labels.open("a") as f:
            f.write(line + "\n")
        err = failing(capsys, "analyze", "--data", str(data))
        assert err == f"ParseError: {labels}:{lineno}: {message}\n"

    def test_zero_edge_weight(self, dataset, tmp_path, capsys):
        data = tmp_path / "ds"
        shutil.copytree(dataset, data)
        view = data / "view_1.txt"
        view.write_text("# weighted\n0 1 2.5\n1 2 0\n")
        err = failing(capsys, "analyze", "--data", str(data))
        assert err == f"ParseError: {view}:3: weight must be finite and positive\n"

    def test_unknown_task(self, dataset, embeddings, capsys):
        err = failing(capsys, "eval", "--embeddings", str(embeddings), "--data", str(dataset), "--task", "bogus")
        assert err == "ConfigError: --task must be classification or linkpred, got 'bogus'\n"


class TestUnlabeledData:
    """Classification needs labels: no labels.txt, or one that labels no node, is a ConfigError."""

    @pytest.fixture(params=["missing", "comment-only"])
    def unlabeled(self, request, dataset, tmp_path):
        data = tmp_path / "ds"
        shutil.copytree(dataset, data)
        if request.param == "missing":
            (data / "labels.txt").unlink()
            return data, f"{data}: dataset has no labels.txt"
        (data / "labels.txt").write_text("# no labels yet\n")
        return data, "no item has a label"

    def test_eval(self, unlabeled, embeddings, tmp_path, capsys):
        data, message = unlabeled
        out = tmp_path / "metrics.tsv"
        err = failing(capsys, "eval", "--embeddings", str(embeddings), "--data", str(data), "--out", str(out))
        assert err == f"ConfigError: {message}\n"
        assert not out.exists()

    def test_sweep_trains_nothing(self, unlabeled, tmp_path, capsys, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("sweep trained on a dataset without labels")

        monkeypatch.setattr("rgae.cli.train", no_training)
        data, _ = unlabeled
        out = tmp_path / "sweep.tsv"
        err = failing(capsys, "sweep", "--data", str(data), "--out", str(out))
        assert err.startswith(f"ConfigError: {data}: sweeps evaluate classification and need")
        assert not out.exists()


class TestFreshProcessDeterminism:
    """generate, train, eval and analyze in new interpreters write the same bytes under different hash seeds."""

    COMMANDS = [
        ["generate", "--out", "data", "--n", "40", "--communities", "20,20", "--views", "3", "--seed", "4"],
        ["train", "--data", "data", "--out", "run", "--dim", "12", "--layers", "8", "--epochs", "30",
         "--target-view", "2"],
        ["eval", "--embeddings", "run/embeddings.txt", "--data", "data", "--out", "class.tsv", "--seeds", "0,1"],
        ["eval", "--embeddings", "run/embeddings.txt", "--data", "data", "--out", "link.tsv", "--seeds", "0,1",
         "--task", "linkpred", "--target-view", "2"],
        ["analyze", "--data", "data", "--out", "analyze.tsv"],
    ]

    def outputs(self, directory, hash_seed, blas_threads=1):
        env = {
            **os.environ,
            "PYTHONPATH": str(Path(rgae.__file__).parents[1]),
            "PYTHONHASHSEED": str(hash_seed),
            "OPENBLAS_NUM_THREADS": str(blas_threads),
            "OMP_NUM_THREADS": str(blas_threads),
            "MKL_NUM_THREADS": str(blas_threads),
        }
        directory.mkdir()
        for argv in self.COMMANDS:
            subprocess.run([sys.executable, "-m", "rgae.cli", *argv], cwd=directory, env=env, check=True,
                           capture_output=True)
        return {str(p.relative_to(directory)): p.read_bytes() for p in sorted(directory.rglob("*")) if p.is_file()}

    def test_hash_seed_does_not_reach_any_output(self, tmp_path):
        first = self.outputs(tmp_path / "a", 1)
        second = self.outputs(tmp_path / "b", 2)
        assert {"run/embeddings.txt", "run/history.tsv", "class.tsv", "link.tsv", "data/labels.txt",
                "analyze.tsv"} <= set(first)
        assert first == second

    def test_two_blas_threads_keep_the_outputs_that_call_no_blas(self, tmp_path):
        # the contract stops at one BLAS thread: training and scoring bytes may move, so only their finiteness is checked
        one = self.outputs(tmp_path / "a", 1)
        two = self.outputs(tmp_path / "b", 1, blas_threads=2)
        blas_free = sorted(name for name in one if name.startswith(("data/", "analyze.")))
        assert {"data/labels.txt", "data/view_2.txt", "analyze.tsv", "analyze.manifest.json"} <= set(blas_free)
        assert [two[name] for name in blas_free] == [one[name] for name in blas_free]
        _, values, _, _ = load_embeddings(tmp_path / "b" / "run" / "embeddings.txt")
        assert np.isfinite(values).all()
        # the numeric columns: history's from rec on (lambda joins its weights with commas), the reports' value
        for table, first_numeric in (("run/history.tsv", 1), ("class.tsv", 4), ("link.tsv", 4)):
            fields = [f for line in two[table].decode().splitlines()[1:] for f in line.split("\t")[first_numeric:]]
            assert fields and np.isfinite([float(x) for f in fields for x in f.split(",")]).all()
