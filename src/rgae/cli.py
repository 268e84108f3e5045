"""Command-line pipeline: generate, train, eval, analyze, sweep."""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import sys
from dataclasses import asdict, dataclass
from itertools import product
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, FileError, ParseError, RgaeError
from .evaluate import classification_report, link_prediction_report
from .graph import (
    MultiViewNetwork,
    jaccard_consistency,
    load_dataset,
    save_dataset,
    text_lines,
    write_text_atomic,
)
from .synth import SynthConfig, generate
from .trainer import TrainConfig, train


@dataclass
class RunManifest:
    """Resolved description of one run, written next to its outputs.

    Contains no timestamps: re-running a command with the same manifest
    inputs reproduces the outputs byte for byte.
    """

    command: str
    config: dict
    inputs: dict
    outputs: list
    versions: dict

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"


def _versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__, "rgae": __version__}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _digest_inputs(paths) -> dict:
    digests = {}
    for p in paths:
        p = Path(p)
        if p.is_dir():
            for f in sorted(q for q in p.iterdir() if q.is_file() and q.suffix != ".tmp"):
                digests[str(f)] = _sha256(f)
        elif p.is_file():
            digests[str(p)] = _sha256(p)
    return digests


def _write_manifest(path: Path, args, cfg: dict, inputs: list, outputs: list) -> None:
    """Record the resolved config, input digests (the --config file included), outputs and versions."""
    manifest = RunManifest(
        command=args.command,
        config={k: _jsonable(v) for k, v in cfg.items()},
        inputs=_digest_inputs(inputs + ([args.config] if args.config else [])),
        outputs=outputs,
        versions=_versions(),
    )
    write_text_atomic(path, manifest.to_json())


def save_embeddings(path, names, embeddings, n_views, block_dim) -> None:
    """Text format: header "n d_total n_views d", then one node per line at full float precision."""
    y = np.asarray(embeddings, dtype=np.float64)
    lines = [f"{len(names)} {y.shape[1]} {n_views} {block_dim}"]
    for name, row in zip(names, y):
        lines.append(name + " " + " ".join(f"{x:.17g}" for x in row))
    write_text_atomic(path, "\n".join(lines) + "\n")


def load_embeddings(path):
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise FileError(f"{path}: {exc}") from exc
    if not lines:
        raise ParseError(f"{path}:1: empty embeddings file")
    header = lines[0].split()
    if len(header) != 4:
        raise ParseError(f"{path}:1: expected 'n d_total n_views d'")
    try:
        n, d_total, n_views, d = (int(x) for x in header)
    except ValueError as exc:
        raise ParseError(f"{path}:1: bad header {lines[0]!r}") from exc
    if len(lines) != n + 1:
        raise ParseError(f"{path}: expected {n} node lines, found {len(lines) - 1}")
    names = []
    rows = np.empty((n, d_total))
    for i, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if len(parts) != d_total + 1:
            raise ParseError(f"{path}:{i}: expected a name and {d_total} values")
        names.append(parts[0])
        try:
            rows[i - 2] = [float(x) for x in parts[1:]]
        except ValueError as exc:
            raise ParseError(f"{path}:{i}: bad value") from exc
    return names, rows, n_views, d


def _parse_bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {s!r}")


def _parse_ints(s: str):
    return tuple(int(x) for x in str(s).split(",") if x.strip())


def _parse_floats(s: str):
    return tuple(float(x) for x in str(s).split(",") if x.strip())


def _read_config(path) -> dict:
    """Flat key=value file; '#' starts a comment line. Maps each key to (lineno, value)."""
    out = {}
    for lineno, line in text_lines(path):
        if "=" not in line:
            raise ParseError(f"{path}:{lineno}: expected key=value")
        key, value = line.split("=", 1)
        out[key.strip()] = (lineno, value.strip())
    return out


def _resolve(args, keys: dict) -> dict:
    """Merge per-key values: explicit CLI flag, then config file entry, then default."""
    file_cfg = _read_config(args.config) if args.config else {}
    unknown = set(file_cfg) - set(keys)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    resolved = {}
    for key, (conv, default) in keys.items():
        flag = getattr(args, key)
        if flag is not None:
            resolved[key] = flag
        elif key in file_cfg:
            lineno, value = file_cfg[key]
            try:
                resolved[key] = conv(value)
            except (ValueError, ConfigError) as exc:
                raise ConfigError(f"{args.config}:{lineno}: bad value for {key}: {value!r}") from exc
        else:
            resolved[key] = default
    return resolved


def _jsonable(value):
    if isinstance(value, tuple):
        return list(value)
    if isinstance(value, Path):
        return str(value)
    return value


def _require(cfg, key, flag):
    if cfg[key] is None:
        raise ConfigError(f"{flag} is required")
    return cfg[key]


GENERATE_KEYS = {
    "out": (str, None),
    "n": (int, 60),
    "communities": (_parse_ints, (20, 20, 20)),
    "views": (int, 2),
    "p_in": (float, 0.3),
    "p_out": (float, 0.02),
    "unique_frac": (float, 0.5),
    "overlap": (float, None),
    "seed": (int, 7),
}

TRAIN_KEYS = {
    "data": (str, None),
    "out": (str, None),
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
    "ablate": (str, "none"),
    "lambda_every": (int, 1),
    "target_view": (int, None),
    "verbose": (_parse_bool, False),
}

EVAL_KEYS = {
    "embeddings": (str, None),
    "data": (str, None),
    "out": (str, None),
    "task": (str, "classification"),
    "train_ratio": (float, None),
    "target_view": (int, None),
    "seeds": (_parse_ints, tuple(range(10))),
}

ANALYZE_KEYS = {
    "data": (str, None),
    "out": (str, None),
}

SWEEP_KEYS = {
    "data": (str, None),
    "out": (str, None),
    "alphas": (_parse_floats, None),
    "betas": (_parse_floats, None),
    "gammas": (_parse_floats, None),
    "dims": (_parse_ints, None),
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
    "train_ratio": (float, 0.5),
    "seeds": (_parse_ints, (0, 1, 2)),
}

ABLATE_FLAGS = {
    "none": (True, True),
    "sim": (False, True),
    "dif": (True, False),
    "both": (False, False),
}


def _train_config(cfg) -> TrainConfig:
    ablate = cfg.get("ablate", "none")
    if ablate not in ABLATE_FLAGS:
        raise ConfigError(f"--ablate must be one of {sorted(ABLATE_FLAGS)}, got {ablate!r}")
    use_sim, use_dif = ABLATE_FLAGS[ablate]
    return TrainConfig(
        dim=cfg["dim"],
        layer_sizes=tuple(cfg["layers"]),
        alpha=cfg["alpha"],
        beta=cfg["beta"],
        gamma=cfg["gamma"],
        lr=cfg["lr"],
        max_epochs=cfg["epochs"],
        patience=cfg["patience"],
        tol=cfg["tol"],
        seed=cfg["seed"],
        use_sim=use_sim,
        use_dif=use_dif,
        lambda_update_every=cfg["lambda_every"],
        verbose=cfg.get("verbose", False),
    )


def cmd_generate(args) -> int:
    cfg = _resolve(args, GENERATE_KEYS)
    out_dir = Path(_require(cfg, "out", "--out"))
    synth = SynthConfig(
        n=cfg["n"],
        communities=tuple(cfg["communities"]),
        views=cfg["views"],
        p_in=cfg["p_in"],
        p_out=cfg["p_out"],
        unique_frac=cfg["unique_frac"],
        overlap=cfg["overlap"],
        seed=cfg["seed"],
    )
    net = generate(synth)
    written = save_dataset(net, out_dir)
    _write_manifest(out_dir / "manifest.json", args, cfg, [], sorted(p.name for p in written))
    print(f"wrote {net.n} nodes, {len(net.views)} views to {out_dir}")
    return 0


def cmd_train(args) -> int:
    cfg = _resolve(args, TRAIN_KEYS)
    data_dir = Path(_require(cfg, "data", "--data"))
    out_dir = Path(_require(cfg, "out", "--out"))
    net = load_dataset(data_dir)
    train_net = net.without_view(cfg["target_view"]) if cfg["target_view"] is not None else net
    tc = _train_config(cfg)
    params, embeds, history = train(train_net, tc)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_embeddings(
        out_dir / "embeddings.txt",
        net.node_names,
        embeds.final,
        len(train_net.views),
        embeds.consistent.shape[1],
    )
    header = "epoch\trec\tsim\tdif\ttotal\tlambda"
    write_text_atomic(out_dir / "history.tsv", "\n".join([header] + [h.line() for h in history]) + "\n")
    _write_manifest(out_dir / "manifest.json", args, cfg, [data_dir], ["embeddings.txt", "history.tsv"])
    final = history[-1].total if history else float("nan")
    print(f"trained {len(history)} epochs (final loss {final:.6g}); embeddings in {out_dir}")
    return 0


def _aligned_embeddings(net: MultiViewNetwork, path):
    names, y, n_views, d = load_embeddings(path)
    index = {name: i for i, name in enumerate(names)}
    if set(index) != set(net.node_names):
        raise ConfigError(f"{path}: node names do not match the dataset")
    order = [index[name] for name in net.node_names]
    return y[order], n_views, d


def cmd_eval(args) -> int:
    cfg = _resolve(args, EVAL_KEYS)
    emb_path = Path(_require(cfg, "embeddings", "--embeddings"))
    data_dir = Path(_require(cfg, "data", "--data"))
    net = load_dataset(data_dir)
    y, _, _ = _aligned_embeddings(net, emb_path)
    if cfg["task"] == "classification":
        if net.labels is None:
            raise ConfigError(f"{data_dir}: dataset has no labels.txt")
        ratios = (cfg["train_ratio"],) if cfg["train_ratio"] is not None else (0.1, 0.3, 0.5)
        rows = classification_report(y, net.labels, ratios=ratios, seeds=cfg["seeds"])
    elif cfg["task"] == "linkpred":
        target = _require(cfg, "target_view", "--target-view")
        ratio = cfg["train_ratio"] if cfg["train_ratio"] is not None else 0.5
        rows = link_prediction_report(net, y, target, ratio=ratio, seeds=cfg["seeds"])
    else:
        raise ConfigError(f"--task must be classification or linkpred, got {cfg['task']!r}")
    text = "task\ttrain_ratio\tseed\tmetric\tvalue\n" + "\n".join(
        f"{t}\t{r:g}\t{s}\t{m}\t{v:.10g}" for t, r, s, m, v in rows
    ) + "\n"
    if cfg["out"]:
        out_path = Path(cfg["out"])
        out_path.parent.mkdir(parents=True, exist_ok=True)
        write_text_atomic(out_path, text)
        manifest_path = out_path.with_name(out_path.stem + ".manifest.json")
        _write_manifest(manifest_path, args, cfg, [emb_path, data_dir], [out_path.name])
    else:
        sys.stdout.write(text)
    return 0


def cmd_analyze(args) -> int:
    cfg = _resolve(args, ANALYZE_KEYS)
    data_dir = Path(_require(cfg, "data", "--data"))
    net = load_dataset(data_dir)
    j = jaccard_consistency(net)
    header = "view\t" + "\t".join(f"view_{i}" for i in range(len(net.views)))
    lines = [header]
    for i, row in enumerate(j):
        lines.append(f"view_{i}\t" + "\t".join(f"{x:.10g}" for x in row))
    text = "\n".join(lines) + "\n"
    if cfg["out"]:
        write_text_atomic(cfg["out"], text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_sweep(args) -> int:
    cfg = _resolve(args, SWEEP_KEYS)
    data_dir = Path(_require(cfg, "data", "--data"))
    out_path = Path(_require(cfg, "out", "--out"))
    net = load_dataset(data_dir)
    if net.labels is None:
        raise ConfigError(f"{data_dir}: sweeps evaluate classification and need labels.txt")
    alphas = cfg["alphas"] or (cfg["alpha"],)
    betas = cfg["betas"] or (cfg["beta"],)
    gammas = cfg["gammas"] or (cfg["gamma"],)
    dims = cfg["dims"] or (cfg["dim"],)
    rows = []
    for alpha, beta, gamma, dim in product(alphas, betas, gammas, dims):
        tc = _train_config({**cfg, "alpha": alpha, "beta": beta, "gamma": gamma, "dim": dim})
        params, embeds, _ = train(net, tc)
        report = classification_report(
            embeds.final, net.labels, ratios=(cfg["train_ratio"],), seeds=cfg["seeds"]
        )
        means = {m: v for _, _, s, m, v in report if s == "mean"}
        lam = params.lam
        rows.append(
            (alpha, beta, gamma, dim, means["micro_f1"], means["macro_f1"],
             float(lam.min()), float(lam.max()), float(lam.max() - lam.min()))
        )
    header = "alpha\tbeta\tgamma\tdim\tmicro_f1\tmacro_f1\tlambda_min\tlambda_max\tlambda_spread"
    text = header + "\n" + "\n".join(
        "\t".join(f"{x:.10g}" for x in row) for row in rows
    ) + "\n"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    write_text_atomic(out_path, text)
    manifest_path = out_path.with_name(out_path.stem + ".manifest.json")
    _write_manifest(manifest_path, args, cfg, [data_dir], [out_path.name])
    print(f"swept {len(rows)} configurations; table in {out_path}")
    return 0


def _add_common(sub, keys):
    sub.add_argument("--config", help="flat key=value file; flags override it")
    for key in keys:
        flag = "--" + key.replace("_", "-")
        conv, _ = keys[key]
        if conv is _parse_bool:
            sub.add_argument(flag, dest=key, action="store_const", const=True, default=None)
        else:
            sub.add_argument(flag, dest=key, type=conv, default=None)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rgae",
        description="Multi-view network embedding with regularized graph auto-encoders.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = [
        ("generate", GENERATE_KEYS, cmd_generate, "write a synthetic labeled dataset directory"),
        ("train", TRAIN_KEYS, cmd_train, "train embeddings on a dataset directory"),
        ("eval", EVAL_KEYS, cmd_eval, "score embeddings on classification or link prediction"),
        ("analyze", ANALYZE_KEYS, cmd_analyze, "pairwise edge-overlap table of the views"),
        ("sweep", SWEEP_KEYS, cmd_sweep, "train and evaluate over hyper-parameter grids"),
    ]
    for name, keys, func, help_text in specs:
        s = sub.add_parser(name, help=help_text)
        _add_common(s, keys)
        s.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except RgaeError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"FileError: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
