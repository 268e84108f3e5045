"""Command-line pipeline: generate, train, eval, analyze, sweep."""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import sys
from dataclasses import fields
from itertools import chain, count, product
from operator import itemgetter
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, ParseError, RgaeError
from .evaluate import _embedding_rows, _require_seeds, classification_report, link_prediction_report
from .graph import (
    MultiViewNetwork,
    jaccard_consistency,
    leading_floats,
    load_dataset,
    read_text,
    require_readable_names,
    save_dataset,
    text_lines,
    write_text_atomic,
)
from .synth import SynthConfig, generate
from .trainer import HISTORY_HEADER, TrainConfig, train


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
    """Record the resolved config, input digests (the --config file included), outputs and versions.

    Holds no timestamps: re-running a command with the same manifest inputs
    reproduces the outputs byte for byte.
    """
    manifest = {
        "command": args.command,
        "config": cfg,
        "inputs": _digest_inputs(inputs + ([args.config] if args.config else [])),
        "outputs": outputs,
        "versions": _versions(),
    }
    write_text_atomic(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _write_table(args, cfg: dict, header, rows, inputs: list) -> None:
    """TSV of the header and rows of formatted cells to --out plus <stem>.manifest.json, or to stdout."""
    text = "".join("\t".join(cells) + "\n" for cells in [header, *rows])
    if not cfg["out"]:
        sys.stdout.write(text)
        return
    out_path = Path(cfg["out"])
    out_path.parent.mkdir(parents=True, exist_ok=True)
    write_text_atomic(out_path, text)
    manifest_path = out_path.with_name(out_path.stem + ".manifest.json")
    _write_manifest(manifest_path, args, cfg, inputs, [out_path.name])


def save_embeddings(path, names, embeddings, n_views, block_dim) -> None:
    """Text format: header "n d_total n_views d", then one node per line at full float precision."""
    require_readable_names(names)
    y = _embedding_rows(embeddings, len(names))
    row_format = " ".join(["%.17g"] * y.shape[1])
    lines = [f"{len(names)} {y.shape[1]} {n_views} {block_dim}"]
    lines += [name + " " + row_format % tuple(row) for name, row in zip(names, y.tolist())]
    write_text_atomic(path, "\n".join(lines) + "\n")


def load_embeddings(path):
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
    fields = [line.split() for line in lines[1:]]
    del lines  # the file's text is held once, as lines and then as tokens
    stop, message = n, None
    bad = np.flatnonzero(np.fromiter(map(len, fields), np.int64, n) != d_total + 1)
    if bad.size:
        stop, message = bad[0], f"expected a name and {d_total} values"
    first_line = {}
    firsts = np.fromiter(map(first_line.setdefault, map(itemgetter(0), fields[:stop]), count(2)), np.int64, stop)
    bad = np.flatnonzero(firsts != np.arange(2, stop + 2))
    if bad.size:
        stop, message = bad[0], f"node {fields[bad[0]][0]!r} is already on line {firsts[bad[0]]}"
    tokens = list(chain.from_iterable(fields[:stop]))
    del fields, tokens[:: d_total + 1]
    values = leading_floats(tokens)
    if values.size < len(tokens):
        stop, message = values.size // d_total, "bad value"
    bad = np.flatnonzero(~np.isfinite(values[: stop * d_total]))
    if bad.size:
        stop, message = bad[0] // d_total, "value is not finite"
    if message is not None:
        raise ParseError(f"{path}:{stop + 2}: {message}")
    return list(first_line), values.reshape(n, d_total), n_views, d


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
        key, value = (part.strip() for part in line.split("=", 1))
        if key in out:
            raise ParseError(f"{path}:{lineno}: key {key!r} is already on line {out[key][0]}")
        out[key] = (lineno, value)
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


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _require(cfg, key):
    if cfg[key] is None:
        raise ConfigError(f"{_flag(key)} is required")
    return cfg[key]


FIELD_PARSERS = {"int": int, "float": float, "tuple": _parse_ints}


def _field_keys(cls, skip=(), rename=None, **defaults) -> dict:
    """(parser, default) per field of a config dataclass, keyed by CLI name.

    rename maps CLI names to field names; keyword arguments replace the
    dataclass defaults.
    """
    cli_name = {field: key for key, field in (rename or {}).items()}
    return {
        cli_name.get(f.name, f.name): (FIELD_PARSERS[f.type], defaults.get(f.name, f.default))
        for f in fields(cls)
        if f.name not in skip
    }


GENERATE_KEYS = {"out": (str, None), **_field_keys(SynthConfig, n=60, communities=(20, 20, 20), seed=7)}

# CLI names of the TrainConfig fields they differ from; config files and manifests use the CLI names.
MODEL_FIELDS = {"layers": "layer_sizes", "epochs": "max_epochs", "lambda_every": "lambda_update_every"}
MODEL_KEYS = _field_keys(TrainConfig, skip=("use_sim", "use_dif", "verbose"), rename=MODEL_FIELDS)
# sweep's grid keys and the model keys they replace
GRID_KEYS = {"alphas": "alpha", "betas": "beta", "gammas": "gamma", "dims": "dim"}

TRAIN_KEYS = {
    "data": (str, None),
    "out": (str, None),
    **MODEL_KEYS,
    "ablate": (str, "none"),
    "target_view": (int, None),
    "verbose": (_parse_bool, TrainConfig.verbose),
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
    "alphas": (_parse_floats, (TrainConfig.alpha,)),
    "betas": (_parse_floats, (TrainConfig.beta,)),
    "gammas": (_parse_floats, (TrainConfig.gamma,)),
    "dims": (_parse_ints, (TrainConfig.dim,)),
    **{key: spec for key, spec in MODEL_KEYS.items() if key not in GRID_KEYS.values()},
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
        **{MODEL_FIELDS.get(key, key): cfg[key] for key in MODEL_KEYS},
        use_sim=use_sim,
        use_dif=use_dif,
        verbose=cfg.get("verbose", TrainConfig.verbose),
    )


def cmd_generate(args) -> int:
    cfg = _resolve(args, GENERATE_KEYS)
    out_dir = Path(_require(cfg, "out"))
    synth = SynthConfig(**{f.name: cfg[f.name] for f in fields(SynthConfig)})
    net = generate(synth)
    written = save_dataset(net, out_dir)
    _write_manifest(out_dir / "manifest.json", args, cfg, [], sorted(p.name for p in written))
    print(f"wrote {net.n} nodes, {len(net.views)} views to {out_dir}")
    return 0


def cmd_train(args) -> int:
    cfg = _resolve(args, TRAIN_KEYS)
    data_dir = Path(_require(cfg, "data"))
    out_dir = Path(_require(cfg, "out"))
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
    write_text_atomic(out_dir / "history.tsv", "\n".join([HISTORY_HEADER] + [h.line() for h in history]) + "\n")
    _write_manifest(out_dir / "manifest.json", args, cfg, [data_dir], ["embeddings.txt", "history.tsv"])
    final = history[-1].total if history else float("nan")
    stop = "max epochs" if len(history) >= tc.max_epochs else f"a patience streak of {np.ceil(tc.patience):.0f} epochs"
    print(f"trained {len(history)} epochs (final loss {final:.6g}, stopped by {stop}); embeddings in {out_dir}")
    return 0


def _aligned_embeddings(net: MultiViewNetwork, path):
    names, y, n_views, d = load_embeddings(path)
    index = {name: i for i, name in enumerate(names)}
    if set(index) != set(net.node_names):
        raise ConfigError(f"{path}: node names do not match the dataset")
    return y[[index[name] for name in net.node_names]]


def cmd_eval(args) -> int:
    cfg = _resolve(args, EVAL_KEYS)
    emb_path = Path(_require(cfg, "embeddings"))
    data_dir = Path(_require(cfg, "data"))
    net = load_dataset(data_dir)
    y = _aligned_embeddings(net, emb_path)
    if cfg["task"] == "classification":
        if cfg["target_view"] is not None:
            raise ConfigError("--target-view applies to --task linkpred only")
        if net.labels is None:
            raise ConfigError(f"{data_dir}: dataset has no labels.txt")
        ratios = (cfg["train_ratio"],) if cfg["train_ratio"] is not None else (0.1, 0.3, 0.5)
        rows = classification_report(y, net.labels, ratios=ratios, seeds=cfg["seeds"])
    elif cfg["task"] == "linkpred":
        target = _require(cfg, "target_view")
        ratio = cfg["train_ratio"] if cfg["train_ratio"] is not None else 0.5
        rows = link_prediction_report(net, y, target, ratio=ratio, seeds=cfg["seeds"])
    else:
        raise ConfigError(f"--task must be classification or linkpred, got {cfg['task']!r}")
    header = "task train_ratio seed metric value".split()
    cells = [(t, f"{r:g}", str(s), m, f"{v:.10g}") for t, r, s, m, v in rows]
    _write_table(args, cfg, header, cells, [emb_path, data_dir])
    return 0


def cmd_analyze(args) -> int:
    cfg = _resolve(args, ANALYZE_KEYS)
    data_dir = Path(_require(cfg, "data"))
    net = load_dataset(data_dir)
    j = jaccard_consistency(net)
    header = ["view"] + [f"view_{i}" for i in range(len(net.views))]
    rows = [[f"view_{i}"] + [f"{x:.10g}" for x in row] for i, row in enumerate(j)]
    _write_table(args, cfg, header, rows, [data_dir])
    return 0


def cmd_sweep(args) -> int:
    cfg = _resolve(args, SWEEP_KEYS)
    data_dir = Path(_require(cfg, "data"))
    out_path = Path(_require(cfg, "out"))
    _require_seeds(cfg["seeds"])
    for grid in GRID_KEYS:
        if not cfg[grid]:
            raise ConfigError(f"{_flag(grid)} needs at least one value")
    net = load_dataset(data_dir)
    if net.labels is None or not any(net.labels):
        raise ConfigError(f"{data_dir}: sweeps evaluate classification and need a labels.txt that labels a node")
    rows = []
    for point in product(*(cfg[grid] for grid in GRID_KEYS)):
        params, embeds, _ = train(net, _train_config({**cfg, **dict(zip(GRID_KEYS.values(), point))}))
        report = classification_report(
            embeds.final, net.labels, ratios=(cfg["train_ratio"],), seeds=cfg["seeds"]
        )
        means = {m: v for _, _, s, m, v in report if s == "mean"}
        lam = params.lam
        rows.append(
            (*point, means["micro_f1"], means["macro_f1"],
             float(lam.min()), float(lam.max()), float(lam.max() - lam.min()))
        )
    header = "alpha beta gamma dim micro_f1 macro_f1 lambda_min lambda_max lambda_spread".split()
    _write_table(args, cfg, header, [[f"{x:.10g}" for x in row] for row in rows], [data_dir])
    print(f"swept {len(rows)} configurations; table in {out_path}")
    return 0


def _add_common(sub, keys):
    sub.add_argument("--config", help="flat key=value file; flags override it")
    for key in keys:
        conv, _ = keys[key]
        if conv is _parse_bool:
            sub.add_argument(_flag(key), dest=key, action="store_const", const=True, default=None)
        else:
            sub.add_argument(_flag(key), dest=key, type=conv, default=None)


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
        s = sub.add_parser(name, help=help_text, allow_abbrev=False)
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
