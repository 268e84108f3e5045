"""rgae benchmark: one workload, one seed, one measured run.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed (untimed), measures passes in
fresh worker processes for about S seconds, checks the outputs, prints
every metric with its unit, sample count and quartiles, and ends with one
JSON line {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are BENCHMARK.json's end_to_end ones, with --trace 1 its per_layer
ones. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from workloads import (
    HELDOUT_SEED, ROOT, WORK, WORKLOADS, align_rows, generate_inputs, import_rgae, input_seed,
)

import_rgae()

import oracle  # noqa: E402
from rgae import evaluate  # noqa: E402
from rgae.cli import load_embeddings  # noqa: E402
from rgae.autodiff import Tape  # noqa: E402
from rgae.graph import load_dataset  # noqa: E402
from rgae.model import RgaeParams, run_model  # noqa: E402
from spans import MISSING_TARGET_EXIT, PEAK_SPANS, layer_metrics, merge, missing_spans  # noqa: E402

RUN_LIMIT_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1
LOSS_RTOL = 1e-9
GRAD_RTOL = 1e-9
LAMBDA_ATOL = 1e-9
METRIC_ATOL = 1e-9
# setups per plain pass whose median is the pass's setup_s: one setup is short and noisy
SETUP_REPEATS = 5


def _worker_env() -> dict:
    """One BLAS thread: on a small shared machine a second one adds more noise than speed."""
    return dict(os.environ, **{var: str(BLAS_THREADS) for var in THREAD_VARS})


def _environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = _worker_env()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: env[var] for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "input_seed": input_seed(seed),
        "heldout_seed": HELDOUT_SEED,
    }


def _run_worker(spec: dict, started: float):
    """Run one pass in a fresh worker process; None if it crashed. It is killed and reaped at the run limit."""
    out = Path(spec["out"])
    out.mkdir(exist_ok=True)
    spec = dict(spec, result=str(out / "result.json"))
    (out / "spec.json").write_text(json.dumps(spec))
    Path(spec["result"]).unlink(missing_ok=True)
    remaining = RUN_LIMIT_S - (time.perf_counter() - started)
    try:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "worker.py"), str(out / "spec.json")],
            env=_worker_env(), stdout=subprocess.DEVNULL, timeout=max(remaining, 1.0),
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: worker for {spec['workload']}/{spec['phase']} hit the run limit", file=sys.stderr)
        return None
    if proc.returncode == MISSING_TARGET_EXIT:
        raise SystemExit("perfbench: the traced run cannot wrap every named span")
    if proc.returncode != 0:
        print(f"perfbench: worker for {spec['workload']}/{spec['phase']} exited {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(Path(spec["result"]).read_text())


def _measure(schedule: list, seconds: float, started: float) -> dict:
    """Repeat a cycle of one-pass workers until the next cycle would overrun `seconds`.

    `schedule` lists the cycle's passes as (phase, spec, traced). On eval the
    prep training and the eval pass take turns, so both are sampled over the
    whole run, not over one share of it. Traced runs cycle plain and traced
    passes of the main phase, so that their difference is the tracing
    overhead, and end with one short memory pass per traced phase.
    """
    phases = {name: {"plain": [], "traced": [], "exports": [], "maxrss_mib": [], "peak_mib": {},
                     "attempted": 0, "failed": 0} for name, _, _ in schedule}
    deadline = time.perf_counter() + seconds
    durations = []
    while True:
        t0 = time.perf_counter()
        for name, spec, traced in schedule:
            result = _run_worker(dict(spec, trace=traced, memory=False), started)
            phase = phases[name]
            phase["attempted"] += 1
            if result is None or result["sample"] is None:
                phase["failed"] += 1
                return phases
            if traced:
                phase["traced"].append(result["sample"])
                phase["exports"].append(result["layers"])
            else:
                phase["plain"].append(result["sample"])
                phase["maxrss_mib"].append(result["maxrss_mib"])
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() + float(np.median(durations)) > deadline:
            break
    for name, spec in {name: spec for name, spec, traced in schedule if traced}.items():
        memory = dict(spec, trace=True, memory=True, out=spec["out"] + "-memory")
        result = _run_worker(memory, started)
        phases[name]["attempted"] += 1
        if result is None or result["sample"] is None:
            phases[name]["failed"] += 1
        else:
            phases[name]["peak_mib"] = result["peak_mib"]
    return phases


def _stat(values, unit):
    """Median with quartiles and sample count."""
    lo, mid, hi = (float(q) for q in np.percentile(values, [25, 50, 75]))
    return {"value": mid, "unit": unit, "n": len(values), "p25": lo, "p75": hi}


def _gradients_match(net, cfg, replay) -> bool:
    """rgae's tape gradients at the replay's initial weights against the replay's written-out ones."""
    lam = np.full(len(net.views), 1.0 / len(net.views))
    params = RgaeParams(private=replay.private, shared=replay.shared, lam=lam)
    tape = Tape()
    out = run_model(net, params, cfg.alpha, cfg.beta, cfg.gamma, tape, use_sim=cfg.use_sim, use_dif=cfg.use_dif)
    tape.backward(out.loss)
    return all(
        np.max(np.abs(g - ref)) <= GRAD_RTOL * np.max(np.abs(ref))
        for g, ref in zip(out.params.gradients(), replay.gradients, strict=True)
    )


def _check_training(w, seed, net, phase, checks):
    """Per-pass checks, byte-identical embeddings, and gradients, last-epoch loss and view weights
    against the oracle's dense replay of training."""
    samples = phase["plain"] + phase["traced"]
    for name in ("history_finite", "verbose_lines_match_history", "embeddings_round_trip"):
        checks[name] = all(s["checks"][name] for s in samples)
    checks["embeddings_identical_across_passes"] = len({s["embeddings_sha256"] for s in samples}) == 1
    train_net = net.without_view(w.held_out) if w.held_out is not None else net
    cfg = w.train_config(input_seed(seed))
    replay = oracle.replay_training(train_net, cfg)
    reference = replay.totals[-1]
    checks["gradients_match_dense_replay"] = _gradients_match(train_net, cfg, replay)
    checks["last_total_matches_dense_replay"] = all(
        abs(s["last_total"] - reference) <= LOSS_RTOL * abs(reference) for s in samples
    )
    checks["last_lambda_matches_dense_replay"] = all(
        np.max(np.abs(np.array(s["last_lambda"]) - replay.lam)) <= LAMBDA_ATOL for s in samples
    )
    return reference


def _check_rows(w, net, embeddings_path, phase, checks):
    """Rows identical across passes, and their first seeds rescored by the oracle."""
    samples = phase["plain"] + phase["traced"]
    checks["rows_identical_across_passes"] = len({json.dumps(s["rows"]) for s in samples}) == 1
    rows = {(t, r, s, m): v for t, r, s, m, v in samples[0]["rows"]}
    names, y, _, _ = load_embeddings(embeddings_path)
    y = align_rows(names, y, net.node_names)
    references = {}
    seed0 = w.class_seeds[0]
    for ratio in w.class_ratios:
        references[("classification", ratio, str(seed0), "micro_f1")] = oracle.micro_f1(
            y, net.labels, ratio, seed0
        )
    seed0 = w.link_seeds[0]
    auc, ap, problems = oracle.link_prediction(net, y, w.link_view, seed0)
    references[("link_prediction", 0.5, str(seed0), "roc_auc")] = auc
    references[("link_prediction", 0.5, str(seed0), "average_precision")] = ap
    checks["negatives_sampled_correctly"] = not problems
    checks["rows_match_oracle"] = all(
        key in rows and abs(rows[key] - ref) <= METRIC_ATOL for key, ref in references.items()
    )
    if w.f1_floor is not None:
        means = [v for (t, r, s, m), v in rows.items() if s == "mean" and m == "micro_f1" and r == 0.5]
        checks[f"micro_f1_at_0.5_above_{w.f1_floor}"] = bool(means) and means[0] > w.f1_floor


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    w = WORKLOADS[args.workload]
    trace = bool(args.trace)

    work = WORK / w.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    data = generate_inputs(w, args.seed, work)
    base = {"workload": w.name, "seed": args.seed, "data": str(data), "trace": trace}

    embeddings_path = work / "prep" / "embeddings.txt"
    main_spec = dict(base, phase=w.kind, out=str(work / "main"), score=True, setup_repeats=SETUP_REPEATS,
                     embeddings=str(embeddings_path) if w.kind == "eval" else None)
    schedule = [("main", main_spec, False)] + ([("main", main_spec, True)] if trace else [])
    if w.kind == "eval":
        # the prep pass writes the embeddings the eval pass reads, so it comes first in each cycle
        prep_spec = dict(base, phase="train", out=str(work / "prep"), score=False, setup_repeats=1)
        schedule.insert(0, ("prep", prep_spec, trace))
    phases = _measure(schedule, args.seconds, started)
    train_phase = phases["prep"] if w.kind == "eval" else phases["main"]
    main_phase = phases["main"]

    checks = {}
    failed_passes = sum(p["failed"] for p in phases.values())
    attempted_passes = sum(p["attempted"] for p in phases.values())
    reference_total = None
    if failed_passes == 0:
        net = load_dataset(data)
        reference_total = _check_training(w, args.seed, net, train_phase, checks)
        emb_file = embeddings_path if w.kind == "eval" else work / "main" / "embeddings.txt"
        _check_rows(w, net, emb_file, main_phase, checks)

    env = _environment(args.seed)
    print(f"# rgae benchmark  workload={w.name}  seed={args.seed}  seconds={args.seconds:g}  trace={int(trace)}")
    for key, value in env.items():
        print(f"# env {key}: {value}")
    if reference_total is not None:
        print(f"# reference last-epoch total for seed {args.seed}: {reference_total:.17g}")
    for name, ok in checks.items():
        print(f"# check {name}: {'ok' if ok else 'FAILED'}")

    if failed_passes:
        print("perfbench: a pass failed; metrics are missing", file=sys.stderr)
        stats = {}
    elif trace:
        merged = merge([p["exports"] for p in phases.values()])
        peaks = {}
        for p in phases.values():
            for name, v in p["peak_mib"].items():
                peaks[name] = max(peaks.get(name, 0.0), v)
        missing = missing_spans(merged) + [f"{n} (memory pass)" for n in PEAK_SPANS if n not in peaks]
        if missing:
            print(f"perfbench: traced spans never fired: {', '.join(missing)}", file=sys.stderr)
            return 1

        def main_s(samples):
            if w.kind == "train":
                return float(np.median([s["train_s"] for s in samples]))
            return float(np.median([s["eval_class_s"] + s["eval_linkpred_s"] for s in samples]))

        overhead = main_s(main_phase["traced"]) - main_s(main_phase["plain"])
        values = layer_metrics(merged, peaks, evaluate.FIT_ITERATIONS, overhead)
        n = len(main_phase["traced"])
        stats = {m["name"]: {"value": values[m["name"]], "unit": m["unit"], "n": n}
                 for m in definition["per_layer"]}
    else:
        plain = main_phase["plain"]
        train_samples = train_phase["plain"]
        samples = {
            "setup_s": [s["setup_s"] for s in plain],
            "wall_s": [s["wall_s"] for s in plain],
            "train_s": [s["train_s"] for s in train_samples],
            "epoch_ms_p50": [e for s in train_samples for e in s["epoch_ms"]],
            "peak_rss_mib": main_phase["maxrss_mib"],
            "eval_class_s": [s["eval_class_s"] for s in plain],
            "eval_linkpred_s": [s["eval_linkpred_s"] for s in plain],
        }
        stats = {m["name"]: _stat(samples[m["name"]], m["unit"]) for m in definition["end_to_end"]}

    for name, s in stats.items():
        spread = f"  p25 {s['p25']:.6g}  p75 {s['p75']:.6g}" if "p25" in s else ""
        print(f"{name:40s} {s['value']:14.6g} {s['unit']:8s} n={s['n']}{spread}")

    failed_checks = sum(not ok for ok in checks.values())
    attempted = attempted_passes + len(checks)
    failed = failed_passes + failed_checks
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": s["value"], "unit": s["unit"]} for name, s in stats.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
