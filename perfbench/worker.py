"""One measured pass of a workload in a fresh process; writes its sample as JSON.

Usage: python3 perfbench/worker.py SPEC.json

run.py starts one worker per pass, as a user starts one process per
command. Every pass then begins from the same allocator state, and the
worker's RSS high-water mark is that of a fresh process running one pass.
The pass goes through rgae's public functions; when asked for, the tracer
wraps them from outside.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from spans import MISSING_TARGET_EXIT, MissingTarget, Tracer
from workloads import WORKLOADS, align_rows, import_rgae, input_seed

import_rgae()

from rgae import cli, evaluate, graph, trainer  # noqa: E402


class StampedLines:
    """stdout stand-in that timestamps every completed line; marks epoch ends under verbose training."""

    def __init__(self):
        self.lines = []
        self.stamps = []
        self._partial = ""

    def write(self, text):
        now = time.perf_counter()
        parts = (self._partial + text).split("\n")
        self._partial = parts.pop()
        for line in parts:
            self.lines.append(line)
            self.stamps.append(now)
        return len(text)

    def flush(self):
        pass


def _setup(data: Path, embeddings: Path | None):
    """Load the dataset, normalize every view, and load the embeddings when given."""
    net = graph.load_dataset(data)
    for view in net.views:
        view.normalized()
    loaded = cli.load_embeddings(embeddings) if embeddings is not None else None
    return net, loaded


def _repeat_setup(sample, spec):
    """Replace the pass's setup time by the median of it and spec["setup_repeats"] - 1 repeats after the pass."""
    embeddings = Path(spec["embeddings"]) if spec.get("embeddings") else None
    times = [sample["setup_s"]]
    for _ in range(spec["setup_repeats"] - 1):
        t0 = time.perf_counter()
        _setup(Path(spec["data"]), embeddings)
        times.append(time.perf_counter() - t0)
    sample["setup_s"] = float(np.median(times))


def _score(sample, net, y, w, light):
    """Classification and link-prediction rows; a light pass uses one seed of each."""
    class_seeds, link_seeds = ((0,), (0,)) if light else (w.class_seeds, w.link_seeds)
    t0 = time.perf_counter()
    class_rows = evaluate.classification_report(y, net.labels, ratios=w.class_ratios, seeds=class_seeds)
    t1 = time.perf_counter()
    link_rows = evaluate.link_prediction_report(net, y, w.link_view, seeds=link_seeds)
    t2 = time.perf_counter()
    sample["eval_class_s"] = t1 - t0
    sample["eval_linkpred_s"] = t2 - t1
    return class_rows + link_rows


def train_pass(w, spec, light=False):
    """Setup, train, write embeddings.txt and history.tsv, then check and score them."""
    out = Path(spec["out"])
    seed = input_seed(spec["seed"])
    t0 = time.perf_counter()
    net, _ = _setup(Path(spec["data"]), None)
    t1 = time.perf_counter()
    train_net = net.without_view(w.held_out) if w.held_out is not None else net
    cfg = w.train_config(seed, epochs=1 if light else None, verbose=True)
    printed = StampedLines()
    with contextlib.redirect_stdout(printed):
        t2 = time.perf_counter()
        _, embeds, history = trainer.train(train_net, cfg)
        t3 = time.perf_counter()
    emb_path = out / "embeddings.txt"
    cli.save_embeddings(emb_path, net.node_names, embeds.final, len(train_net.views), embeds.consistent.shape[1])
    lines = [h.line() for h in history]
    (out / "history.tsv").write_text("epoch\trec\tsim\tdif\ttotal\tlambda\n" + "\n".join(lines) + "\n")
    t4 = time.perf_counter()
    # epoch 0 also builds the cached reconstruction targets, so only later epochs are timed
    ends = printed.stamps
    names, rows, _, _ = cli.load_embeddings(emb_path)
    sample = {
        "setup_s": t1 - t0,
        "train_s": t3 - t2,
        "wall_s": t4 - t0,
        "epoch_ms": [1e3 * (b - a) for a, b in zip(ends, ends[1:])],
        "last_total": history[-1].total,
        "last_lambda": list(history[-1].lam),
        "checks": {
            "history_finite": all(
                np.isfinite([h.rec, h.sim, h.dif, h.total, *h.lam]).all() for h in history
            ),
            "verbose_lines_match_history": printed.lines == lines,
            "embeddings_round_trip": names == net.node_names and np.array_equal(rows, embeds.final),
        },
        "embeddings_sha256": hashlib.sha256(emb_path.read_bytes()).hexdigest(),
    }
    if spec["score"]:
        sample["rows"] = _score(sample, net, embeds.final, w, light)
    return sample


def eval_pass(w, spec, light=False):
    """Setup with the prep embeddings, then write the classification and link-prediction rows."""
    out = Path(spec["out"])
    t0 = time.perf_counter()
    net, (names, y, _, _) = _setup(Path(spec["data"]), Path(spec["embeddings"]))
    t1 = time.perf_counter()
    sample = {"setup_s": t1 - t0}
    rows = _score(sample, net, align_rows(names, y, net.node_names), w, light)
    (out / "metrics.tsv").write_text("task\ttrain_ratio\tseed\tmetric\tvalue\n" + "".join(
        f"{t}\t{r:g}\t{s}\t{m}\t{v:.17g}\n" for t, r, s, m, v in rows
    ))
    sample["wall_s"] = time.perf_counter() - t0
    sample["rows"] = rows
    return sample


def main(argv) -> int:
    spec = json.loads(Path(argv[1]).read_text())
    w = WORKLOADS[spec["workload"]]
    run_pass = train_pass if spec["phase"] == "train" else eval_pass
    # a memory pass is short and its timings are discarded: tracemalloc inflates them
    tracer = Tracer(memory=spec["memory"]) if spec["trace"] else None
    if tracer is not None:
        try:
            tracer.install()
        except MissingTarget as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return MISSING_TARGET_EXIT
    result = {}
    try:
        result["sample"] = run_pass(w, spec, light=spec["memory"])
    except Exception:
        traceback.print_exc()
        result["sample"] = None
    finally:
        if tracer is not None:
            tracer.uninstall()
    result["maxrss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # traced passes would count repeated setups as layer time
    if tracer is None and result["sample"] is not None:
        _repeat_setup(result["sample"], spec)
    if tracer is not None:
        result["layers"] = tracer.export()
        result["peak_mib"] = dict(tracer.peak_mib)
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
