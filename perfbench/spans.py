"""Span tracer that wraps rgae's public functions from outside the package.

Wrapping replaces the module attribute that callers look up at call time and
unwrapping restores it, so nothing inside ``src/rgae`` changes. Spans nest
through a stack: a span's self time is its duration minus the time its
direct child spans cover. A span's context is the nearest enclosing span
named in CONTEXTS, which splits ``graph.spmm`` into forward, backward and
lambda-refresh calls.
"""

from __future__ import annotations

import importlib
import time
import tracemalloc
from collections import defaultdict

MIB = 1024.0 * 1024.0
# worker exit code when a wrapped function is missing; the run then fails loudly
MISSING_TARGET_EXIT = 3

# (span name, module, attribute or Class.method): the binding the callers use.
# trainer imports run_model, encode, adam_step and update_lambda by name, so
# those are wrapped in trainer's namespace; trainer calls encode only from the
# lambda refresh, which makes that span the refresh's encoder work.
TARGETS = (
    ("graph.load_dataset", "rgae.graph", "load_dataset"),
    ("graph.normalize", "rgae.graph", "normalize"),
    ("graph.spmm", "rgae.graph", "spmm"),
    ("autodiff.gram", "rgae.autodiff", "gram"),
    ("autodiff.sigmoid", "rgae.autodiff", "sigmoid"),
    ("autodiff.balanced_bce", "rgae.autodiff", "balanced_bce"),
    ("autodiff.backward", "rgae.autodiff", "Tape.backward"),
    ("model.run_model", "rgae.trainer", "run_model"),
    ("model.encode.refresh", "rgae.trainer", "encode"),
    ("trainer.train", "rgae.trainer", "train"),
    ("trainer.adam_step", "rgae.trainer", "adam_step"),
    ("trainer.update_lambda", "rgae.trainer", "update_lambda"),
    ("evaluate.classification_report", "rgae.evaluate", "classification_report"),
    ("evaluate.logistic_ovr_train", "rgae.evaluate", "logistic_ovr_train"),
    ("evaluate.link_prediction_report", "rgae.evaluate", "link_prediction_report"),
    ("evaluate.link_predict", "rgae.evaluate", "link_predict"),
    ("evaluate.sample_negatives", "rgae.evaluate", "sample_negatives"),
    ("cli.save_embeddings", "rgae.cli", "save_embeddings"),
    ("cli.load_embeddings", "rgae.cli", "load_embeddings"),
)

CONTEXTS = ("autodiff.backward", "model.encode.refresh", "model.run_model")

# spans whose tracemalloc peak is recorded in a memory pass; they never nest in each other
PEAK_SPANS = ("autodiff.backward", "model.run_model", "evaluate.sample_negatives")


def _spmm_counts(args, kwargs, result):
    """Computed work of one sparse product: 2 flop per stored entry and column."""
    norm, dense = args[0], args[1]
    nnz, k = norm.nnz, dense.shape[1]
    # values and column indices, the gathered operand rows, the written result
    moved = 8 * (2 * nnz + nnz * k + norm.n * k)
    return {"flop": 2 * nnz * k, "bytes": moved}


def _gram_counts(args, kwargs, result):
    rows = result.value.shape[0]
    return {"bytes": 8 * rows * rows}


def _backward_counts(args, kwargs, result):
    return {"tape_nodes": len(args[0])}


def _ovr_counts(args, kwargs, result):
    return {"fits": int(result.trained.sum())}


def _link_counts(args, kwargs, result):
    return {"fits": 1}


COUNTERS = {
    "graph.spmm": _spmm_counts,
    "autodiff.gram": _gram_counts,
    "autodiff.backward": _backward_counts,
    "evaluate.logistic_ovr_train": _ovr_counts,
    "evaluate.link_predict": _link_counts,
}


class MissingTarget(Exception):
    """A function the tracer wraps no longer exists under its name."""


def _resolve(module_name, attr):
    owner = importlib.import_module(module_name)
    if "." in attr:
        cls, attr = attr.split(".")
        owner = getattr(owner, cls)
    getattr(owner, attr)
    return owner, attr


class Tracer:
    """Collects per-span calls, total and self seconds, context splits, counts and peaks.

    With memory=True, tracemalloc runs only inside the PEAK_SPANS and each
    such span records the highest traced allocation it reached; timings of
    such a pass are inflated by tracemalloc and should be discarded.
    """

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.by_context = defaultdict(float)
        self.counts = defaultdict(float)
        self.maxima = defaultdict(float)
        self.peak_mib = defaultdict(float)
        self._stack = []
        self._saved = []

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        resolved, absent = [], []
        for name, module_name, attr in TARGETS:
            try:
                resolved.append((name, *_resolve(module_name, attr)))
            except AttributeError:
                absent.append(f"{module_name}.{attr}")
        if absent:
            raise MissingTarget(f"cannot wrap {', '.join(absent)}: renamed or removed?")
        for name, owner, leaf in resolved:
            original = getattr(owner, leaf)
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        measure_peak = self.memory and name in PEAK_SPANS

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            self._stack.append(frame)
            if measure_peak:
                tracemalloc.start()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                if measure_peak:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.peak_mib[name] = max(self.peak_mib[name], peak / MIB)
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += dt
                self.calls[name] += 1
                self.total[name] += dt
                self.self_time[name] += dt - frame[1]
                context = next((f[0] for f in reversed(self._stack) if f[0] in CONTEXTS), None)
                if context is not None:
                    self.by_context[(name, context)] += dt
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    self.counts[(name, key)] += value
                    self.maxima[(name, key)] = max(self.maxima[(name, key)], value)
            return result

        return wrapper

    def export(self) -> dict:
        """JSON-ready totals; maxima stay per call."""
        return {
            "calls": dict(self.calls),
            "total": dict(self.total),
            "self": dict(self.self_time),
            "context": {f"{k}|{c}": v for (k, c), v in self.by_context.items()},
            "counts": {f"{k}|{c}": v for (k, c), v in self.counts.items()},
            "maxima": {f"{k}|{c}": v for (k, c), v in self.maxima.items()},
        }


def merge(phases) -> dict:
    """Per-pass values: each phase's exports averaged over its passes, then phases added.

    On eval a pass is thus one prep training plus one eval pass. Maxima keep the largest value.
    """
    out = {key: defaultdict(float) for key in ("calls", "total", "self", "context", "counts", "maxima")}
    for exports in phases:
        sums = {key: defaultdict(float) for key in out}
        for ex in exports:
            for key, values in ex.items():
                for name, v in values.items():
                    if key == "maxima":
                        out[key][name] = max(out[key][name], v)
                    else:
                        sums[key][name] += v
        for key, values in sums.items():
            for name, v in values.items():
                out[key][name] += v / len(exports)
    return out


def missing_spans(merged) -> list:
    """Wrapped functions that never ran, e.g. after a rename in the package."""
    return [name for name, _, _ in TARGETS if merged["calls"][name] == 0]


def layer_metrics(merged, peak_mib, fit_iterations: int, overhead_s: float) -> dict:
    """Per-layer values per pass, keyed by the BENCHMARK.json per_layer names."""
    total, self_, ctx, counts = merged["total"], merged["self"], merged["context"], merged["counts"]
    decoder = total["autodiff.gram"] + total["autodiff.sigmoid"] + total["autodiff.balanced_bce"]
    train_s = total["trainer.train"]
    reports = total["evaluate.classification_report"] + total["evaluate.link_prediction_report"]
    fits = total["evaluate.logistic_ovr_train"] + total["evaluate.link_predict"]
    spmm_s = total["graph.spmm"]
    return {
        "graph.load_dataset.s": total["graph.load_dataset"],
        "graph.normalize.s": total["graph.normalize"],
        "graph.spmm.calls": merged["calls"]["graph.spmm"],
        "graph.spmm.s": spmm_s,
        "graph.spmm.fwd_s": ctx["graph.spmm|model.run_model"],
        "graph.spmm.bwd_s": ctx["graph.spmm|autodiff.backward"],
        "graph.spmm.refresh_s": ctx["graph.spmm|model.encode.refresh"],
        "graph.spmm.flop": counts["graph.spmm|flop"],
        "graph.spmm.bytes": counts["graph.spmm|bytes"],
        "graph.spmm.gflop_per_s": counts["graph.spmm|flop"] / spmm_s / 1e9,
        "autodiff.gram.s": total["autodiff.gram"],
        "autodiff.sigmoid.s": total["autodiff.sigmoid"],
        "autodiff.balanced_bce.s": total["autodiff.balanced_bce"],
        "autodiff.decoder_fwd_s": decoder,
        "autodiff.decoder.bytes": counts["autodiff.gram|bytes"],
        "autodiff.backward.s": total["autodiff.backward"],
        "autodiff.backward.self_s": self_["autodiff.backward"],
        "autodiff.backward.peak_mib": peak_mib["autodiff.backward"],
        "autodiff.tape_nodes": merged["maxima"]["autodiff.backward|tape_nodes"],
        "model.run_model.s": total["model.run_model"],
        "model.run_model.self_s": self_["model.run_model"],
        "model.run_model.peak_mib": peak_mib["model.run_model"],
        "model.encode.refresh_s": total["model.encode.refresh"],
        "trainer.train.s": train_s,
        "trainer.adam_step.s": total["trainer.adam_step"],
        "trainer.update_lambda.s": total["trainer.update_lambda"],
        "trainer.self_s": self_["trainer.train"],
        "evaluate.classification_report.s": total["evaluate.classification_report"],
        "evaluate.logistic_ovr_train.s": total["evaluate.logistic_ovr_train"],
        "evaluate.link_prediction_report.s": total["evaluate.link_prediction_report"],
        "evaluate.link_predict.s": total["evaluate.link_predict"],
        "evaluate.sample_negatives.s": total["evaluate.sample_negatives"],
        "evaluate.sample_negatives.peak_mib": peak_mib["evaluate.sample_negatives"],
        "evaluate.fit_iterations": (
            counts["evaluate.logistic_ovr_train|fits"] + counts["evaluate.link_predict|fits"]
        ) * fit_iterations,
        "cli.save_embeddings.s": total["cli.save_embeddings"],
        "cli.load_embeddings.s": total["cli.load_embeddings"],
        "share.spmm_of_train": spmm_s / train_s,
        "share.decoder_fwd_of_train": decoder / train_s,
        "share.backward_self_of_train": self_["autodiff.backward"] / train_s,
        "share.fits_of_eval": fits / reports,
        "trace.overhead_s": overhead_s,
    }
