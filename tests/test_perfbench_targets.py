"""The benchmark tracer wraps rgae functions by module and attribute name.

A rename inside the package, or a training path that stops calling a wrapped
function, would only surface when a traced benchmark runs; resolving every
wrapped name and firing every training and evaluation span here makes it
fail in the test suite instead.
"""

import importlib
import importlib.util
import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from rgae import evaluate, graph, trainer
from rgae.synth import SynthConfig, generate
from rgae.trainer import TrainConfig, train

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_spans = _load("spans")
_oracle = _load("oracle")
TARGETS = _spans.TARGETS
# the benchmark's tolerance when it rescores report rows with the oracle
METRIC_ATOL = 1e-9

TRAINING_SPANS = (
    "graph.spmm",
    "autodiff.gram",
    "autodiff.sigmoid",
    "autodiff.balanced_bce",
    "autodiff.backward",
    "model.run_model",
    "model.encode.refresh",
    "trainer.train",
    "trainer.adam_step",
    "trainer.update_lambda",
)


@pytest.mark.parametrize("span,module,attr", TARGETS, ids=[span for span, _, _ in TARGETS])
def test_traced_function_resolves(span, module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner), f"{span}: {module}.{attr} is not callable"


def test_training_fires_every_training_span():
    net = generate(SynthConfig(n=30, communities=(10, 10, 10), views=2, seed=7))
    cfg = TrainConfig(dim=6, layer_sizes=(4,), max_epochs=2, patience=math.inf, tol=0.0)
    tracer = _spans.Tracer()
    tracer.install()
    try:
        trainer.train(net, cfg)
    finally:
        tracer.uninstall()
    assert [span for span in TRAINING_SPANS if tracer.calls[span] == 0] == []
    # one forward per epoch; encoder calls under trainer's name are the view-weight refreshes only
    assert tracer.calls["model.run_model"] == cfg.max_epochs
    assert tracer.calls["model.encode.refresh"] == cfg.max_epochs * len(net.views)


def test_spmm_calls_of_one_epoch_per_context():
    # the tracer splits graph.spmm time by the enclosing run_model, Tape.backward or refresh encoder span;
    # a module that binds spmm by name escapes the wrapper, and a backward that adds or drops a product
    # moves these counts
    net = generate(SynthConfig(n=30, communities=(10, 10, 10), views=3, seed=7))
    cfg = TrainConfig(dim=8, layer_sizes=(4,), max_epochs=1, patience=math.inf, tol=0.0)
    tracer = _spans.Tracer()
    tracer.install()
    traced = graph.spmm
    contexts = Counter()

    def counting(*args, **kwargs):
        contexts[next((f[0] for f in reversed(tracer._stack) if f[0] in _spans.CONTEXTS), None)] += 1
        return traced(*args, **kwargs)

    graph.spmm = counting
    try:
        trainer.train(net, cfg)
    finally:
        graph.spmm = traced
        tracer.uninstall()
    # per view and stack, 2 layers forward and 2 products back; the refresh runs the 3 shared stacks, and the
    # final embedding pass reuses their layers, so it encodes only the 3 private stacks outside any context
    assert contexts == {"model.run_model": 12, "autodiff.backward": 12, "model.encode.refresh": 6, None: 6}
    assert tracer.calls["graph.spmm"] == 36


def test_evaluation_fires_every_eval_span():
    net = generate(SynthConfig(n=30, communities=(10, 10, 10), views=2, seed=7))
    y = np.random.default_rng(0).normal(size=(net.n, 4))
    ratios, seeds = (0.3, 0.5), (0, 1)
    tracer = _spans.Tracer()
    tracer.install()
    try:
        evaluate.classification_report(y, net.labels, ratios=ratios, seeds=seeds)
        evaluate.link_prediction_report(net, y, 1, seeds=seeds)
    finally:
        tracer.uninstall()
    eval_spans = [span for span, _, _ in TARGETS if span.startswith("evaluate.")]
    assert [span for span in eval_spans if tracer.calls[span] == 0] == []
    # the tracer counts fits from logistic_ovr_train's .trained mask; every class trains here
    fits = len(ratios) * len(seeds) * len(set().union(*net.labels))
    # the seeds of one ratio are fitted in one stacked call
    assert tracer.calls["evaluate.logistic_ovr_train"] == len(ratios)
    assert tracer.counts[("evaluate.logistic_ovr_train", "fits")] == fits
    assert tracer.calls["evaluate.sample_negatives"] == len(seeds)


def test_oracle_rescoring_matches_the_reports():
    # the oracle calls make_split, SplitSpec and build_linkpred_task directly; a change to
    # any of them would otherwise surface only in a benchmark run
    net = generate(SynthConfig(n=60, communities=(20, 20, 20), views=3, seed=3))
    cfg = TrainConfig(dim=8, layer_sizes=(8,), max_epochs=5, patience=math.inf, tol=0.0)
    _, embeds, _ = train(net.without_view(2), cfg)
    y = embeds.final
    ratios = (0.1, 0.3, 0.5)
    rows = {(r, m): v for _, r, s, m, v in evaluate.classification_report(y, net.labels, ratios, seeds=(0,))
            if s == "0"}
    for ratio in ratios:
        assert abs(rows[ratio, "micro_f1"] - _oracle.micro_f1(y, net.labels, ratio, 0)) <= METRIC_ATOL
    rows = {m: v for _, _, s, m, v in evaluate.link_prediction_report(net, y, 2, seeds=(0,)) if s == "0"}
    auc, ap, problems = _oracle.link_prediction(net, y, 2, 0)
    assert problems == []
    assert abs(rows["roc_auc"] - auc) <= METRIC_ATOL
    assert abs(rows["average_precision"] - ap) <= METRIC_ATOL
