"""The benchmark tracer wraps rgae functions by module and attribute name.

A rename inside the package, or a training path that stops calling a wrapped
function, would only surface when a traced benchmark runs; resolving every
wrapped name and firing every training and evaluation span here makes it
fail in the test suite instead.
"""

import importlib
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from rgae import evaluate, trainer
from rgae.synth import SynthConfig, generate
from rgae.trainer import TrainConfig

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
_spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
_spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_spans)
TARGETS = _spans.TARGETS

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
    assert tracer.calls["evaluate.logistic_ovr_train"] == len(ratios) * len(seeds)
    assert tracer.counts[("evaluate.logistic_ovr_train", "fits")] == fits
    assert tracer.calls["evaluate.sample_negatives"] == len(seeds)
