"""The benchmark tracer wraps rgae functions by module and attribute name.

A rename inside the package, or a training path that stops calling a wrapped
function, would only surface when a traced benchmark runs; resolving every
wrapped name and firing every training span here makes it fail in the test
suite instead.
"""

import importlib
import importlib.util
import math
from pathlib import Path

import pytest

from rgae import trainer
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
