"""The benchmark tracer wraps rgae functions by module and attribute name.

A rename inside the package would only surface when a traced benchmark runs;
resolving every wrapped name here makes it fail in the test suite instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
_spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
_spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_spans)
TARGETS = _spans.TARGETS


@pytest.mark.parametrize("span,module,attr", TARGETS, ids=[span for span, _, _ in TARGETS])
def test_traced_function_resolves(span, module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner), f"{span}: {module}.{attr} is not callable"
