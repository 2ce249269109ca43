"""The benchmark's trace seam: every span target in `perfbench/spans.py`
must resolve on the library, so that a rename fails here rather than
leaving `--trace 1` silently without that span.  The file is only
read."""

import importlib
from pathlib import Path
from types import SimpleNamespace

SPANS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    """spans.py executed from its text, so no bytecode is written beside it."""
    namespace = {"__name__": "perfbench_spans"}
    exec(compile(SPANS_PY.read_text(), str(SPANS_PY), "exec"), namespace)
    return SimpleNamespace(**namespace)


def test_every_span_target_resolves():
    spans = load_spans()
    assert spans.SPANS
    for name, module_name, path in spans.SPANS:
        owner = importlib.import_module(module_name)
        if "." in path:
            # methods are patched in their class's own namespace
            cls_name, attr = path.split(".")
            assert attr in vars(getattr(owner, cls_name)), name
        else:
            assert callable(getattr(owner, path, None)), name


def test_lift_spans_are_span_targets():
    spans = load_spans()
    assert spans.LIFTS <= set(spans.SPAN_NAMES)
