"""The benchmark's span tracer names jdist functions that this checkout defines."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_traced_names_resolve():
    # the traced bench pass wraps each (module, function) by name and counts
    # QuadNum constructions, so a renamed or deleted target breaks it
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TRACED
    for module_name, attr, _ in spans.TRACED:
        target = getattr(importlib.import_module(module_name), attr, None)
        assert callable(target), f"{module_name}.{attr}"
    assert isinstance(importlib.import_module("jdist.exactnum").QuadNum, type)
