"""The benchmark's span tracer names jdist functions that this checkout defines
and that its workloads reach."""

import importlib
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"

# traced names that no workload reaches yet, with the reason
UNREACHED = {
    # nothing in the package calls it since the fixed-axis solve went to
    # integers; ROADMAP item 9 drops it with its metrics
    "exactnum.solve_quadratic",
}


def load(name, path, monkeypatch):
    # registered first: the dataclass decorator looks its module up there
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve(monkeypatch):
    # the traced bench pass wraps each (module, function) by name and counts
    # QuadNum constructions, so a renamed or deleted target breaks it
    spans = load("perfbench_spans", SPANS, monkeypatch)
    assert spans.TRACED
    for module_name, attr, _ in spans.TRACED:
        target = getattr(importlib.import_module(module_name), attr, None)
        assert callable(target), f"{module_name}.{attr}"
    assert isinstance(importlib.import_module("jdist.exactnum").QuadNum, type)


def test_workloads_reach_every_traced_name(tmp_path, monkeypatch):
    # a traced function that no workload calls keeps its per-layer metrics
    # at 0, which reads as saved work; one checked pass of every workload
    # must open a span of each
    spans = load("perfbench_spans", SPANS, monkeypatch)
    workloads = load("perfbench_workloads", PERFBENCH / "workloads.py", monkeypatch)
    for module_name, _, _ in spans.TRACED:
        importlib.import_module(module_name)
    failures = []
    tracer = spans.Tracer()
    tracer.install()
    try:
        for workload in workloads.WORKLOADS:
            workloads.write_inputs(workload, tmp_path, 1)
            for op in workloads.operations(workload, tmp_path):
                error = op.check(op.call())
                if error is not None:
                    failures.append((op.label, error))
    finally:
        tracer.uninstall()
    assert failures == []
    opened = {span.name for span in tracer.take()}
    traced = {module_name.split(".", 1)[1] + "." + attr for module_name, attr, _ in spans.TRACED}
    assert sorted(traced - opened - UNREACHED) == []
    assert UNREACHED <= traced - opened  # an exemption that is reached goes
