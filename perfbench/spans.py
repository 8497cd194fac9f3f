"""In-memory span tracing of jdist's public functions, installed from outside.

A traced function is replaced, in every ``jdist`` module that holds a
reference to it, by a wrapper that records one span per call: name, start,
end, parent span and the operation it belongs to.  Spans stay in memory
until the caller takes them, after a pass, for the per-layer figures.

Each thread keeps its own parent stack.  A span opened on a thread with an
empty stack (a worker of the ``tables`` thread pool) takes as parent the
innermost open span of the thread that began the operation, which is
blocked waiting for the pool at that moment.

A generator function is timed across its consumption: its span runs from
the first ``next`` to exhaustion, but only the time spent inside the
generator counts as busy, and only that time is on the parent stack.

A span's self time is its busy time minus the part of its interval that
its child spans cover (the union, so children overlapping on different
threads are not counted twice).
"""

from __future__ import annotations

import functools
import itertools
import statistics
import sys
import threading
from time import perf_counter


class Span:
    __slots__ = ("name", "parent", "op", "start", "end", "busy", "info")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.op = parent.op if parent is not None else None  # operation label
        self.start = 0.0
        self.end = 0.0
        self.busy = None  # set for generators: time spent inside them
        self.info = None  # per-call figures read from arguments and result


# -- figures read from a traced call -----------------------------------------


def _clique_info(args, result):
    return {"expansions": result.expansions, "optimal": int(result.optimal)}


def _universe_info(args, result):
    vertices = result.size
    edges = sum(mask.bit_count() for mask in result.adjacency) // 2
    return {"vertices": vertices, "pairs": vertices * (vertices - 1) // 2, "edges": edges}


def _verify_info(args, result):
    points = len(args[0])
    return {"points": points, "pairs": points * (points - 1) // 2}


def _length_info(args, result):
    return {"out": len(result)}


def _truth_info(args, result):
    return {"true": int(bool(result))}


# (module, function, figure reader or "generator")
TRACED = (
    ("jdist.cli", "run", None),
    ("jdist.maximality", "classify", None),
    ("jdist.maximality", "build_universe", _universe_info),
    ("jdist.maximality", "max_clique", _clique_info),
    ("jdist.maximality", "maximal_clique_structure", None),
    ("jdist.maximality", "verify_point_set", _verify_info),
    ("jdist.families", "addable_families", _length_info),
    ("jdist.families", "enumerate_families", "generator"),
    ("jdist.families", "is_addable", _truth_info),
    ("jdist.numbertheory", "is_extendable", None),
    ("jdist.spectra", "cross_family_spectrum", None),
    ("jdist.spectra", "johnson_family_spectrum", None),
    ("jdist.subjohnson", "solve_sub_families", None),
    ("jdist.subjohnson", "combination_search", None),
    ("jdist.subjohnson", "congruent", None),
    ("jdist.subjohnson", "union_points", None),
    ("jdist.exactnum", "parse_quad", None),
    ("jdist.exactnum", "solve_quadratic", None),
)

# per-layer metric -> unit; the order is the order of the report
PER_LAYER = {
    "maximality.max_clique.self_s": "s",
    "maximality.max_clique.expansions": "count",
    "maximality.max_clique.expansions_per_s": "1/s",
    "maximality.max_clique.optimal": "ratio",
    "maximality.build_universe.self_s": "s",
    "maximality.build_universe.vertices": "count",
    "maximality.build_universe.pairs": "count",
    "maximality.build_universe.edge_density": "ratio",
    "maximality.verify_point_set.self_s": "s",
    "maximality.verify_point_set.points": "count",
    "maximality.verify_point_set.pairs_per_s": "1/s",
    "maximality.classify.self_s": "s",
    "maximality.maximal_clique_structure.self_s": "s",
    "families.addable_families.self_s": "s",
    "families.addable_families.families_out": "count",
    "families.enumerate_families.self_s": "s",
    "families.enumerate_families.families_out": "count",
    "families.is_addable.calls": "count",
    "families.is_addable.self_s": "s",
    "families.is_addable.true_ratio": "ratio",
    "numbertheory.is_extendable.calls": "count",
    "numbertheory.is_extendable.self_s": "s",
    "spectra.cross_family_spectrum.calls": "count",
    "spectra.cross_family_spectrum.self_s": "s",
    "spectra.johnson_family_spectrum.calls": "count",
    "spectra.johnson_family_spectrum.self_s": "s",
    "subjohnson.solve_sub_families.calls": "count",
    "subjohnson.solve_sub_families.self_s": "s",
    "subjohnson.combination_search.calls": "count",
    "subjohnson.combination_search.self_s": "s",
    "subjohnson.congruent.calls": "count",
    "subjohnson.congruent.self_s": "s",
    "subjohnson.union_points.calls": "count",
    "subjohnson.union_points.self_s": "s",
    "exactnum.parse_quad.calls": "count",
    "exactnum.parse_quad.self_s": "s",
    "exactnum.solve_quadratic.calls": "count",
    "exactnum.solve_quadratic.self_s": "s",
    "exactnum.quadnum_new": "count",
    "cli.run.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


class Tracer:
    """Records spans of the functions in ``TRACED`` while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._op_stack: list[Span] = []
        self._quad_news = itertools.count()  # next() is atomic across threads
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name) -> tuple[list[Span], Span]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._op_stack[-1] if self._op_stack else None
        return stack, Span(name, parent)

    def begin_op(self, label: str) -> None:
        """Open the root span of one operation on the calling thread."""
        stack, span = self._open("op")
        span.op = label
        self._op_stack = stack
        stack.append(span)
        span.start = perf_counter()

    def end_op(self) -> None:
        span = self._op_stack.pop()
        span.end = perf_counter()
        self.spans.append(span)

    def _wrap(self, name, func, reader):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack, span = tracer._open(name)
            stack.append(span)
            span.start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if reader is not None:
                span.info = reader(args, result)
            return result

        return traced

    def _wrap_generator(self, name, func):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack, span = tracer._open(name)
            span.busy = 0.0
            count = 0
            inner = func(*args, **kwargs)
            span.start = perf_counter()
            try:
                while True:
                    stack.append(span)
                    t0 = perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        span.busy += perf_counter() - t0
                        stack.pop()
                    count += 1
                    yield item
            finally:
                span.end = perf_counter()
                span.info = {"out": count}
                tracer.spans.append(span)

        return traced

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Replace every reference to a traced function in ``jdist.*``."""
        modules = [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "jdist"]
        for module_name, attr, reader in TRACED:
            original = getattr(sys.modules[module_name], attr)
            name = module_name.split(".", 1)[1] + "." + attr
            if reader == "generator":
                wrapped = self._wrap_generator(name, original)
            else:
                wrapped = self._wrap(name, original, reader)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, value))
                        setattr(module, key, wrapped)

        quad = sys.modules["jdist.exactnum"].QuadNum
        original_init = quad.__init__
        counter = self._quad_news

        @functools.wraps(original_init)
        def counted_init(self, *args, **kwargs):
            next(counter)
            original_init(self, *args, **kwargs)

        self._patches.append((quad, "__init__", original_init))
        quad.__init__ = counted_init

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches.clear()

    def quadnum_mark(self) -> int:
        return next(self._quad_news)

    # -- figures -----------------------------------------------------------

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time per span (keyed by ``id``): busy time minus child coverage."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(id(span.parent), []).append(span)
    out = {}
    for span in spans:
        busy = span.busy if span.busy is not None else span.end - span.start
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(id(span), ()), key=lambda s: s.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[id(span)] = max(0.0, busy - covered)
    return out


def pass_figures(
    spans: list[Span], quadnum_new: int, by_op: dict[tuple[str, str], list]
) -> dict[str, float]:
    """Per-layer figures for the spans of one pass.

    Also adds each span's call and self time to ``by_op[(operation, name)]``.
    """
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    info: dict[str, dict[str, int]] = {}
    for span in spans:
        calls[span.name] = calls.get(span.name, 0) + 1
        self_s[span.name] = self_s.get(span.name, 0.0) + selfs[id(span)]
        entry = by_op.setdefault((span.op, span.name), [0, 0.0])
        entry[0] += 1
        entry[1] += selfs[id(span)]
        if span.info:
            acc = info.setdefault(span.name, {})
            for key, value in span.info.items():
                acc[key] = acc.get(key, 0) + value

    def ratio(a, b):
        return a / b if b else 0.0

    clique = info.get("maximality.max_clique", {})
    universe = info.get("maximality.build_universe", {})
    verify = info.get("maximality.verify_point_set", {})
    out = {}
    for metric in PER_LAYER:
        layer, _, figure = metric.rpartition(".")
        if figure == "self_s":
            out[metric] = self_s.get(layer, 0.0)
        elif figure == "calls":
            out[metric] = calls.get(layer, 0)
    out.update(
        {
            "maximality.max_clique.expansions": clique.get("expansions", 0),
            "maximality.max_clique.expansions_per_s": ratio(
                clique.get("expansions", 0), self_s.get("maximality.max_clique", 0.0)
            ),
            "maximality.max_clique.optimal": ratio(
                clique.get("optimal", 0), calls.get("maximality.max_clique", 0)
            ),
            "maximality.build_universe.vertices": universe.get("vertices", 0),
            "maximality.build_universe.pairs": universe.get("pairs", 0),
            "maximality.build_universe.edge_density": ratio(
                universe.get("edges", 0), universe.get("pairs", 0)
            ),
            "maximality.verify_point_set.points": verify.get("points", 0),
            "maximality.verify_point_set.pairs_per_s": ratio(
                verify.get("pairs", 0), self_s.get("maximality.verify_point_set", 0.0)
            ),
            "families.addable_families.families_out": info.get(
                "families.addable_families", {}
            ).get("out", 0),
            "families.enumerate_families.families_out": info.get(
                "families.enumerate_families", {}
            ).get("out", 0),
            "families.is_addable.true_ratio": ratio(
                info.get("families.is_addable", {}).get("true", 0),
                calls.get("families.is_addable", 0),
            ),
            "exactnum.quadnum_new": quadnum_new,
        }
    )
    return out


def median_figures(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
