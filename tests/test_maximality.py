"""Compatibility universes, clique search, classification, verification."""

import dataclasses
import random
import sys
import time
from array import array
from fractions import Fraction as F

import pytest

from familyref import fraction_points, johnson_points
from jdist import maximality
from jdist.cli import _classify_record
from jdist.exactnum import QuadNum
from jdist.families import (
    CandidateFamily,
    Parameters,
    addable_families,
)
from jdist.maximality import (
    CandidateUniverse,
    MaxCliqueResult,
    UniverseTooLarge,
    build_universe,
    classify,
    family_pass,
    four_distance_witness_points,
    max_clique,
    maximal_clique_structure,
    verify_point_set,
)
from jdist.numbertheory import max_extendable_n


def universe_of(params, cap=maximality.DEFAULT_CAP):
    """The universe of an instance, built from its family pass as ``classify`` does."""
    return build_universe(family_pass(params), cap)


def test_build_universe_9_2_complete():
    u = universe_of(Parameters(9, 2))
    assert u.size == 9
    assert not any(u.conflicts)


def test_build_universe_8_4_complete():
    u = universe_of(Parameters(8, 4))
    assert u.size == 57
    assert not any(u.conflicts)


def test_build_universe_9_3_pair_structure():
    u = universe_of(Parameters(9, 3))
    assert u.size == 73
    center = (3,) * 9  # (1/3, ..., 1/3), scaled by n
    center_idx = u.scaled.index(center)
    full = (1 << u.size) - 1
    assert u.adjacency[center_idx] == full ^ (1 << center_idx)
    # every other vertex is incompatible with exactly its reflection
    # through the center, at squared distance 8 (8 * 9**2 scaled)
    pairs = 0
    for i, p in enumerate(u.scaled):
        if i == center_idx:
            continue
        partner = tuple(2 * a - b for a, b in zip(center, p))
        missing = full ^ u.adjacency[i] ^ (1 << i)
        assert missing.bit_count() == 1
        j = missing.bit_length() - 1
        assert u.scaled[j] == partner
        d = sum((a - b) ** 2 for a, b in zip(p, partner))
        assert d == 8 * 81
        pairs += 1
    assert pairs == 72


def _lanes(values):
    """One big integer holding ``values`` (each below 2**32) in 32-bit lanes."""
    return int.from_bytes(array("I", values).tobytes(), sys.byteorder)


def brute_force_conflicts(universe, params):
    """Conflict masks from the squared distance of every vertex pair, with
    no use of the orbits.

    Row i holds |p_i|^2 + |p_j|^2 - 2 p_i.p_j for all j at once: coordinates
    are shifted to be non-negative (a shift keeps distances), each
    coordinate column is packed into 32-bit lanes, and since every lane's
    value lies in [0, 2**32) the packed sum reads back lane by lane.
    """
    n = params.n
    harmless = {0} | {v * n * n for v in params.allowed_sq_dists()}
    low = min((min(p) for p in universe.scaled), default=0)
    points = [[c - low for c in p] for p in universe.scaled]
    norms = [sum(c * c for c in p) for p in points]
    assert 4 * max(norms, default=0) < 2**32  # no lane overflows
    size = len(points)
    columns = [_lanes(column) for column in zip(*points)]
    packed_norms, ones = _lanes(norms), _lanes([1] * size)
    conflicts = []
    for p, norm in zip(points, norms):
        packed = norm * ones + packed_norms - 2 * sum(c * col for c, col in zip(p, columns))
        sq_dists = array("I", packed.to_bytes(4 * size, sys.byteorder))
        mask = 0
        if not all(map(harmless.__contains__, sq_dists)):
            for j, d in enumerate(sq_dists):
                if d not in harmless:
                    mask |= 1 << j
        conflicts.append(mask)
    return tuple(conflicts)


def small_instances(max_points=3000):
    """Every (n, m) with m in 2..6 whose addable families hold 1..max_points points."""
    for m in range(2, 7):
        for n in range(2 * m, max_extendable_n(m) + 1):
            total = sum(f.size for f in addable_families(Parameters(n, m)))
            if 0 < total <= max_points:
                yield n, m


def test_orbit_built_conflicts_match_all_pairs():
    instances = list(small_instances())
    assert {(9, 3), (9, 4), (18, 5), (27, 6)} <= set(instances)
    for n, m in instances:
        u = universe_of(Parameters(n, m))
        assert u.conflicts == brute_force_conflicts(u, Parameters(n, m)), (n, m)

    # the oracle itself, against the plain squared distance on (9, 4)
    graph = family_pass(Parameters(9, 4))
    u = build_universe(graph, maximality.DEFAULT_CAP)
    conflicts = brute_force_conflicts(u, Parameters(9, 4))
    for i, p in enumerate(u.scaled):
        for j, q in enumerate(u.scaled):
            d = sum((a - b) ** 2 for a, b in zip(p, q))
            assert (conflicts[i] >> j & 1) == (d not in {0, 162, 324, 486, 648}), (i, j)

    # (9, 4) conflicts inside the 252-point orbit and across to the deep orbit
    family_of = {p: fam.counts for fam in graph.families for p in fam.scaled_points()}
    kinds = set()
    for i, mask in enumerate(u.conflicts):
        for j in range(u.size):
            if mask >> j & 1:
                kinds.add((family_of[u.scaled[i]], family_of[u.scaled[j]]))
    assert kinds == {
        ((2, 6, 1), (2, 6, 1)),
        ((2, 6, 1), (8, 0, 1)),
        ((8, 0, 1), (2, 6, 1)),
    }
    assert sum(mask.bit_count() for mask in u.conflicts) // 2 == 2016


def test_universe_caps_conflict_edges():
    # n = 9, m = 4: 306 points and 2,016 conflict edges
    with pytest.raises(UniverseTooLarge, match="2016 conflict edges exceed the cap 2015"):
        universe_of(Parameters(9, 4), cap=2015)
    assert universe_of(Parameters(9, 4), cap=2016).size == 306


def test_classify_reports_over_the_edge_cap_quickly():
    # 523,260 and about 15.5 million conflict edges, under the point cap
    for (n, m), points, lower in (((18, 6), 18667, 306), ((16, 7), 45616, 1680)):
        start = time.perf_counter()
        r = classify(Parameters(n, m))
        assert time.perf_counter() - start < 5.0
        assert r.graph.size == points
        assert r.graph.conflicts and not r.optimal
        assert r.added_count == lower
        assert r.capped


def test_classify_32_7_is_a_perfect_matching():
    start = time.perf_counter()
    r = classify(Parameters(32, 7))
    assert time.perf_counter() - start < 5.0
    assert r.graph.size == 32 + 14880 + 992
    assert r.added_count == 32 + 14880 + 496 == 15408
    assert r.optimal and not r.capped
    i = [(f.offset, f.counts) for f in r.graph.families].index((-8, (1, 30, 0, 1)))
    assert r.graph.conflicts == ((i, i),)
    s = r.clique_structure
    assert (s.size, s.count) == (15408, 2**496)


def test_universe_cap():
    with pytest.raises(UniverseTooLarge):
        universe_of(Parameters(9, 3), cap=10)


def test_classify_degrades_above_cap():
    # a conflicting universe over the cap falls back to spectrum-level
    # verification; the cardinality becomes a single-family lower bound
    r = classify(Parameters(9, 4), cap=100)
    assert r.graph.conflicts and not r.optimal
    assert r.added_count == 36  # the largest orbit that is two-distance on its own
    assert r.maximal_set_cardinality == 126 + 36
    assert r.capped


def test_classify_computes_each_family_spectrum_once(monkeypatch):
    calls = {"addable": 0, "cross": 0, "johnson": 0}

    def counted(name, function):
        def call(*args):
            calls[name] += 1
            return function(*args)

        return call

    for name, attr in (
        ("addable", "addable_families"),
        ("cross", "cross_family_spectrum"),
        ("johnson", "johnson_family_spectrum"),
    ):
        monkeypatch.setattr(maximality, attr, counted(name, getattr(maximality, attr)))
    # over the point cap, over the edge cap, within both caps, over the edge
    # cap with one single-point family: one family pass serves the cap
    # fallback, the universe build and the JSON record
    for params, cap, cross, johnson in (
        (Parameters(9, 4), 100, 10, 4),
        (Parameters(9, 4), 2015, 10, 4),
        (Parameters(9, 4), maximality.DEFAULT_CAP, 10, 4),
        (Parameters(9, 3), maximality.DEFAULT_CAP, 2, 2),
        (Parameters(32, 7), maximality.DEFAULT_CAP, 6, 3),
        (Parameters(18, 6), maximality.DEFAULT_CAP, 5, 3),
    ):
        calls.update(addable=0, cross=0, johnson=0)
        report = classify(params, budget=0, cap=cap)
        expected = {"addable": 1, "cross": cross, "johnson": johnson}
        assert calls == expected, (params, cap)
        _classify_record(report, 0)
        assert calls == expected, (params, cap, "report record")


def test_max_clique_small():
    u = universe_of(Parameters(9, 2))
    result = max_clique(u)
    assert result.size == 9 and result.optimal

    r = classify(Parameters(12, 2))
    assert r.graph.size == 0 and r.added_count == 0 and r.optimal


def test_max_clique_9_3():
    u = universe_of(Parameters(9, 3))
    result = max_clique(u)
    assert result.size == 37 and result.optimal
    assert max_clique(u) == result  # deterministic

    structure = maximal_clique_structure(u)
    assert structure is not None
    assert structure.size == 37
    assert structure.count == 2**36
    assert all(mask & (mask - 1) == 0 for mask in u.conflicts)  # the conflicts form a matching

    # (9, 4) has vertices with several conflicts: no structure is claimed
    assert maximal_clique_structure(universe_of(Parameters(9, 4))) is None


def test_max_clique_invariant_under_relabelling():
    u = universe_of(Parameters(9, 3))
    rng = random.Random(11)
    perm = list(range(u.size))
    rng.shuffle(perm)
    position = {old: new for new, old in enumerate(perm)}
    conflicts = [0] * u.size
    for old in range(u.size):
        mask = 0
        probe = u.conflicts[old]
        while probe:
            j = (probe & -probe).bit_length() - 1
            probe &= probe - 1
            mask |= 1 << position[j]
        conflicts[position[old]] = mask
    shuffled = dataclasses.replace(u, conflicts=tuple(conflicts))
    assert max_clique(shuffled).size == 37


def graph_universe(masks):
    """A universe whose compatibility graph is given by adjacency masks."""
    size = len(masks)
    full = (1 << size) - 1
    return CandidateUniverse(
        tuple((i,) for i in range(size)),
        tuple(full ^ mask ^ (1 << i) for i, mask in enumerate(masks)),
    )


def random_masks(rng, size, density, universal=()):
    masks = [0] * size
    for a in range(size):
        for b in range(a + 1, size):
            if a in universal or b in universal or rng.random() < density:
                masks[a] |= 1 << b
                masks[b] |= 1 << a
    return masks


def brute_clique_number(masks):
    """Largest clique by checking every vertex subset, built from the subset
    without its lowest vertex."""
    is_clique = [True] * (1 << len(masks))
    best = 0
    for subset in range(1, 1 << len(masks)):
        low = subset & -subset
        rest = subset ^ low
        v = low.bit_length() - 1
        is_clique[subset] = is_clique[rest] and masks[v] & rest == rest
        if is_clique[subset]:
            best = max(best, subset.bit_count())
    return best


def assert_clique(masks, vertices):
    assert list(vertices) == sorted(set(vertices))
    for i, v in enumerate(vertices):
        for u in vertices[i + 1 :]:
            assert masks[v] >> u & 1


def test_max_clique_budget_flag():
    # pentagon: clique number 2 but the coloring bound is 3, so the search
    # has to expand at least one node and a zero budget must truncate it
    edges = ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4))
    masks = [0] * 5
    for a, b in edges:
        masks[a] |= 1 << b
        masks[b] |= 1 << a
    pentagon = graph_universe(masks)
    full = max_clique(pentagon)
    assert full.size == 2 and full.optimal and full.upper_bound == 2
    truncated = max_clique(pentagon, budget=0)
    assert not truncated.optimal
    assert truncated.size == 2  # the greedy incumbent survives
    assert truncated.expansions == 1
    assert truncated.upper_bound == 3  # three root color classes


def test_max_clique_matches_brute_force_on_random_graphs():
    rng = random.Random(5)
    searched = 0
    for trial in range(60):
        size = rng.randint(1, 14)
        density = (0.2, 0.5, 0.7, 0.85, 0.95)[trial % 5]
        universal = set(rng.sample(range(size), rng.randint(0, size // 3))) if trial % 2 else set()
        masks = random_masks(rng, size, density, universal)
        omega = brute_clique_number(masks)
        universe = graph_universe(masks)

        result = max_clique(universe)
        assert result.optimal and result.size == omega == result.upper_bound
        assert_clique(masks, result.vertices)
        assert set(universal) <= set(result.vertices)
        assert max_clique(universe) == result  # deterministic

        if result.expansions:
            searched += 1
            budget = rng.randrange(result.expansions)
            truncated = max_clique(universe, budget=budget)
            assert truncated.expansions == budget + 1 and not truncated.optimal
            assert_clique(masks, truncated.vertices)
            assert truncated.size <= omega <= truncated.upper_bound
    assert searched >= 20


def reference_max_clique(universe, budget=maximality.DEFAULT_BUDGET):
    """``max_clique`` with the bound counted plainly: the same coloring,
    relabelling, incumbent, branching order and budget rule, with the live
    color classes counted as a set over the candidates at every node."""
    core = sum(1 << v for v, mask in enumerate(universe.conflicts) if mask)
    universal = [v for v, mask in enumerate(universe.conflicts) if not mask]
    order, colors = maximality._color_order(core, universe.conflicts)
    label = {v: i for i, v in enumerate(order)}
    conflict = [{label[u] for u in label if universe.conflicts[v] >> u & 1} for v in order]
    best = [label[v] for v in maximality._greedy_clique(core, universe.conflicts)]
    expansions = 0

    def expand(current, candidates):  # False once the budget is exhausted
        nonlocal best, expansions
        for v in sorted(candidates, reverse=True):
            if len(current) + len({colors[u] for u in candidates}) <= len(best):
                break
            expansions += 1
            if expansions > budget:
                return False
            candidates = candidates - {v}
            rest = candidates - conflict[v]
            if rest:
                if not expand(current + [v], rest):
                    return False
            elif len(current) + 1 > len(best):
                best = current + [v]
        return True

    optimal = expand([], set(range(len(order))))
    vertices = tuple(sorted(universal + [order[i] for i in best]))
    upper_bound = len(vertices) if optimal else len(universal) + (colors[-1] if colors else 0)
    return MaxCliqueResult(vertices, optimal, expansions, upper_bound)


def test_max_clique_traverses_like_the_reference_search():
    # the whole result must agree, so a wrong bound shows up in the
    # expansions and in which clique a truncated search returns
    rng = random.Random(14)
    truncated = 0
    for trial in range(200):
        size = rng.randint(1, 60)
        universal = set(rng.sample(range(size), rng.randint(0, size // 4))) if trial % 3 else set()
        masks = random_masks(rng, size, rng.uniform(0.05, 0.95), universal)
        universe = graph_universe(masks)
        full = max_clique(universe)
        assert full == reference_max_clique(universe)

        budget = rng.randrange(full.expansions + 1)
        assert max_clique(universe, budget=budget) == reference_max_clique(universe, budget)
        truncated += budget < full.expansions
    assert truncated >= 100


def test_max_clique_complete_and_edgeless_graphs():
    for size in (1, 2, 7, 14):
        complete = max_clique(graph_universe([((1 << size) - 1) ^ (1 << v) for v in range(size)]))
        assert complete.vertices == tuple(range(size))
        assert complete.optimal and complete.expansions == 0 and complete.upper_bound == size

        edgeless = max_clique(graph_universe([0] * size))
        assert edgeless.size == 1 and edgeless.optimal and edgeless.upper_bound == 1

    empty = max_clique(graph_universe([]))
    assert empty.vertices == () and empty.optimal
    assert empty.expansions == 0 and empty.upper_bound == 0


def test_max_clique_9_4_budget_speed():
    # regression guard on the open case: 100,000 expansions took about 10 s
    # with a recoloring at every node; the greedy incumbent already has 132
    # vectors, as many as the best known extension
    params = Parameters(9, 4)
    u = universe_of(params)
    start = time.perf_counter()
    result = max_clique(u, budget=100_000)
    assert time.perf_counter() - start < 3.0
    assert result.expansions == 100_001 and not result.optimal
    assert result.size == 132
    assert result.upper_bound == 45 + 163  # universal vertices + root color classes
    assert_clique(u.adjacency, result.vertices)


def test_classify_9_2():
    r = classify(Parameters(9, 2))
    assert [(f.offset, f.counts) for f in r.graph.families] == [(6, (8, 1))]
    assert r.graph.size == 9
    assert not r.graph.conflicts and r.optimal
    assert r.added_count == 9
    assert r.maximal_set_cardinality == 45


def test_classify_9_3():
    r = classify(Parameters(9, 3))
    assert r.graph.size == 73
    assert r.graph.conflicts
    assert r.added_count == 37 and r.optimal
    assert r.maximal_set_cardinality == 121
    assert r.clique_structure is not None
    assert r.clique_structure.size == 37


def test_classify_table_rows_complete():
    expectations = {
        (8, 4): (57, 127),
        (18, 4): (153, 3213),
        (25, 4): (25, 12675),
        (16, 5): (560, 4928),
        (18, 5): (2466, 11034),
        (25, 5): (601, 53731),
        (49, 5): (1176, 1908060),
    }
    for (n, m), (added, total) in expectations.items():
        r = classify(Parameters(n, m))
        assert not r.graph.conflicts, (n, m)
        assert r.added_count == added
        assert r.maximal_set_cardinality == total


def test_witness_points():
    points = four_distance_witness_points()
    assert len(points) == 258
    assert len(set(points)) == 258
    ok, spectrum = verify_point_set(points, 4, johnson=True)
    assert ok
    assert spectrum == (2, 4, 6, 8)


def test_witness_vectors_are_a_clique_of_the_9_4_universe():
    # the 132 added vectors are candidate points with no conflict among
    # them, so the 258-point set is a clique extension of J(9, 4)
    u = universe_of(Parameters(9, 4))
    index = {p: i for i, p in enumerate(u.scaled)}
    vertices = [index[p] for p in maximality._witness_vectors()]
    assert len(vertices) == len(set(vertices)) == 132
    chosen = sum(1 << v for v in vertices)
    assert all(u.conflicts[v] & chosen == 0 for v in vertices)


def test_classify_9_4_reports_open_conjecture():
    r = classify(Parameters(9, 4), budget=20_000)
    assert [(f.offset, f.counts) for f in r.graph.families] == [
        (-3, (1, 8)),
        (3, (7, 2)),
        (-3, (2, 6, 1)),
        (3, (8, 0, 1)),
    ]
    assert r.graph.size == 306
    assert r.added_count >= 132
    assert r.maximal_set_cardinality >= 258
    if not r.optimal:
        assert not r.capped  # the search budget ran out, not the cap
    payload = _classify_record(r, 20_000)
    assert payload["maximal_set_cardinality"] >= 258


def test_verify_point_set_examples():
    pts = list(johnson_points(Parameters(4, 2)))
    ok, spectrum = verify_point_set(pts, 2, johnson=True)
    assert ok and spectrum == (2, 4)

    full45 = list(johnson_points(Parameters(9, 2)))
    extra = CandidateFamily(Parameters(9, 2), 6, (8, 1))
    full45.extend(fraction_points(extra.scaled_points(), 9))
    assert len(full45) == 45
    ok, spectrum = verify_point_set(full45, 2, johnson=True)
    assert ok and spectrum == (2, 4)

    bad = list(johnson_points(Parameters(9, 3)))
    for offset, counts in ((6, (9,)), (-3, (1, 7, 1))):
        extra = CandidateFamily(Parameters(9, 3), offset, counts)
        bad.extend(fraction_points(extra.scaled_points(), 9))
    assert len(bad) == 84 + 1 + 72
    ok, spectrum = verify_point_set(bad, 3, johnson=True)
    assert not ok
    assert F(8) in spectrum


def test_verify_point_set_edge_cases():
    assert verify_point_set([], 1) == (True, ())
    assert verify_point_set([(F(1, 3), 2)], 1, johnson=True) == (True, ())
    # a coincident pair is not a distance
    ok, spectrum = verify_point_set([(1, 0), (1, 0), (0, 1)], 1)
    assert ok and spectrum == (2,) and type(spectrum[0]) is F
    # squared distances 5, 1 and (1 + sqrt2)^2 + 3 = 6 + 2*sqrt2
    points = [(QuadNum({2: 1}), 0), (0, QuadNum({3: 1})), (QuadNum({1: 1, 2: 1}), 0)]
    ok, spectrum = verify_point_set(points, 3)
    assert ok
    assert spectrum == (1, 5, QuadNum({1: 6, 2: 2}))
    assert isinstance(spectrum[2], QuadNum) and not spectrum[2].is_rational()
    assert not verify_point_set(points, 3, johnson=True)[0]


def test_verify_point_set_mixed_dimensions():
    with pytest.raises(ValueError):
        verify_point_set([(1, 0), (1, 0, 0)], 2)


def test_reported_sets_recheck():
    # every classification that claims completeness yields a verifiable set
    for n, m in ((9, 2), (8, 3), (8, 4)):
        r = classify(Parameters(n, m))
        pts = list(johnson_points(Parameters(n, m)))
        for f in r.graph.families:
            pts.extend(fraction_points(f.scaled_points(), n))
        ok, _ = verify_point_set(pts, m, johnson=True)
        assert ok
        assert len(pts) == r.maximal_set_cardinality

    # the searched case: the found clique joined to the Johnson points is a
    # genuine three-distance set of the reported cardinality
    u = universe_of(Parameters(9, 3))
    result = max_clique(u)
    pts = list(johnson_points(Parameters(9, 3)))
    pts.extend(tuple(F(c, 9) for c in u.scaled[v]) for v in result.vertices)
    ok, spectrum = verify_point_set(pts, 3, johnson=True)
    assert ok and len(pts) == 121
    assert spectrum == (2, 4, 6)
