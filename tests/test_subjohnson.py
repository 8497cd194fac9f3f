"""Fixed-last-axis setting: solved families, combinations, congruence."""

import inspect
import itertools
import random
import sys
from fractions import Fraction as F

import pytest

import jdist.exactnum
import jdist.subjohnson
from familyref import johnson_points
from jdist.exactnum import IntPointSet, QuadNum, squarefree_decompose
from jdist.families import Parameters
from jdist.subjohnson import (
    TWO_DISTANCE,
    CombinationReport,
    FamilyCombination,
    SubFamily,
    _distance_form,
    _vanishes,
    combination_search,
    congruent,
    overlap_range,
    solve_sub_families,
    sq_dist_points,
    sub_johnson_points,
    sub_johnson_size,
    union_points,
)
from quadref import add, mul, neg, sqrt, sub_sq_dist


def by_label(n):
    return {f.label: f for f in solve_sub_families(n)}


def test_sub_johnson_points():
    pts = list(sub_johnson_points(5))
    assert len(pts) == 6
    assert all(p[-1] == 0 and sum(p) == 2 for p in pts)
    assert len(list(sub_johnson_points(8))) == 21
    assert len(list(sub_johnson_points(17))) == 120
    with pytest.raises(ValueError):
        list(sub_johnson_points(4))


def test_overlap_range():
    assert list(overlap_range(9, 0)) == [2]
    assert list(overlap_range(9, 1)) == [1, 2]
    assert list(overlap_range(9, 7)) == [0, 1]
    assert list(overlap_range(9, 4)) == [0, 1, 2]


def test_sub_sq_dist_examples():
    # the n = 9 single-shape family with repeated coordinate 1/3 has a = 4/3
    assert sub_sq_dist(9, 0, F(4, 3), 2) == 2
    assert sub_sq_dist(8, 6, F(1, 2), 0) == 2
    assert sub_sq_dist(8, 6, F(1, 2), 1) == 4
    assert sub_sq_dist(20, 18, 0, 0) == 12  # (n-k+1)(n-k+2) = 3 * 4
    with pytest.raises(ValueError):
        sub_sq_dist(9, 0, F(4, 3), 0)


def test_sub_sq_dist_against_points():
    # formula versus literal coordinates for a radical family
    fam = by_label(7)["S4+"]
    x = tuple([1, 1] + [0] * 5)
    for point in fam.points():
        d = sq_dist_points(x, point)
        overlap = sum(1 for a, b in zip(x, point) if a == 1 and b == fam.low)
        assert d == sub_sq_dist(7, fam.k, fam.a, overlap)


def test_solved_families_printed_forms():
    fams9 = by_label(9)
    assert fams9["S1+"].points() == ((F(1, 3),) * 8 + (F(-2, 3),),)
    assert fams9["S1-"].points() == ((F(1, 6),) * 8 + (F(2, 3),),)
    s3 = fams9["S3+"]
    assert s3.a == F(5, 4) and s3.b == -1
    s4 = fams9["S4-"]
    assert s4.a == F(1, 3) and s4.b == F(1, 3)

    fams8 = by_label(8)
    assert fams8["S2+"].points() == ((F(1, 2),) * 7 + (F(-3, 2),),)
    assert fams8["S2-"].points() == ((F(1, 14),) * 7 + (F(3, 2),),)

    root17 = sqrt(17)
    s1 = by_label(17)["S1+"]
    assert s1.low == add(s1.a, -1) == mul(add(34, mul(root17, 2)), F(1, 272))
    assert s1.b == mul(root17, F(-2, 17))


def test_family_census_by_n():
    assert [f.label for f in solve_sub_families(9)] == [
        "S1+", "S1-", "S2+", "S2-", "S3+", "S3-", "S4+", "S4-",
    ]
    # the almost-full-run discriminant 4n(10-n) kills S4 past n = 10 and
    # merges the branches at n = 10
    assert [f.label for f in solve_sub_families(10)] == [
        "S1+", "S1-", "S2+", "S2-", "S3+", "S3-", "S4+",
    ]
    assert [f.label for f in solve_sub_families(11)] == [
        "S1+", "S1-", "S2+", "S2-", "S3+", "S3-",
    ]


def reference_families(n):
    """(label, a, b) of every family, solved in the ring arithmetic of
    quadref: both roots from sqrt, b = (n-k+1) - (n-1)a, and each overlap
    checked through sub_sq_dist."""
    out = []
    for kind, k, first_target in ((1, 0, 2), (2, 0, 4), (3, 1, 2), (4, n - 2, 2)):
        overlaps = overlap_range(n, k)
        coeff_a, coeff_b = n * (n - 1), -2 * n * (n - k + 1)
        coeff_c = (n - k + 1) * (n - k + 2) + 2 * overlaps[0] - first_target
        disc = F(coeff_b * coeff_b - 4 * coeff_a * coeff_c)
        if disc < 0:
            continue
        root = sqrt(disc)
        minus = mul(add(-coeff_b, neg(root)), F(1, 2 * coeff_a))
        plus = mul(add(-coeff_b, root), F(1, 2 * coeff_a))
        for sign, a in [("+", plus)] if minus == plus else [("+", plus), ("-", minus)]:
            for i2 in overlaps:
                assert sub_sq_dist(n, k, a, i2) == first_target + 2 * (i2 - overlaps[0])
            out.append((f"S{kind}{sign}", a, add(n - k + 1, mul(a, 1 - n))))
    return sorted(out, key=lambda row: row[0])


def test_solve_matches_ring_arithmetic_reference():
    # the range holds the perfect-square discriminants (S3 and S4 at n = 5,
    # S2 at n = 8) and the one vanishing discriminant (S4 at n = 10)
    merged = []
    for n in [*range(5, 201), 1000]:
        got = [(f.label, f.a, f.b) for f in solve_sub_families(n)]
        assert got == reference_families(n), n
        labels = [label for label, _, _ in got]
        if "S4+" in labels and "S4-" not in labels:
            merged.append(n)
    assert merged == [10]
    rational = {n: {f.label for f in solve_sub_families(n) if f.a.is_rational()} for n in (5, 8)}
    assert {"S3+", "S3-", "S4+", "S4-"} <= rational[5] and {"S2+", "S2-"} <= rational[8]


def test_solve_checks_still_fail(monkeypatch):
    # a wrong square part of the discriminant gives roots that miss their
    # target, which the integer check catches
    def wrong_square(n):
        s, f = squarefree_decompose(n)
        return s + 1, f

    monkeypatch.setattr(jdist.subjohnson, "squarefree_decompose", wrong_square)
    with pytest.raises(AssertionError, match="S1[+] misses its target 2"):
        solve_sub_families(17)
    monkeypatch.undo()

    # the closed form fails on either part alone: at n = 17, S1+ has
    # d = a - 1 = (34 + 2 sqrt(17)) / 272 on the form at e = 2, target 2
    form = _distance_form(17, 2, 2)
    assert _vanishes(form, 34, 2, 17, 272)

    def value(p, q, f, r):
        d = QuadNum([(1, F(p, r)), (f, F(q, r))])
        quad, lin, const = form
        return add(mul(d, d, quad), mul(d, lin), const)

    # the roots' centre 34/272 zeroes the sqrt(17) part for any q, so a
    # wrong q leaves only the rational part to fail
    missed = value(34, 4, 17, 272)
    assert missed.is_rational() and missed
    assert not _vanishes(form, 34, 4, 17, 272)
    # the rational part depends on (x - x0)^2 + f y^2 only; moving the root
    # x0 + y sqrt(f) along that conic to (x0 - 2fy/(1+f), y(1-f)/(1+f))
    # leaves only the sqrt(17) part to fail
    moved = (34 * 18 - 2 * 17 * 2, 2 * (1 - 17), 17, 272 * 18)
    assert [rad for rad, _ in value(*moved).terms] == [17]
    assert not _vanishes(form, *moved)
    # a rational root misses by its rational part alone
    assert not _vanishes(form, 35, 0, 1, 272)


def test_middle_runs_admit_three_overlaps():
    for n in (6, 9, 12):
        for k in range(2, n - 2):
            assert len(overlap_range(n, k)) == 3


def test_families_on_hyperplane_and_sizes():
    for n in (5, 7, 9, 10):
        for fam in solve_sub_families(n):
            pts = fam.points()
            assert len(pts) == fam.size
            # one-slot and almost-full shapes have n - 1 points, not n
            if fam.kind in (3, 4):
                assert fam.size == n - 1
            else:
                assert fam.size == 1
            for p in pts:
                assert add(*p) == 2


def test_johnson_side_two_distance():
    for n in (6, 9):
        johnson = [tuple(QuadNum.of(c) for c in p) for p in sub_johnson_points(n)]
        for fam in solve_sub_families(n):
            for p in fam.points():
                for x in johnson:
                    assert sq_dist_points(x, p) in (QuadNum.of(2), QuadNum.of(4))


def test_combination_search_listed_unions():
    expected = {
        6: [(("S1+", "S4-"), 6, 16), (("S1-", "S4+"), 6, 16)],
        7: [(("S4+", "S4-"), 12, 27)],
        8: [(("S2+", "S4+"), 8, 29), (("S2-", "S4-"), 8, 29)],
        9: [(("S1+", "S3-", "S4-"), 17, 45), (("S1-", "S3+", "S4+"), 17, 45)],
        17: [(("S1+", "S2-"), 2, 122), (("S1-", "S2+"), 2, 122)],
    }
    for n, rows in expected.items():
        report = combination_search(n)
        found = {c.labels: c for c in report.combinations}
        for labels, added, total in rows:
            combo = found[labels]
            assert combo.added == added
            assert combo.total == total
            assert combo.maximal


def test_combination_search_disputed_totals():
    # the two reference brackets that fail simple re-addition; recomputed
    # totals win and the unions still verify as two-distance sets
    report5 = combination_search(5)
    combo = {c.labels: c for c in report5.combinations}[("S1+", "S1-")]
    assert combo.added == 2 and combo.total == 8

    report9 = combination_search(9)
    combo = {c.labels: c for c in report9.combinations}[("S1+", "S1-")]
    assert combo.added == 2 and combo.total == 30


def test_combination_mirror_closure():
    for n in (5, 6, 7, 8, 9, 10, 17):
        report = combination_search(n)
        valid = {c.labels for c in report.combinations}

        def mirrored(labels):
            flip = {"+": "-", "-": "+"}
            out = []
            for label in labels:
                kind, sign = label[:2], label[2]
                if n == 10 and kind == "S4":
                    out.append(label)  # self-mirrored merged branch
                else:
                    out.append(kind + flip[sign])
            return tuple(sorted(out))

        assert all(mirrored(labels) in valid for labels in valid)


@pytest.mark.parametrize("n", [5, 6, 7, 8, 9, 10, 11, 12, 17, 30, 64])
def test_combination_search_agrees_with_every_pair(n):
    # the search decides from one keyed pair per family pair and the overlap
    # identity; keying every pair of the materialized orbits gives the same
    # intra-family flags and compatible family pairs (kind 4 exists only for
    # n <= 10, with its branches merged at n = 10)
    report = combination_search(n)
    families = report.families
    exact = IntPointSet([p for f in families for p in f.points()])
    starts = list(itertools.accumulate((f.size for f in families), initial=0))

    def two_distance(i, j):
        return all(
            exact.value_of(key) in TWO_DISTANCE
            for a in range(starts[i], starts[i + 1])
            for key in set(exact.row_keys(a, max(a + 1, starts[j]), starts[j + 1]))
        )

    count = len(families)
    assert report.intra_valid == tuple(two_distance(i, i) for i in range(count))
    usable = [i for i in range(count) if report.intra_valid[i]]
    pairs = {
        (families[i].label, families[j].label)
        for i, j in itertools.combinations(usable, 2)
        if two_distance(i, j)
    }
    assert {c.labels for c in report.combinations if len(c.labels) == 2} == pairs
    if n == 6:
        # a usable pair over two different irrational radicands, refused
        # before any form is tested, stays covered by the oracle
        radicand = {f.label: f.a.terms[-1][0] for f in families}
        assert (radicand["S1+"], radicand["S2+"]) == (6, 21)
        assert {"S1+", "S2+"} <= {families[i].label for i in usable}


def test_combination_search_materializes_no_orbit(monkeypatch, capsys):
    from jdist.cli import main

    def refuse(self):
        raise AssertionError(f"{self.label} materialized")

    expected = combination_search(17)
    monkeypatch.setattr(SubFamily, "points", refuse)
    assert combination_search(17) == expected
    assert main(["sub2", "17"]) == 0
    assert "S1+ + S2-: [122]  PASS" in capsys.readouterr().out


def reference_combination_search(n):
    """The subset walk before family masks: every usable subset whose pairs
    all fit, then maximal unless adding one more usable family gives a
    subset in that list.  The pair test is the one-pair-per-family-pair
    test of :func:`combination_search`."""
    families = solve_sub_families(n)
    allowed = set(TWO_DISTANCE)
    intra = tuple(allowed.issuperset(range(2, 2 * min(f.k, n - f.k - 1) + 1, 2)) for f in families)
    usable = [i for i, ok in enumerate(intra) if ok]

    def two_distance(i, j):
        one, two = families[i], families[j]
        if one.q and two.q and one.f != two.f:
            return False
        k, k2 = one.k, two.k
        steps = range(min(k, k2) - max(0, k + k2 - n + 1) + 1)
        starts = [d for d in TWO_DISTANCE if allowed.issuperset(d + 2 * s for s in steps)]
        p, q = one.p * two.r - two.p * one.r, one.q * two.r - two.q * one.r
        f, r = one.f if one.q else two.f, one.r * two.r
        return any(_vanishes(_distance_form(n, k2 - k, t), p, q, f, r) for t in starts)

    compatible = {(i, j): two_distance(i, j) for i, j in itertools.combinations(usable, 2)}
    valid_sets = [
        subset
        for r in range(1, len(usable) + 1)
        for subset in itertools.combinations(usable, r)
        if all(compatible[pair] for pair in itertools.combinations(subset, 2))
    ]
    valid_lookup = set(valid_sets)
    combos = []
    for subset in valid_sets:
        extendable = any(
            other not in subset and tuple(sorted(subset + (other,))) in valid_lookup
            for other in usable
        )
        added = sum(families[i].size for i in subset)
        labels = tuple(families[i].label for i in subset)
        combos.append(FamilyCombination(labels, added, sub_johnson_size(n) + added, not extendable))
    combos.sort(key=lambda c: (-c.added, c.labels))
    return CombinationReport(n, tuple(families), intra, tuple(combos))


@pytest.mark.parametrize("n", [*range(5, 65), 100, 200, 1000])
def test_combination_search_matches_the_pairwise_reference(n):
    # the family masks decide validity and maximality as the pairwise
    # enumeration with its sorted-tuple maximality probe does
    report, expected = combination_search(n), reference_combination_search(n)
    assert report.n == expected.n
    assert report.families == expected.families
    assert report.intra_valid == expected.intra_valid
    assert report.combinations == expected.combinations


def test_combination_search_and_reference_refuse_n4():
    for search in (combination_search, reference_combination_search):
        with pytest.raises(ValueError):
            search(4)


def test_combination_unions_verify():
    from jdist.maximality import verify_point_set

    for n in (5, 6, 8, 9):
        report = combination_search(n)
        for combo in report.combinations:
            if not combo.maximal:
                continue
            pts = union_points(n, combo.labels)
            assert len(pts) == combo.total
            ok, spectrum = verify_point_set(pts, 2, johnson=True)
            assert ok
            assert set(spectrum) <= {QuadNum.of(2), QuadNum.of(4)}


def test_congruent_examples():
    ref = johnson_points(Parameters(7, 2))
    assert congruent(union_points(7, ["S3+"]), ref)
    assert congruent(union_points(7, ["S3-"]), ref)
    assert congruent(union_points(9, ["S1+"]), union_points(9, ["S1-"]))
    assert not congruent(
        union_points(9, ["S1+"]), union_points(9, ["S1+", "S1-"])
    )  # size mismatch
    assert not congruent(union_points(6, ["S3+"]), union_points(6, ["S4+"]))
    # a zero-padded copy lives in a larger dimension but is the same set
    padded = [(*p, 0, 0) for p in ref]
    assert congruent(ref, padded)
    assert congruent(padded, union_points(7, ["S3+"]))

    # both sets must be keyed over one scale: doubling halves the even
    # denominators (4, and 42 with sqrt(21)), the shift adds the denominator 11
    for points in (union_points(9, ["S3+"]), union_points(7, ["S4+"])):
        doubled = [tuple(mul(2, c) for c in p) for p in points]
        shifted = [tuple(add(c, F(i + 1, 11)) for i, c in enumerate(p)) for p in points]
        assert not congruent(points, doubled)
        assert congruent(points, shifted)


def test_congruent_n5_bridge():
    assert congruent(union_points(5, ["S3+"]), union_points(5, ["S4+"]))
    assert congruent(union_points(5, ["S3-"]), union_points(5, ["S4-"]))


def test_congruent_depth_is_not_bounded_by_the_recursion_limit():
    # one Python frame per matched point would overflow 200 frames of headroom
    points = johnson_points(Parameters(30, 2))[:400]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 200)
    try:
        assert congruent(points, points[::-1])
    finally:
        sys.setrecursionlimit(limit)


def sub2_unions(n):
    """The sub2 unions of n: every combination of solved families."""
    return [c.labels for c in combination_search(n).combinations]


def test_congruent_shuffled_and_moved_unions():
    rng = random.Random(5678)
    for n in range(5, 9):
        for labels in sub2_unions(n):
            points = union_points(n, labels)
            # reordering the points and permuting the first n-1 axes (the
            # symmetry of the representation) is an isometry
            axes = rng.sample(range(n - 1), n - 1) + [n - 1]
            shuffled = [tuple(p[i] for i in axes) for p in rng.sample(points, len(points))]
            assert congruent(points, shuffled), (n, labels)
            assert congruent(shuffled, points), (n, labels)

            # swapping the last coordinate of one family point with a
            # different one of the first n-1 moves it off its orbit, which
            # only permutes those; its norm stays the same
            moved = list(points)
            pos = rng.randrange(sub_johnson_size(n), len(points))
            p = list(moved[pos])
            slot = rng.choice([i for i in range(n - 1) if p[i] != p[-1]])
            p[slot], p[-1] = p[-1], p[slot]
            moved[pos] = tuple(p)
            assert not congruent(points, moved), (n, labels, pos, slot)
            assert not congruent(moved, points), (n, labels, pos, slot)


def test_congruent_listed_mirror_pairs():
    for n in range(5, 9):
        labels = {f.label for f in solve_sub_families(n)}
        for kind in (1, 2, 3, 4):
            plus, minus = f"S{kind}+", f"S{kind}-"
            assert plus in labels and minus in labels, (n, kind)
            assert congruent(union_points(n, [plus]), union_points(n, [minus])), (n, kind)
    # the two listed maximal unions of n = 6 and of n = 8 mirror each other
    listed = {6: (("S1+", "S4-"), ("S1-", "S4+")), 8: (("S2+", "S4+"), ("S2-", "S4-"))}
    for n, (first, second) in listed.items():
        assert congruent(union_points(n, first), union_points(n, second)), n
