"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Stated runtime bounds are asserted with wall-clock measurements.
"""

import itertools
import time
from contextlib import contextmanager
from fractions import Fraction as F

from familyref import candidate_families, johnson_points
from jdist.exactnum import QuadNum
from jdist.families import (
    Parameters,
    addable_families,
    contracted_counts,
    enumerate_families,
    exists_addable,
    scaled_base,
    scaled_johnson_points,
    _greedy_weight,
)
from jdist.maximality import (
    classify,
    four_distance_witness_points,
    verify_point_set,
)
from jdist.numbertheory import is_extendable, max_extendable_n, parity_check
from jdist.spectra import cross_family_spectrum, johnson_family_spectrum
from jdist.subjohnson import combination_search, congruent, solve_sub_families, union_points


@contextmanager
def criterion(number, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:>2}: FAIL  {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number:>2}: PASS  {description}  ({elapsed:.2f}s)")


def test_acceptance_01_two_distance_classification():
    with criterion(1, "m=2 classification: unique n=9 extension, none elsewhere"):
        start = time.perf_counter()
        report = classify(Parameters(9, 2))
        assert [(f.offset, f.counts) for f in report.graph.families] == [(6, (8, 1))]
        assert report.added_count == 9
        assert report.maximal_set_cardinality == 45
        assert not report.graph.conflicts and report.optimal
        for n in range(4, 21):
            if n == 9:
                continue
            assert addable_families(Parameters(n, 2)) == []
        assert time.perf_counter() - start < 5.0


def test_acceptance_02_three_distance_classification():
    with criterion(2, "m=3 classification: totals 64 and 121, all maximal cliques are 37"):
        start = time.perf_counter()
        r8 = classify(Parameters(8, 3))
        assert r8.maximal_set_cardinality == 64

        r9 = classify(Parameters(9, 3))
        assert r9.graph.size == 73
        assert r9.added_count == 37 and r9.optimal
        assert r9.maximal_set_cardinality == 121
        structure = r9.clique_structure
        assert structure is not None
        assert structure.size == 37
        assert structure.count == 2**36
        assert time.perf_counter() - start < 60.0


def test_acceptance_03_four_distance_table():
    with criterion(3, "m=4 table rows exact; 258-point witness verifies; conjecture open"):
        for n, added, total in ((8, 57, 127), (18, 153, 3213), (25, 25, 12675)):
            report = classify(Parameters(n, 4))
            assert not report.graph.conflicts, f"n={n} not verified all-addable"
            assert report.added_count == added
            assert report.maximal_set_cardinality == total

        witness = four_distance_witness_points()
        assert len(witness) == 258
        ok, spectrum = verify_point_set(witness, 4, johnson=True)
        assert ok and spectrum == (2, 4, 6, 8)

        report = classify(Parameters(9, 4), budget=20_000)
        assert report.added_count >= 132
        if not report.optimal:  # a lower bound from the budgeted search, not the cap
            assert not report.capped


def test_acceptance_04_five_distance_table():
    with criterion(4, "m=5 table rows exact via spectra, no materialization"):
        start = time.perf_counter()
        for n, added, total in (
            (16, 560, 4928),
            (18, 2466, 11034),
            (25, 601, 53731),
            (49, 1176, 1908060),
        ):
            report = classify(Parameters(n, 5))
            assert not report.graph.conflicts, f"n={n}: expected spectrum-level verification"
            assert report.added_count == added
            assert report.maximal_set_cardinality == total
        assert time.perf_counter() - start < 30.0


def test_acceptance_05_predicate_matches_search():
    with criterion(5, "extendability predicate == family search for m<=5, n<=60"):
        mismatches = [
            (n, m)
            for m in range(2, 6)
            for n in range(2 * m, 61)
            if is_extendable(n, m) != exists_addable(Parameters(n, m))
        ]
        assert mismatches == []


def test_acceptance_06_closed_form_maximum():
    with criterion(6, "closed-form largest extendable n matches scans for m=2..8"):
        assert [max_extendable_n(m) for m in (2, 3, 4, 5)] == [9, 9, 25, 49]
        for m in range(2, 9):
            closed = max_extendable_n(m)
            scanned = max(n for n in range(2 * m, closed + 51) if is_extendable(n, m))
            assert scanned == closed


def test_acceptance_07_parity_characterization():
    with criterion(7, "divisibility by the special factor == even product, n<=300"):
        for n in range(2, 301):
            for c in range(1, n):
                divides, even = parity_check(n, c)
                assert divides == even, (n, c)


def test_acceptance_08_contraction_properties():
    with criterion(8, "contraction drops: positive even peak change, square sum -2(l-2)"):
        checked = 0
        for m in range(2, 6):
            for n in range(2 * m, 31):
                for offset, counts, _, _ in enumerate_families(Parameters(n, m)):
                    depth = len(counts)
                    if depth < 3:
                        continue
                    peak = scaled_base(n, m, offset, counts)
                    peak += 2 * _greedy_weight(counts, m) * n
                    if peak % n or (peak // n) % 2:
                        continue  # the conditional suite covers even peaks
                    checked += 1
                    raw = contracted_counts(counts)
                    sq_before = sum(j * j * v for j, v in enumerate(counts, 1))
                    sq_after = sum(j * j * v for j, v in enumerate(raw, 1))
                    assert sq_before - sq_after == 2 * (depth - 2)
                    contracted_peak = (
                        n * (4 * offset + 3 * m - 4 * n + sq_after)
                        - offset * offset
                        + 2 * _greedy_weight(raw, m) * n
                    )
                    diff = peak - contracted_peak
                    assert diff % n == 0
                    drop = diff // n
                    assert drop > 0 and drop % 2 == 0, (n, m, offset, counts)
        assert checked > 20000


def test_acceptance_09_fixed_axis_combinations():
    with criterion(9, "fixed-last-axis unions reproduce the reference list; FLAG rows verify"):
        expected_exact = {
            6: {("S1+", "S4-"): (6, 16), ("S1-", "S4+"): (6, 16)},
            7: {("S4+", "S4-"): (12, 27)},
            8: {("S2+", "S4+"): (8, 29), ("S2-", "S4-"): (8, 29)},
            9: {("S1+", "S3-", "S4-"): (17, 45), ("S1-", "S3+", "S4+"): (17, 45)},
            17: {("S1+", "S2-"): (2, 122), ("S1-", "S2+"): (2, 122)},
        }
        for n, rows in expected_exact.items():
            report = combination_search(n)
            found = {c.labels: c for c in report.combinations}
            for labels, (added, total) in rows.items():
                combo = found[labels]
                assert combo.added == added and combo.total == total and combo.maximal

        # disputed reference brackets: [12] at n=5 and [28] for the first
        # n=9 row; recomputed totals are 8 and 30, and the unions verify
        flagged = {5: (("S1+", "S1-"), 8), 9: (("S1+", "S1-"), 30)}
        for n, (labels, recomputed) in flagged.items():
            report = combination_search(n)
            combo = {c.labels: c for c in report.combinations}[labels]
            assert combo.total == recomputed
            points = union_points(n, labels)
            assert len(points) == recomputed
            ok, spectrum = verify_point_set(points, 2, johnson=True)
            assert ok and set(spectrum) <= {QuadNum.of(2), QuadNum.of(4)}


def test_acceptance_10_spectra_against_materialized_points():
    with criterion(10, "profile/contingency spectra == brute force on points, n<=10"):
        # the oracle materializes actual coordinates; scaling every point
        # by n keeps it in exact integer arithmetic
        def brute_johnson(family):
            n = family.params.n
            values = set()
            pts = list(family.scaled_points())
            for x in scaled_johnson_points(family.params):
                for y in pts:
                    d = 0
                    for a, b in zip(x, y):
                        d += (a - b) * (a - b)
                    if d:
                        values.add(d)
            return tuple(sorted(F(d, n * n) for d in values))

        def brute_cross(fam_a, fam_b):
            n = fam_a.params.n
            values = set()
            pts_b = list(fam_b.scaled_points())
            for x in fam_a.scaled_points():
                for y in pts_b:
                    d = 0
                    for a, b in zip(x, y):
                        d += (a - b) * (a - b)
                    if d:
                        values.add(d)
            return tuple(sorted(F(d, n * n) for d in values))

        for n in range(4, 11):
            for m in range(2, n // 2 + 1):
                params = Parameters(n, m)
                addable = addable_families(params)
                small = [f for f in candidate_families(params) if f.size <= 500]
                sample = small[::5] + addable
                for fam in sample:
                    assert johnson_family_spectrum(fam) == brute_johnson(fam), fam
                cross_pool = [f for f in small if f.size <= 120][:10] + [
                    f for f in addable if f.size <= 260
                ]
                for fam_a, fam_b in itertools.islice(
                    itertools.combinations(cross_pool, 2), 30
                ):
                    assert cross_family_spectrum(fam_a, fam_b) == brute_cross(fam_a, fam_b), (
                        fam_a,
                        fam_b,
                    )
                for fam in cross_pool[:8]:
                    assert cross_family_spectrum(fam, fam) == brute_cross(fam, fam)


def test_acceptance_11_congruences():
    with criterion(11, "single-slot unions match the larger representation; mirrors congruent"):
        start = time.perf_counter()
        for n in range(5, 11):
            reference = johnson_points(Parameters(n, 2))
            assert congruent(union_points(n, ["S3+"]), reference), n
            assert congruent(union_points(n, ["S3-"]), reference), n

        for n in (5, 6, 7, 8, 9, 10):
            labels = {f.label for f in solve_sub_families(n)}
            for kind in (1, 2, 3, 4):
                plus, minus = f"S{kind}+", f"S{kind}-"
                if plus in labels and minus in labels:
                    assert congruent(union_points(n, [plus]), union_points(n, [minus])), (n, kind)

        assert congruent(union_points(5, ["S3+"]), union_points(5, ["S4+"]))
        assert congruent(union_points(5, ["S3-"]), union_points(5, ["S4-"]))
        assert time.perf_counter() - start < 5.0
