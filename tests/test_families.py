"""Candidate families: enumeration, distances, addability, contraction."""

import itertools
import math
from fractions import Fraction as F

import pytest

from familyref import candidate_families, fraction_points
from jdist import families
from jdist.cli import _family_record, _Ratios
from jdist.families import (
    CandidateFamily,
    NotReducible,
    Parameters,
    addable_families,
    bounded_compositions,
    check_family,
    contracted_counts,
    enumerate_families,
    exists_addable,
    family_counts,
    is_addable,
    iter_profiles,
    max_profile,
    orbit_size,
    peak_is_addable,
    profile_sq_dist,
    profile_weight_drop,
    profile_weight_drop_case_rule,
    profile_weight_drop_printed,
    reduce_fully,
    reduce_step,
    scaled_johnson_points,
    scaled_peak,
)


def fam(n, m, offset, counts):
    return CandidateFamily(Parameters(n, m), offset, tuple(counts))


def test_parameters_validation():
    Parameters(4, 2)
    with pytest.raises(ValueError):
        Parameters(5, 3)
    with pytest.raises(ValueError):
        Parameters(4, 0)


def test_johnson_points_counts_and_order():
    pts = list(scaled_johnson_points(Parameters(4, 2)))
    assert len(pts) == 6
    assert pts[0] == (4, 4, 0, 0)
    assert len(list(scaled_johnson_points(Parameters(9, 2)))) == 36
    assert len(list(scaled_johnson_points(Parameters(9, 3)))) == 84


def test_johnson_points_on_hyperplane_with_pair_distances():
    # points times n = 7: coordinates 0 and 7, hyperplane sum 3 * 7, and
    # squared distances 7^2 times 2(m - overlap)
    params = Parameters(7, 3)
    pts = list(scaled_johnson_points(params))
    assert len(pts) == math.comb(7, 3)
    assert all(sum(p) == 3 * 7 for p in pts)
    for i in range(0, len(pts), 5):
        for j in range(i + 1, len(pts), 7):
            overlap = sum(1 for a, b in zip(pts[i], pts[j]) if a == b == 7)
            d = sum((a - b) ** 2 for a, b in zip(pts[i], pts[j]))
            assert d == 7 * 7 * 2 * (3 - overlap)


# (n, m, offset, counts, the ValueError message pattern)
BAD_FAMILIES = [
    (9, 2, 5, (8, 1), r"violate the hyperplane condition for offset=5"),  # hyperplane sum off
    (9, 2, 6, (8, 0), r"counts \(8, 0\) not in canonical form"),  # trailing zero
    (9, 2, 0, (0, 9), r"counts \(0, 9\) not in canonical form"),  # leading zero
    # a negative inner count, on the hyperplane
    (9, 3, -3, (5, -1, 5), r"counts \(5, -1, 5\) not in canonical form"),
    (9, 2, 0, (), r"counts \(\) not in canonical form"),
    (9, 2, 15, (1, 7, 1), r"too many levels: 3 > m=2"),  # too many levels for m = 2
    (9, 2, 7, (7, 1), r"counts \(7, 1\) do not sum to n=9"),
]


def test_candidate_family_validation():
    f = fam(9, 2, 6, (8, 1))
    assert f.scaled_levels() == (3, -6)  # 1/3 and -2/3
    for n, m, offset, counts, message in BAD_FAMILIES:
        with pytest.raises(ValueError, match=message):
            fam(n, m, offset, counts)


@pytest.mark.parametrize("n, m, offset, counts, message", BAD_FAMILIES)
def test_check_family_refuses_what_the_constructor_refuses(n, m, offset, counts, message):
    # the listing's rows and the constructor share one validity check
    with pytest.raises(ValueError, match=message) as direct:
        check_family(n, m, offset, counts)
    with pytest.raises(ValueError) as built:
        fam(n, m, offset, counts)
    assert str(direct.value) == str(built.value)


def test_canonical_folds_edges():
    f = CandidateFamily.canonical(Parameters(9, 3), -3, (0, 9, 0))
    assert (f.offset, f.counts) == (6, (9,))
    g = CandidateFamily.canonical(Parameters(9, 3), 6, (9, 0, 0))
    assert (g.offset, g.counts) == (6, (9,))


def test_family_size():
    assert fam(9, 2, 6, (8, 1)).size == 9
    assert fam(16, 5, 8, (13, 3)).size == 560
    assert fam(49, 5, 42, (47, 2)).size == 1176
    # the product of binomials is the multinomial n! / prod(c!)
    for n, m in small_sizes():
        for _, counts, size, _ in enumerate_families(Parameters(n, m)):
            multinomial = math.factorial(n) // math.prod(map(math.factorial, counts))
            assert size == orbit_size(n, counts) == multinomial, (n, m, counts)
    # no n! is formed: a million coordinates on one level, or all but one
    assert orbit_size(10**6, (10**6,)) == 1
    assert orbit_size(10**6, (1, 10**6 - 1)) == orbit_size(10**6, (10**6 - 1, 1)) == 10**6


def brute_force_rows(n, m):
    """(offset, counts) of every canonical family but the Johnson pattern,
    from all of range(n + 1) ** depth, by depth and then counts."""
    rows = []
    for depth in range(1, m + 1):
        for counts in itertools.product(range(n + 1), repeat=depth):
            if sum(counts) != n or counts[0] == 0 or counts[-1] == 0:
                continue
            offset = 2 * n - m - sum(j * k for j, k in enumerate(counts, 1))
            if (offset, counts) != (0, (m, n - m)):
                rows.append((offset, counts))
    return rows


def test_cut_walk_matches_brute_force(monkeypatch):
    # every (n, m) with n <= 10: at most 11**5 tuples per depth
    checked = []

    def record(n, m, offset, counts):
        checked.append((offset, counts))
        return check_family(n, m, offset, counts)

    monkeypatch.setattr(families, "check_family", record)
    for n in range(2, 11):
        for m in range(1, n // 2 + 1):
            params = Parameters(n, m)
            expected = brute_force_rows(n, m)
            checked.clear()
            rows = list(enumerate_families(params))
            assert [row[:2] for row in rows] == expected, (n, m)
            # each row went through the check once, so no CandidateFamily,
            # whose constructor runs it too, was built by the walk
            assert checked == expected, (n, m)
            for offset, counts, size, peak in rows:
                f = CandidateFamily(params, offset, counts)
                assert size == math.factorial(n) // math.prod(map(math.factorial, counts))
                assert peak == n * max(profile_sq_dist(f, p) for p in iter_profiles(f)), f
            depths = [len(counts) for _, counts, _, _ in rows]
            per_depth = [sum(1 for d in depths if d <= depth) for depth in range(1, m + 1)]
            assert list(family_counts(params)) == per_depth, (n, m)


@pytest.mark.parametrize("n, m", [(300, 2), (60, 3)])
def test_walk_carries_big_orbit_sizes(n, m):
    # sizes past 2**64 (89 digits for n = 300), each stepped along its level
    # as C(left, k + 1) = C(left, k) * (left - k) // (k + 1)
    params = Parameters(n, m)
    rows = list(enumerate_families(params))
    assert len(rows) == list(family_counts(params))[-1]
    assert all(size == orbit_size(n, counts) for _, counts, size, _ in rows)
    assert max(size for *_, size, _ in rows) > 2**64


def addable_rows(n, m):
    """``(offset, counts)`` of the listed families whose peak is addable."""
    return [
        (offset, counts)
        for offset, counts, _, peak in enumerate_families(Parameters(n, m))
        if peak_is_addable(n, m, peak)
    ]


def test_enumerate_families_examples():
    found92 = {(o, k) for o, k, _, _ in enumerate_families(Parameters(9, 2))}
    assert (6, (8, 1)) in found92
    assert all(not CandidateFamily(Parameters(9, 2), o, k).is_johnson_pattern() for o, k in found92)

    assert addable_rows(9, 2) == [(6, (8, 1))]
    assert addable_rows(8, 3) == [(4, (7, 1))]
    assert sorted(addable_rows(9, 3)) == [(-3, (1, 7, 1)), (6, (9,))]


def test_enumerate_excludes_johnson_pattern():
    for n, m in ((4, 2), (6, 3), (9, 2)):
        assert all(not f.is_johnson_pattern() for f in candidate_families(Parameters(n, m)))


def test_family_counts_match_the_enumeration():
    for m in range(1, 6):
        for n in range(2 * m, 15):
            params = Parameters(n, m)
            depths = [len(counts) for _, counts, _, _ in enumerate_families(params)]
            counts = [sum(1 for d in depths if d <= depth) for depth in range(1, m + 1)]
            assert list(family_counts(params)) == counts, (n, m)
    assert list(family_counts(Parameters(25, 4)))[-1] == 2924
    assert list(family_counts(Parameters(49, 5)))[-1] == 270724


def test_bounded_compositions_against_brute_force():
    for bounds in ((), (0,), (3,), (2, 0, 3), (1, 4, 2, 2), (5, 1, 0, 3, 2)):
        for total in range(sum(bounds) + 2):
            expected = sorted(
                (t for t in itertools.product(*(range(b + 1) for b in bounds)) if sum(t) == total),
                reverse=True,
            )
            assert list(bounded_compositions(total, bounds)) == expected, (total, bounds)


def test_profile_sq_dist_examples():
    f = fam(9, 2, 6, (8, 1))
    assert profile_sq_dist(f, (2, 0)) == 2
    assert profile_sq_dist(f, (1, 1)) == 4
    # hand evaluation: 12 + 12 - 36 - 1 + 17 + 4 = 8
    g = fam(9, 4, 3, (8, 0, 1))
    assert profile_sq_dist(g, (3, 0, 1)) == 8
    # the Johnson pattern seen as a family sits at distance zero
    j = CandidateFamily(Parameters(9, 2), 0, (2, 7))
    assert profile_sq_dist(j, (2, 0)) == 0
    with pytest.raises(ValueError):
        profile_sq_dist(f, (0, 2))


def test_max_profile_examples():
    assert max_profile(fam(9, 3, -3, (1, 7, 1))) == (0, 2, 1)
    assert max_profile(fam(8, 3, 4, (7, 1))) == (2, 1)
    assert max_profile(CandidateFamily(Parameters(9, 3), 0, (3, 6))) == (0, 3)
    for f in candidate_families(Parameters(8, 4)):
        best = max(
            sum((j - 1) * i for j, i in enumerate(p, 1)) for p in iter_profiles(f)
        )
        got = max_profile(f)
        assert sum((j - 1) * i for j, i in enumerate(got, 1)) == best


def test_max_sq_dist_examples():
    assert scaled_peak(9, 2, 0, (2, 7)) == 4 * 9  # 2m at the pattern
    assert scaled_peak(9, 2, 3, (5, 4)) == 6 * 9
    assert scaled_peak(9, 4, 3, (8, 0, 1)) == 8 * 9


def test_is_addable_examples():
    assert is_addable(fam(9, 2, 6, (8, 1)))
    assert not is_addable(fam(9, 2, 3, (5, 4)))
    assert not is_addable(CandidateFamily(Parameters(9, 2), 0, (2, 7)))
    for f in candidate_families(Parameters(8, 2)):
        assert not is_addable(f)


def small_sizes():
    """Every (n, m) with n <= 16, m <= 5 and n >= 2m."""
    return [(n, m) for n in range(2, 17) for m in range(1, min(5, n // 2) + 1)]


def test_json_levels_are_fraction_text():
    # the report's family record formats the scaled integer levels without
    # building Fractions, through one memo shared by every family of a listing
    for n, m in small_sizes():
        ratios = _Ratios(n)
        for f in candidate_families(Parameters(n, m)):
            record = _family_record(m, f.offset, f.counts, f.size, ratios)
            levels = [str(F(v, n)) for v in f.scaled_levels()]
            assert record["levels"] == levels, (n, m, f.counts)


def test_is_addable_is_the_scaled_peak_rule():
    # the peak of the max profile, scaled by n, decides addability: an even
    # integer at most 2m, never for the Johnson pattern
    for n, m in small_sizes():
        params = Parameters(n, m)
        # the Johnson pattern has two levels, so it is a family for m >= 2 only
        pattern = CandidateFamily(params, 0, (m, n - m)) if m >= 2 else None
        for f in itertools.chain(candidate_families(params), [pattern] if pattern else []):
            peak = profile_sq_dist(f, max_profile(f))
            scaled = scaled_peak(n, m, f.offset, f.counts)
            assert scaled == peak * n
            rule = peak.denominator == 1 and peak % 2 == 0 and peak <= 2 * m
            assert peak_is_addable(n, m, scaled) == rule, (n, m, f.counts)
            assert is_addable(f) == (f is not pattern and rule), (n, m, f.counts)


def test_addable_families_matches_enumeration():
    # m = 6 for n = 12..16 lets both mean-distance cuts fire: the depth loop
    # stops early and the tails are pruned
    sizes = [(n, m) for n in range(4, 21) for m in range(2, min(5, n // 2) + 1)]
    for n, m in sizes + [(n, 6) for n in range(12, 17)]:
        params = Parameters(n, m)
        full = addable_rows(n, m)
        fast = [(f.offset, f.counts) for f in addable_families(params)]
        assert full == fast, (n, m)
        assert exists_addable(params) == bool(full)


def test_addable_families_obey_mean_distance_bound():
    # the peak is at least the mean squared distance D - m^2/n + m, with
    # D = sum((x_i - m/n)^2), so every addable family has n*D <= n*m + m^2
    for n in range(4, 21):
        for m in range(1, min(6, n // 2) + 1):
            for f in candidate_families(Parameters(n, m)):
                if not is_addable(f):
                    continue
                levels = [F(v, n) for v in f.scaled_levels()]
                spread = sum(k * (v - F(m, n)) ** 2 for v, k in zip(levels, f.counts))
                mean = spread - F(m * m, n) + m
                assert mean <= F(scaled_peak(n, m, f.offset, f.counts), n) <= 2 * m
                assert n * spread <= n * m + m * m, (n, m, f.counts)


def test_addable_search_prunes_by_the_mean_distance_bound(monkeypatch):
    # the search checks every family whose offset is a multiple of the least
    # d with n | d^2, unless one level-1 coordinate together with the
    # coordinates on levels 3..l already breaks n*D <= n*m + m^2
    checked = []

    def record(f):
        checked.append((f.offset, f.counts))
        return is_addable(f)

    monkeypatch.setattr(families, "is_addable", record)
    for n in range(4, 21):
        step = next(d for d in range(1, n + 1) if d * d % n == 0)
        for m in range(1, min(6, n // 2) + 1):
            limit = n * m + m * m
            expected = []
            for offset, counts, _, _ in enumerate_families(Parameters(n, m)):
                levels = [1] + [j for j, k in enumerate(counts, 1) if j > 2 for _ in range(k)]
                c, s1, s2 = len(levels), sum(levels), sum(j * j for j in levels)
                bounded = n * (c * s2 - s1 * s1) <= c * limit
                if len(counts) == 1 or (offset % step == 0 and bounded):
                    expected.append((offset, counts))
            checked.clear()
            addable_families(Parameters(n, m))
            assert sorted(checked) == sorted(expected), (n, m)


def test_reduce_step_examples():
    f = fam(9, 3, -3, (1, 7, 1))
    r = reduce_step(f)
    assert (r.offset, r.counts) == (6, (9,))
    with pytest.raises(NotReducible):
        reduce_step(r)
    for g in candidate_families(Parameters(20, 4)):
        if len(g.counts) == 4:
            h = reduce_step(g)
            assert sum(h.counts) == 20
            assert sum(j * v for j, v in enumerate(h.counts, 1)) == 2 * 20 - h.offset - 4


def test_contraction_square_sum_drop():
    for _, counts, _, _ in enumerate_families(Parameters(12, 4)):
        if len(counts) < 3:
            continue
        raw = contracted_counts(counts)
        before = sum(j * j * v for j, v in enumerate(counts, 1))
        after = sum(j * j * v for j, v in enumerate(raw, 1))
        assert before - after == 2 * (len(counts) - 2)


def test_reduce_fully():
    f = fam(9, 3, -3, (1, 7, 1))
    trace = reduce_fully(f)
    assert [(g.offset, g.counts) for g in trace.chain] == [(-3, (1, 7, 1)), (6, (9,))]
    assert trace.terminal_offset == 6
    # the terminal single level realizes the one-ninth pattern
    assert trace.terminal.scaled_levels() == (3,)  # 1/3

    single = fam(8, 3, 4, (7, 1))
    assert reduce_fully(single).chain == (single,)

    for g in candidate_families(Parameters(18, 4)):
        trace = reduce_fully(g)
        n, m = 18, 4
        assert len(trace.terminal.counts) <= 2
        assert -m < trace.terminal_offset <= n - m
        if len(trace.chain) > 1:
            assert len(trace.terminal.counts) < len(g.counts)
            values = [scaled_peak(n, m, step.offset, step.counts) for step in trace.chain]
            assert all(a > b for a, b in zip(values, values[1:]))


def test_terminal_distances_follow_two_level_form():
    # squared distances of a terminal family: (n - c) * c / n + 2 * i2
    for g in candidate_families(Parameters(10, 3)):
        terminal = reduce_fully(g).terminal
        c = terminal.offset
        n = 10
        for profile in iter_profiles(terminal):
            i2 = profile[1] if len(profile) > 1 else 0
            assert profile_sq_dist(terminal, profile) == F((n - c) * c, n) + 2 * i2


def test_contraction_drop_rules():
    printed_mismatch = 0
    for m in (2, 3, 4):
        for n in range(2 * m, 16):
            for g in candidate_families(Parameters(n, m)):
                if len(g.counts) < 3:
                    continue
                drop = profile_weight_drop(g)
                assert drop in (0, 2)
                assert drop == profile_weight_drop_case_rule(g)
                if drop != profile_weight_drop_printed(g):
                    printed_mismatch += 1
    # the printed case split has a reversed inequality; the mismatch is
    # real and the direct computation is authoritative
    assert printed_mismatch > 0


def test_addable_invariant_under_canonicalization():
    # a shifted representation with an empty leading level folds back onto
    # the same family, so addability cannot depend on the representative
    f = fam(9, 3, -3, (1, 7, 1))
    g = CandidateFamily.canonical(Parameters(9, 3), -12, (0, 1, 7, 1))
    assert g == f and is_addable(g) == is_addable(f)


def test_points_match_levels():
    f = fam(9, 2, 6, (8, 1))
    pts = fraction_points(f.scaled_points(), 9)
    assert len(pts) == 9
    assert pts[0] == (F(1, 3),) * 8 + (F(-2, 3),)
    assert all(sum(p) == 2 for p in pts)
    scaled = list(f.scaled_points())
    assert scaled[0] == (3,) * 8 + (-6,)


def test_two_level_addables_are_extension_instances():
    # addable families spanning at most two consecutive values always come
    # from the closed-form construction for some multiplier
    from jdist.numbertheory import extension_family, special_factor

    for m in (2, 3, 4, 5):
        for n in range(2 * m, 31):
            base = special_factor(n)
            instances = set()
            n1 = 1
            while base * n1 < n:
                inst, _ = extension_family(n, m, n1)
                instances.add((inst.offset, inst.counts))
                n1 += 1
            for f in addable_families(Parameters(n, m)):
                if len(f.counts) <= 2:
                    assert (f.offset, f.counts) in instances
