"""Spectra via profiles and contingency tables, against brute force."""

import itertools
from fractions import Fraction as F

import pytest

from familyref import candidate_families
from jdist.families import (
    CandidateFamily,
    Parameters,
    scaled_johnson_points,
    scaled_peak,
)
from jdist.spectra import ParameterMismatch, cross_family_spectrum, johnson_family_spectrum


def fam(n, m, offset, counts):
    return CandidateFamily(Parameters(n, m), offset, tuple(counts))


def brute_johnson_spectrum(family):
    n = family.params.n
    values = set()
    points = list(family.scaled_points())
    for x in scaled_johnson_points(family.params):
        for y in points:
            d = sum((a - b) ** 2 for a, b in zip(x, y))
            if d:
                values.add(d)
    return tuple(sorted(F(d, n * n) for d in values))


def brute_cross_spectrum(fam_a, fam_b):
    n = fam_a.params.n
    values = set()
    points_b = list(fam_b.scaled_points())
    for x in fam_a.scaled_points():
        for y in points_b:
            d = sum((a - b) ** 2 for a, b in zip(x, y))
            if d:
                values.add(d)
    return tuple(sorted(F(d, n * n) for d in values))


def test_spectrum_type():
    # a spectrum is the sorted tuple of the distinct positive squared
    # distances; the zero of a point with itself is left out
    c = fam(8, 3, 4, (7, 1))
    for s in (johnson_family_spectrum(fam(9, 2, 3, (5, 4))), cross_family_spectrum(c, c)):
        assert type(s) is tuple and s
        assert all(type(v) is F and v > 0 for v in s)
        assert list(s) == sorted(set(s))


def test_johnson_family_spectrum_examples():
    assert johnson_family_spectrum(fam(9, 2, 6, (8, 1))) == (2, 4)
    assert johnson_family_spectrum(fam(9, 2, 3, (5, 4))) == (2, 4, 6)
    wide = johnson_family_spectrum(fam(49, 5, 42, (47, 2)))
    assert set(wide) <= {2, 4, 6, 8, 10}


def test_cross_family_spectrum_examples():
    # swapping the lone deep coordinate moves exactly two coordinates by 1
    assert cross_family_spectrum(fam(9, 2, 6, (8, 1)), fam(9, 2, 6, (8, 1))) == (2,)
    a = fam(9, 3, 6, (9,))
    b = fam(9, 3, -3, (1, 7, 1))
    assert cross_family_spectrum(a, b) == (2,)
    c = fam(8, 3, 4, (7, 1))
    assert cross_family_spectrum(c, c) == (2,)


def test_cross_family_parameter_mismatch():
    with pytest.raises(ParameterMismatch):
        cross_family_spectrum(fam(9, 2, 6, (8, 1)), fam(8, 2, 5, (7, 1)))


def test_symmetry():
    params = Parameters(8, 3)
    fams = list(itertools.islice(candidate_families(params), 8))
    for a, b in itertools.combinations(fams, 2):
        assert cross_family_spectrum(a, b) == cross_family_spectrum(b, a)


def test_peak_matches_max_sq_dist():
    for n, m in ((8, 3), (9, 4), (12, 5)):
        for f in itertools.islice(candidate_families(Parameters(n, m)), 40):
            assert johnson_family_spectrum(f)[-1] == F(scaled_peak(n, m, f.offset, f.counts), n)


def test_profile_spectrum_against_brute_force():
    for n in range(4, 9):
        for m in range(2, n // 2 + 1):
            for f in candidate_families(Parameters(n, m)):
                if f.size <= 120:
                    assert johnson_family_spectrum(f) == brute_johnson_spectrum(f)


def test_contingency_spectrum_against_brute_force():
    for n in range(4, 8):
        for m in range(2, n // 2 + 1):
            fams = [f for f in candidate_families(Parameters(n, m)) if f.size <= 60]
            for a, b in itertools.islice(itertools.combinations(fams, 2), 30):
                assert cross_family_spectrum(a, b) == brute_cross_spectrum(a, b)
            for a in fams[:10]:
                assert cross_family_spectrum(a, a) == brute_cross_spectrum(a, a)


def test_big_margin_contingency():
    # margins like (47, 2) stay cheap because the table is at most 5 x 5
    wide = cross_family_spectrum(fam(49, 5, 42, (47, 2)), fam(49, 5, 42, (47, 2)))
    assert set(wide) <= {2, 4, 6, 8, 10}
