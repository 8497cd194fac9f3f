"""The family layer as test-side objects and rational points.

``enumerate_families`` yields plain ``(offset, counts, size, peak)`` rows.
Tests that read more than those four fields (levels, profiles, spectra,
contraction) build each row's family here, in listing order.

The package gives points only in integers over n (``scaled_points``,
``scaled_johnson_points``); tests that check distances or verify sets on
the real points read them through the one ``Fraction`` view here.
"""

from fractions import Fraction

from jdist.families import CandidateFamily, enumerate_families, scaled_johnson_points


def candidate_families(params):
    for offset, counts, _, _ in enumerate_families(params):
        yield CandidateFamily(params, offset, counts)


def fraction_points(scaled, n):
    """Points given times n, such as ``CandidateFamily.scaled_points()``, as
    tuples of ``Fraction(c, n)``."""
    return [tuple(Fraction(c, n) for c in p) for p in scaled]


def johnson_points(params):
    """The 0/1 points of J(n, m), in ``scaled_johnson_points`` order."""
    return fraction_points(scaled_johnson_points(params), params.n)
