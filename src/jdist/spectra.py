"""Exact distance spectra between point orbits, without materialization.

Johnson-to-family spectra enumerate overlap profiles; family-to-family
spectra enumerate contingency tables with the two multiplicity vectors as
margins.  Coordinates are freely permutable inside an orbit, so every
margin-consistent table corresponds to an actual point pair; the brute
force over materialized points agrees (tested up to n = 10).
"""

from __future__ import annotations

from fractions import Fraction

from .families import CandidateFamily, bounded_compositions, iter_profiles, profile_sq_dist


class ParameterMismatch(ValueError):
    """The two families live over different parameters."""


def johnson_family_spectrum(fam: CandidateFamily) -> tuple[Fraction, ...]:
    """Positive squared distances realized between Johnson points and the
    family, sorted."""
    values = {profile_sq_dist(fam, profile) for profile in iter_profiles(fam)}
    return tuple(sorted(v for v in values if v > 0))


def cross_family_spectrum(fam_a: CandidateFamily, fam_b: CandidateFamily) -> tuple[Fraction, ...]:
    """Squared distances realized between points of the two orbits, sorted.

    Enumerates non-negative integer tables with row sums ``fam_a.counts``
    and column sums ``fam_b.counts``; each cell (u, v) holds coordinates
    where the first point shows level value u and the second level value
    v.  Zero (identical points, possible only intra-family) is excluded.
    """
    if fam_a.params != fam_b.params:
        raise ParameterMismatch(f"{fam_a.params} != {fam_b.params}")
    n = fam_a.params.n
    vals_a = fam_a.scaled_levels()
    vals_b = fam_b.scaled_levels()
    cols = fam_b.counts

    # Process rows one at a time; a state is the tuple of remaining column
    # margins mapped to the set of achievable partial squared sums.
    states: dict[tuple[int, ...], set[int]] = {tuple(cols): {0}}
    for u, row_total in enumerate(fam_a.counts):
        next_states: dict[tuple[int, ...], set[int]] = {}
        row_cost = [(vals_a[u] - vb) ** 2 for vb in vals_b]
        for remaining, sums in states.items():
            for assign in bounded_compositions(row_total, remaining):
                key = tuple(r - a for r, a in zip(remaining, assign))
                add = sum(a * c for a, c in zip(assign, row_cost))
                bucket = next_states.setdefault(key, set())
                bucket.update(s + add for s in sums)
        states = next_states
    final = states.get(tuple([0] * len(cols)), set())
    return tuple(Fraction(s, n * n) for s in sorted(final) if s > 0)

