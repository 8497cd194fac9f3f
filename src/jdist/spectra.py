"""Exact distance spectra between point orbits, without materialization.

Johnson-to-family spectra enumerate overlap profiles; family-to-family
spectra enumerate contingency tables with the two multiplicity vectors as
margins.  Coordinates are freely permutable inside an orbit, so every
margin-consistent table corresponds to an actual point pair; the brute
force over materialized points agrees (tested up to n = 10).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .families import CandidateFamily, bounded_compositions, iter_profiles, profile_sq_dist


class ParameterMismatch(ValueError):
    """The two families live over different parameters."""


@dataclass(frozen=True)
class Spectrum:
    """Sorted set of positive exact squared distances."""

    values: tuple[Fraction, ...]

    @staticmethod
    def of(values: Iterable[Fraction]) -> "Spectrum":
        return Spectrum(tuple(sorted(set(v for v in values if v > 0))))

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.values)

    def __contains__(self, value: object) -> bool:
        return value in self.values

    def __len__(self) -> int:
        return len(self.values)

    @property
    def peak(self) -> Fraction:
        return self.values[-1]

    def within(self, allowed: Iterable) -> bool:
        allowed = set(allowed)
        return all(v in allowed for v in self.values)

    def to_json(self) -> list[str]:
        return [str(v) for v in self.values]


def johnson_family_spectrum(fam: CandidateFamily) -> Spectrum:
    """Squared distances realized between Johnson points and the family."""
    return Spectrum.of(profile_sq_dist(fam, profile) for profile in iter_profiles(fam))


def cross_family_spectrum(fam_a: CandidateFamily, fam_b: CandidateFamily) -> Spectrum:
    """Squared distances realized between points of the two orbits.

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
    return Spectrum.of(Fraction(s, n * n) for s in final)

