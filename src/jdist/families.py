"""Johnson graph representations and their candidate extension families.

The representation of the Johnson graph J(n, m) places the m-subsets of an
n-element set as 0/1 indicator vectors on the hyperplane sum(x) = m; its
squared distances are exactly 2, 4, ..., 2m.  Any vector that can join the
representation while keeping at most m distances belongs to a permutation
orbit whose coordinate values are consecutive integers shifted by
``-offset/n``: level j (j = 1..l) carries the value ``(2 - j) - offset/n``
with multiplicity ``counts[j-1]``, and the hyperplane forces

    sum(counts) == n        and        sum(j * counts[j-1]) == 2n - offset - m.

This module models those orbits, the exact squared-distance formula driven
by overlap profiles, the peak squared distance to the Johnson points, the
evenness test deciding addability, and the level-contraction rewrite that
reduces every family to a terminal two-level form.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Iterator, Sequence

from .exactnum import squarefree_decompose

Profile = tuple[int, ...]


class NotReducible(ValueError):
    """The family already has at most two levels."""


@dataclass(frozen=True)
class Parameters:
    """Problem size: ambient coordinate count n and distance count m."""

    n: int
    m: int

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"m must be positive, got {self.m}")
        if self.n < 2 * self.m:
            raise ValueError(f"need n >= 2m (J(n,m) ~ J(n,n-m)), got n={self.n}, m={self.m}")

    @property
    def johnson_size(self) -> int:
        return math.comb(self.n, self.m)

    def allowed_sq_dists(self) -> frozenset[int]:
        return frozenset(2 * i for i in range(1, self.m + 1))


@dataclass(frozen=True)
class CandidateFamily:
    """A permutation orbit of a candidate vector, in canonical form.

    Canonical means the first and last multiplicities are positive; a
    leading empty level is folded away by shifting ``offset`` up by n, so
    each orbit has exactly one representative.
    """

    params: Parameters
    offset: int
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        check_family(self.params.n, self.params.m, self.offset, self.counts)

    @staticmethod
    def canonical(params: Parameters, offset: int, counts: Sequence[int]) -> "CandidateFamily":
        """Build the canonical representative, folding empty edge levels."""
        k = list(counts)
        while k and k[-1] == 0:
            k.pop()
        while k and k[0] == 0:
            k.pop(0)
            offset += params.n
        return CandidateFamily(params, offset, tuple(k))

    def scaled_levels(self) -> tuple[int, ...]:
        """Level values times n; always integers."""
        return scaled_levels(self.params.n, self.offset, len(self.counts))

    @property
    def size(self) -> int:
        return orbit_size(self.params.n, self.counts)

    def is_johnson_pattern(self) -> bool:
        m = self.params.m
        return self.offset == 0 and self.counts == (m, self.params.n - m)

    def scaled_points(self) -> Iterator[tuple[int, ...]]:
        """All orbit points times n, lexicographically with larger values first."""
        yield from _arrangements(self.scaled_levels(), self.counts)


def check_family(n: int, m: int, offset: int, counts: tuple[int, ...]) -> None:
    """Raise ValueError unless ``counts`` with ``offset`` is a canonical
    family of J(n, m): positive ends, no negative level, at most m levels,
    n coordinates, and the hyperplane sum m."""
    k = counts
    if not k or k[0] <= 0 or k[-1] <= 0 or min(k) < 0:
        raise ValueError(f"counts {k} not in canonical form")
    if len(k) > m:
        raise ValueError(f"too many levels: {len(k)} > m={m}")
    if sum(k) != n:
        raise ValueError(f"counts {k} do not sum to n={n}")
    if sum(map(mul, k, range(1, len(k) + 1))) != 2 * n - offset - m:
        raise ValueError(f"counts {k} violate the hyperplane condition for offset={offset}")


def scaled_levels(n: int, offset: int, depth: int) -> tuple[int, ...]:
    """n times the level values ``(2 - j) - offset/n``, j = 1..depth."""
    return tuple(range(n - offset, n - offset - n * depth, -n))


def orbit_size(n: int, counts: Sequence[int]) -> int:
    """The orbit's point count, the multinomial n! / prod(c!), as a product
    of binomials so that no factorial of n is formed."""
    size = 1
    for c in counts[:-1]:
        size *= math.comb(n, c)
        n -= c
    return size


@dataclass(frozen=True)
class ReductionTrace:
    """The full contraction chain from a family down to its two-level form."""

    chain: tuple[CandidateFamily, ...]

    @property
    def terminal(self) -> CandidateFamily:
        return self.chain[-1]

    @property
    def terminal_offset(self) -> int:
        return self.terminal.offset


def _arrangements(values: Sequence, counts: Sequence[int]) -> Iterator[tuple]:
    values = [v for v, c in zip(values, counts) if c]
    counts = [c for c in counts if c]
    total = sum(counts)
    point = [None] * total
    remaining = list(counts)

    def rec(pos: int) -> Iterator[tuple]:
        if pos == total:
            yield tuple(point)
            return
        for idx, left in enumerate(remaining):
            if left:
                point[pos] = values[idx]
                remaining[idx] -= 1
                yield from rec(pos + 1)
                remaining[idx] += 1

    yield from rec(0)


def scaled_johnson_points(params: Parameters) -> Iterator[tuple[int, ...]]:
    """Indicator vectors of all m-subsets times n, in lexicographic support
    order, matching ``scaled_points`` of families."""
    n = params.n
    for support in itertools.combinations(range(n), params.m):
        point = [0] * n
        for i in support:
            point[i] = n
        yield tuple(point)


def _prefixes(n: int, j: int) -> Iterator[tuple[tuple[int, ...], int, int, int, int]]:
    """``(counts, left, lin, sq, size)`` for the first j multiplicities of
    every canonical family, lexicographically: ``left = n - sum(counts) >= 1``,
    ``lin = sum(i * k_i)``, ``sq = sum(i * i * k_i)`` and ``size`` the product
    of the binomials of :func:`orbit_size` so far, stepped along each level."""
    if not j:
        yield (), n, 0, 0, 1
        return
    for counts, left, lin, sq, size in _prefixes(n, j - 1):
        size *= left if j == 1 else 1  # the first multiplicity starts at 1
        for k in range(j == 1, left):
            yield counts + (k,), left - k, lin + j * k, sq + j * j * k, size
            size = size * (left - k) // (k + 1)  # C(left, k + 1) from C(left, k)


def enumerate_families(params: Parameters) -> Iterator[tuple[int, tuple[int, ...], int, int]]:
    """``(offset, counts, size, peak)`` of every canonical candidate family
    but the Johnson pattern, each checked by :func:`check_family`, with its
    :func:`orbit_size` and :func:`scaled_peak`; by depth, then counts.  Rows,
    not :class:`CandidateFamily` objects; a caller that needs one builds
    ``CandidateFamily(params, offset, counts)``.

    Depth d ends each prefix of d - 1 multiplicities (:func:`_prefixes`)
    with the coordinates left, so the ends are positive and the inner
    levels may be empty; the hyperplane gives the offset."""
    n, m = params.n, params.m
    for depth in range(1, m + 1):
        for prefix, left, lin, sq, size in _prefixes(n, depth - 1):
            counts = prefix + (left,)
            offset = 2 * n - m - lin - depth * left
            if depth == 2 and not offset:
                continue  # (m, n - m), the Johnson pattern
            check_family(n, m, offset, counts)
            sq += depth * depth * left
            yield offset, counts, size, _base(n, m, offset, sq) + 2 * n * _greedy_weight(counts, m)


def family_counts(params: Parameters) -> Iterator[int]:
    """How many rows :func:`enumerate_families` has yielded once each
    depth 1..m is done, in closed form, without enumerating.

    Depth d >= 2 has the C(n + d - 3, d - 1) compositions of n into d parts
    with positive ends, so depths 2..d hold C(n + d - 2, d - 1) - 1 (the
    hockey-stick identity).  The one-level family adds one and the Johnson
    pattern (depth 2) takes one away.  With n >= 2m the counts grow at
    least threefold per depth, so comparing them with a bound stops early.
    """
    yield 1
    for depth in range(2, params.m + 1):
        yield math.comb(params.n + depth - 2, depth - 1) - 1


def bounded_compositions(total: int, bounds: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Tuples ``t`` with ``0 <= t[i] <= bounds[i]`` summing to ``total``,
    lexicographically from the largest."""
    parts = len(bounds)
    suffix = [0] * (parts + 1)  # suffix[i] = sum(bounds[i:])
    for i in range(parts - 1, -1, -1):
        suffix[i] = suffix[i + 1] + bounds[i]
    out = [0] * parts

    def rec(idx: int, left: int) -> Iterator[tuple[int, ...]]:
        if idx == parts:
            if left == 0:
                yield tuple(out)
            return
        if left > suffix[idx]:
            return
        for v in range(min(bounds[idx], left), -1, -1):
            out[idx] = v
            yield from rec(idx + 1, left - v)

    yield from rec(0, total)


def iter_profiles(fam: CandidateFamily) -> Iterator[Profile]:
    """All overlap profiles: 0 <= i_j <= counts[j-1], sum = m."""
    return bounded_compositions(fam.params.m, fam.counts)


def is_valid_profile(fam: CandidateFamily, profile: Sequence[int]) -> bool:
    return (
        len(profile) == len(fam.counts)
        and sum(profile) == fam.params.m
        and all(0 <= i <= k for i, k in zip(profile, fam.counts))
    )


def profile_sq_dist(fam: CandidateFamily, profile: Sequence[int]) -> Fraction:
    """Exact squared distance between a Johnson point and a family point
    realizing the given overlap profile."""
    if not is_valid_profile(fam, profile):
        raise ValueError(f"profile {tuple(profile)} invalid for counts {fam.counts}")
    n, m = fam.params.n, fam.params.m
    weight = sum((j - 1) * i for j, i in enumerate(profile, 1))
    return Fraction(scaled_base(n, m, fam.offset, fam.counts) + 2 * weight * n, n)


def scaled_base(n: int, m: int, offset: int, counts: Sequence[int]) -> int:
    """n times the profile-independent part of the squared distance."""
    return _base(n, m, offset, sum(j * j * v for j, v in enumerate(counts, 1)))


def _base(n: int, m: int, offset: int, sq: int) -> int:
    """:func:`scaled_base` from ``sq = sum(j * j * k_j)``."""
    return n * (4 * offset + 3 * m - 4 * n + sq) - offset * offset


def _greedy_weight(counts: Sequence[int], m: int) -> int:
    """Maximum of sum((j-1) * i_j) over valid profiles: fill deepest first."""
    left = m
    weight = 0
    for idx in range(len(counts) - 1, -1, -1):
        take = counts[idx]
        if take >= left:
            return weight + idx * left
        weight += idx * take
        left -= take
    return weight


def max_profile(fam: CandidateFamily) -> Profile:
    """The overlap profile maximizing the squared distance.

    Filling from the deepest level first maximizes the profile weight;
    feasibility follows from sum(counts) = n >= m.
    """
    left = fam.params.m
    profile = [0] * len(fam.counts)
    for idx in range(len(fam.counts) - 1, -1, -1):
        take = min(fam.counts[idx], left)
        profile[idx] = take
        left -= take
        if left == 0:
            break
    return tuple(profile)


def scaled_peak(n: int, m: int, offset: int, counts: Sequence[int]) -> int:
    """n times the peak squared distance between the Johnson points and the
    family, at the :func:`max_profile` weight."""
    return scaled_base(n, m, offset, counts) + 2 * _greedy_weight(counts, m) * n


def peak_is_addable(n: int, m: int, scaled: int) -> bool:
    """Whether a family other than the Johnson pattern whose
    :func:`scaled_peak` is ``scaled`` is addable (see :func:`is_addable`)."""
    peak, rest = divmod(scaled, n)
    return rest == 0 and peak % 2 == 0 and peak <= 2 * m


def is_addable(fam: CandidateFamily) -> bool:
    """Whether every family point keeps distances inside the Johnson set.

    All Johnson-to-family squared distances differ from the peak by even
    integers, so the whole orbit is compatible exactly when the peak is an
    even integer at most 2m.  The Johnson pattern itself is never addable.
    """
    n, m = fam.params.n, fam.params.m
    if fam.is_johnson_pattern():
        return False
    return peak_is_addable(n, m, scaled_peak(n, m, fam.offset, fam.counts))


def _addable_candidates(params: Parameters) -> Iterator[CandidateFamily]:
    """Addable families via an arithmetic cut of the search space.

    The peak squared distance is ``integer - offset^2 / n``, so an addable
    family needs ``n | offset^2``, i.e. an offset divisible by the smallest
    d with n | d^2.  With the tail multiplicities (levels 3..l) fixed, the
    offset is linear in the second multiplicity, leaving one residue class
    to scan.  Equivalent to filtering :func:`enumerate_families` by :func:`peak_is_addable`.

    Mean-distance bound.  Take x with sum(x) = m.  The indicator e_S of an
    m-subset S averages to m/n in every coordinate, so the mean of
    ``|x - e_S|^2`` over all S is ``|x|^2 - 2m^2/n + m = D - m^2/n + m``
    with ``D = sum((x_i - m/n)^2)``.  The peak is at least this mean, so an
    addable family has ``n*D <= n*m + m^2``.  Any c coordinates with sum s1
    and square sum s2 have ``c*s2 - s1^2 = c*sum((y - s1/c)^2) <= c*D``,
    also in level units (x = 2 - j - offset/n, so level j counts as j).
    One coordinate on level 1 and one on level l give
    ``n*(l-1)^2 <= 2*(n*m + m^2)``, which ends the depth loop; one on
    level 1, the tail assigned so far and one on the deepest level prune
    :func:`_tails`.
    """
    n, m = params.n, params.m
    square, free = squarefree_decompose(n)
    step = square * free  # smallest d with n | d*d
    limit = n * m + m * m  # n*D of an addable family is at most this

    fam = CandidateFamily(params, n - m, (n,))
    if is_addable(fam):
        yield fam

    for depth in range(2, m + 1):
        if n * (depth - 1) ** 2 > 2 * limit:
            break
        for tail in _tails(n, depth, limit):
            tail_size = sum(tail)
            tail_weight = sum((idx + 3) * v for idx, v in enumerate(tail))
            base = n - m + tail_size - tail_weight  # offset = base - k2
            top = n - tail_size - 1  # keep the first multiplicity >= 1
            start = base % step
            if depth == 2 and start == 0:
                start = step  # the last multiplicity must stay positive
            for k2 in range(start, top + 1, step):
                counts = (n - tail_size - k2, k2) + tail
                fam = CandidateFamily(params, base - k2, counts)
                if not fam.is_johnson_pattern() and is_addable(fam):
                    yield fam


def addable_families(params: Parameters) -> list[CandidateFamily]:
    """All addable families, in the canonical enumeration order."""
    found = list(_addable_candidates(params))
    found.sort(key=lambda f: (len(f.counts), f.counts))
    return found


def exists_addable(params: Parameters) -> bool:
    """Whether some candidate family is addable; short-circuits."""
    return any(True for _ in _addable_candidates(params))


def _tails(n: int, depth: int, limit: int) -> Iterator[tuple[int, ...]]:
    """Multiplicities for levels 3..depth with the deepest one positive,
    pruned by the mean-distance bound ``limit`` of :func:`_addable_candidates`."""
    if depth == 2:
        yield ()
        return
    parts = depth - 2
    tail = [0] * parts

    def fits(c: int, s1: int, s2: int) -> bool:
        # c coordinates with level sum s1 and level square sum s2
        return n * (c * s2 - s1 * s1) <= c * limit

    # (c, s1, s2) describe one level-1 coordinate plus tail[:idx]; adding
    # coordinates never lowers a centred square sum, so each loop may break
    def rec(idx: int, left: int, c: int, s1: int, s2: int) -> Iterator[tuple[int, ...]]:
        level = idx + 3
        if idx == parts - 1:
            for v in range(1, left + 1):
                if not fits(c + v, s1 + v * level, s2 + v * level * level):
                    break
                tail[idx] = v
                yield tuple(tail)
            return
        for v in range(0, left + 1):
            c2, t1, t2 = c + v, s1 + v * level, s2 + v * level * level
            if not fits(c2 + 1, t1 + depth, t2 + depth * depth):
                break
            tail[idx] = v
            yield from rec(idx + 1, left - v, c2, t1, t2)

    # leave room for the first multiplicity
    yield from rec(0, n - 1, 1, 1, 1)


def contracted_counts(counts: Sequence[int]) -> list[int]:
    """The raw level-contraction rewrite, in the original level frame.

    Moves one unit from the first level to the second and one from the
    last to the second-to-last (these coincide for three levels).  Both
    hyperplane sums are preserved; the weighted square sum drops by
    exactly ``2 * (l - 2)``.
    """
    if len(counts) <= 2:
        raise NotReducible(f"family with {len(counts)} levels cannot be contracted")
    k = list(counts)
    k[0] -= 1
    k[1] += 1
    k[-2] += 1
    k[-1] -= 1
    return k


def reduce_step(fam: CandidateFamily) -> CandidateFamily:
    """One contraction step, re-canonicalized."""
    return CandidateFamily.canonical(fam.params, fam.offset, contracted_counts(fam.counts))


def reduce_fully(fam: CandidateFamily) -> ReductionTrace:
    """Contract until at most two levels remain.

    The terminal offset always lies in ``(-m, n - m]``: two canonical
    levels force multiplicities ``offset + m`` and ``n - offset - m``, and
    a single level forces ``offset = n - m``.
    """
    chain = [fam]
    while len(chain[-1].counts) > 2:
        chain.append(reduce_step(chain[-1]))
    trace = ReductionTrace(tuple(chain))
    n, m = fam.params.n, fam.params.m
    if not -m < trace.terminal_offset <= n - m:
        raise AssertionError(f"{fam} reduces to offset {trace.terminal_offset}")
    return trace


def profile_weight_drop(fam: CandidateFamily) -> int:
    """Change of ``2 * max sum((j-1) i_j)`` across one raw contraction."""
    m = fam.params.m
    return 2 * (_greedy_weight(fam.counts, m) - _greedy_weight(contracted_counts(fam.counts), m))


def profile_weight_drop_case_rule(fam: CandidateFamily) -> int:
    """Closed-form case split for the peak-weight change.

    Zero when the peak profile spills into the first level (counts[0] >
    n - m keeps it spilling after the rewrite too) or when the deepest
    level alone saturates before and after (counts[-1] > m); two
    otherwise.  Verified against the direct computation over every family
    with at least three levels for m <= 5, n <= 30.  Note the reference
    statement of this rule carries the first inequality reversed; it is
    reproduced by :func:`profile_weight_drop_printed` and flagged by
    tests, and the pipeline only ever uses the direct computation.
    """
    n, m = fam.params.n, fam.params.m
    if fam.counts[0] > n - m or fam.counts[-1] > m:
        return 0
    return 2


def profile_weight_drop_printed(fam: CandidateFamily) -> int:
    """The case split exactly as printed in the reference; see
    :func:`profile_weight_drop_case_rule` for the corrected direction."""
    n, m = fam.params.n, fam.params.m
    if fam.counts[0] <= n - m or fam.counts[-1] > m:
        return 0
    return 2
