"""Two-distance extensions of the representation with a fixed last axis.

Here the Johnson representation J(n-1, 2) sits inside R^n as
``(1, 1, 0, ..., 0, 0)`` permuted over the first n-1 coordinates only.  A
vector that can join it while keeping the two distances sqrt(2) and 2 has
the shape ``(a^k, (a-1)^(n-k-1), b)`` with ``b = -(n-1)a + (n-k+1)``
pinned by the common hyperplane sum(x) = 2.  The first points (upper slots
leading) of two such shapes, with ``d = a - a'`` and ``e = k' - k``, lie
``n(n-1) d^2 - 2n e d + |e| + e^2`` apart squared, and the Johnson points
are the family a = 1, k = 2.  Only k in {0, 1, n-2} leaves at most two
achievable overlaps with a Johnson point, so solving this form in integers,
roots ``(p + q sqrt(f)) / r``, gives at most eight families (both branches
of four shapes); the deepest shape needs a non-negative discriminant
4n(10-n), hence n <= 10, with the two branches merging at n = 10
(:func:`solve_sub_families`).

Which unions of families stay two-distance is decided per family from
the overlap of upper slots (:func:`combination_search`), which unions are
congruent by exact arithmetic on the materialized orbits; printed
reference values are regression expectations, never inputs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterator, Sequence

from .exactnum import IntPointSet, QuadNum, squarefree_decompose

TWO_DISTANCE = (2, 4)


@dataclass(frozen=True)
class SubFamily:
    """One solved extension orbit for the fixed-last-axis setting.

    ``kind`` indexes the construction: 1 = empty run with near distance,
    2 = empty run with far distance, 3 = single repeated slot,
    4 = almost-full run (n <= 10 only).  ``sign`` is the branch of the root
    ``a = (p + q sqrt(f)) / r``; ``q = 0`` and ``f = 1`` when it is rational.
    """

    n: int
    k: int
    kind: int
    sign: str
    p: int
    q: int
    f: int
    r: int

    def _value(self, p: int, q: int) -> QuadNum:
        # f comes from a squarefree split, so nothing is factored again
        return QuadNum._normal(((1, Fraction(p, self.r)), (self.f, Fraction(q, self.r))))

    @cached_property
    def a(self) -> QuadNum:
        return self._value(self.p, self.q)

    @cached_property
    def low(self) -> QuadNum:
        """The value ``a - 1`` of the lower slots."""
        return self._value(self.p - self.r, self.q)

    @cached_property
    def b(self) -> QuadNum:
        n, k = self.n, self.k
        return self._value((n - k + 1) * self.r - (n - 1) * self.p, -(n - 1) * self.q)

    @property
    def label(self) -> str:
        return f"S{self.kind}{self.sign}"

    @property
    def size(self) -> int:
        return math.comb(self.n - 1, self.k)

    def points(self) -> tuple[tuple[QuadNum, ...], ...]:
        n, k, low, a = self.n, self.k, self.low, self.a
        out = []
        for support in itertools.combinations(range(n - 1), k):
            point = [low] * (n - 1)
            for i in support:
                point[i] = a
            point.append(self.b)
            out.append(tuple(point))
        return tuple(out)


@dataclass(frozen=True)
class FamilyCombination:
    labels: tuple[str, ...]
    added: int
    total: int
    maximal: bool


def sub_johnson_points(n: int) -> Iterator[tuple[Fraction, ...]]:
    """The representation: 2-subset indicators of the first n-1 axes."""
    if n < 5:
        raise ValueError(f"need n >= 5, got {n}")
    one, zero = Fraction(1), Fraction(0)
    for i, j in itertools.combinations(range(n - 1), 2):
        point = [zero] * n
        point[i] = point[j] = one
        yield tuple(point)


def sub_johnson_size(n: int) -> int:
    return math.comb(n - 1, 2)


def overlap_range(n: int, k: int) -> range:
    """Achievable counts of ones landing on (a-1)-slots."""
    return range(max(0, 2 - k), min(2, n - 1 - k) + 1)


def solve_sub_families(n: int) -> list[SubFamily]:
    """All orbits whose every point keeps {sqrt(2), 2} to the Johnson side.

    For k = 0 the single achievable overlap leaves the target distance
    free (near or far); for k = 1 and k = n-2 the two achievable overlaps
    force the pair (2, 4).  Any other k admits three overlaps and is
    impossible.  A vanishing discriminant merges the two branches into
    one family, reported with the '+' sign.

    Each shape solves ``A d^2 + B d + C = 0``, the first-point form of the
    module docstring at ``d = a - 1``, ``e = 2 - k`` and the shape's first
    target, in integers: one squarefree split ``s*s*f`` of the
    discriminant gives ``d = (-B -+ s sqrt(f)) / 2A``.  Later overlaps add
    2 each, so one exact check per root covers every target.
    """
    if n < 5:
        raise ValueError(f"need n >= 5, got {n}")
    out: list[SubFamily] = []
    shapes = ((1, 0, 2), (2, 0, 4), (3, 1, 2), (4, n - 2, 2))
    for kind, k, first_target in shapes:
        targets = range(first_target, first_target + 2 * len(overlap_range(n, k)), 2)
        if not set(TWO_DISTANCE).issuperset(targets):
            raise AssertionError(f"shape k={k} targets {list(targets)}")
        quad, lin, const = form = _distance_form(n, 2 - k, first_target)
        disc = lin * lin - 4 * quad * const
        if disc < 0:
            continue
        s, f = squarefree_decompose(disc) if disc else (0, 1)
        r = 2 * quad
        for sign, q in [("+", s), ("-", -s)] if s else [("+", 0)]:
            p, q = (r - lin + q, 0) if f == 1 else (r - lin, q)  # a = d + 1
            if not _vanishes(form, p - r, q, f, r):
                raise AssertionError(f"S{kind}{sign} misses its target {first_target}")
            out.append(SubFamily(n, k, kind, sign, p, q, f, r))
    return out


def _distance_form(n: int, e: int, target: int) -> tuple[int, int, int]:
    """``(A, B, C)`` with first points ``target`` apart squared iff ``A d^2 + B d + C = 0``."""
    return n * (n - 1), -2 * n * e, abs(e) + e * e - target


def _vanishes(form: tuple[int, int, int], p: int, q: int, f: int, r: int) -> bool:
    """Whether ``A d^2 + B d + C = 0`` at ``d = (p + q sqrt(f)) / r``, with
    ``q = 0`` when ``f = 1``: ``r^2`` times the form has the rational part
    ``A(p^2 + q^2 f) + B p r + C r^2`` and the sqrt(f) part ``q(2A p + B r)``."""
    quad, lin, const = form
    rational = quad * (p * p + q * q * f) + lin * p * r + const * r * r
    return not (rational or q * (2 * quad * p + lin * r))


def sq_dist_points(p: Sequence, q: Sequence) -> QuadNum:
    exact = IntPointSet([p, q])
    return QuadNum.of(exact.value_of(exact.row_keys(0, 1, 2)[0]))


@dataclass(frozen=True)
class CombinationReport:
    n: int
    families: tuple[SubFamily, ...]
    intra_valid: tuple[bool, ...]
    combinations: tuple[FamilyCombination, ...]


def combination_search(n: int) -> CombinationReport:
    """Every family subset whose union stays a two-distance set.

    Validity of a subset reduces to intra-family validity plus pairwise
    cross-family validity (the Johnson side is two-distance by
    construction); subsets are enumerated exhaustively over at most eight
    families and flagged maximal when no further family fits.

    Both are decided per family, no orbit materialized: for p in a family
    with upper slots S, |S| = k, and q with S', |S'| = k', ``<p, q> =
    (n-1)(a-1)(a'-1) + k(a'-1) + k'(a-1) + bb' + |S & S'|``.  Norms are
    constant on an orbit, so ``|p - q|^2 = C - 2|S & S'|`` over the overlaps
    ``max(0, k + k' - (n-1)) .. min(k, k')``.  The first points of two
    families overlap in min(k, k') slots: their squared distance, the
    module's form in integers, starts that progression (never rational over
    two irrational radicands).  Two points of one family at overlap t
    differ by 1 on 2(k - t) coordinates: 2, 4, ..., 2 min(k, n-1-k).
    """
    families = solve_sub_families(n)
    allowed = set(TWO_DISTANCE)
    intra = tuple(allowed.issuperset(range(2, 2 * min(f.k, n - f.k - 1) + 1, 2)) for f in families)
    usable = [i for i, ok in enumerate(intra) if ok]

    def two_distance(i: int, j: int) -> bool:
        one, two = families[i], families[j]
        if one.q and two.q and one.f != two.f:
            return False
        k, k2 = one.k, two.k
        steps = range(min(k, k2) - max(0, k + k2 - n + 1) + 1)
        starts = [d for d in TWO_DISTANCE if allowed.issuperset(d + 2 * s for s in steps)]
        # d = a - a' = (p + q sqrt(f)) / r over the one radicand left
        p, q = one.p * two.r - two.p * one.r, one.q * two.r - two.q * one.r
        f, r = one.f if one.q else two.f, one.r * two.r
        return any(_vanishes(_distance_form(n, k2 - k, t), p, q, f, r) for t in starts)

    compatible = {(i, j): two_distance(i, j) for i, j in itertools.combinations(usable, 2)}

    combos = []
    valid_sets = []
    for r in range(1, len(usable) + 1):
        for subset in itertools.combinations(usable, r):
            if all(compatible[(i, j)] for i, j in itertools.combinations(subset, 2)):
                valid_sets.append(subset)
    valid_lookup = set(valid_sets)
    for subset in valid_sets:
        extendable = any(
            other not in subset and tuple(sorted(subset + (other,))) in valid_lookup
            for other in usable
        )
        added = sum(families[i].size for i in subset)
        combos.append(
            FamilyCombination(
                tuple(families[i].label for i in subset),
                added,
                sub_johnson_size(n) + added,
                not extendable,
            )
        )
    combos.sort(key=lambda c: (-c.added, c.labels))
    return CombinationReport(n, tuple(families), intra, tuple(combos))


def union_points(n: int, labels: Sequence[str]) -> list[tuple[Fraction | QuadNum, ...]]:
    """The Johnson points plus the orbits of the labelled families."""
    by_label = {f.label: f for f in solve_sub_families(n)}
    points: list[tuple[Fraction | QuadNum, ...]] = list(sub_johnson_points(n))
    for label in labels:
        points.extend(by_label[label].points())
    return points


def congruent(set_a: Sequence[Sequence], set_b: Sequence[Sequence]) -> bool:
    """Whether a distance-preserving bijection between the sets exists.

    Backtracking match over exact squared-distance multisets: points can
    only map to points with identical distance profiles, and every placed
    pair must preserve the distance to everything already placed.  The
    search keeps its levels in a list, not in Python frames, so the
    recursion limit does not bound the set size.  Both sets are keyed over
    one shared :class:`IntPointSet`; points are padded with zero
    coordinates to the largest dimension, which changes no distance.  Each
    point is keyed against its own set by one :meth:`IntPointSet.row_keys`
    row, and its sorted row is its profile.
    """
    if len(set_a) != len(set_b):
        return False
    size = len(set_a)
    if size == 0:
        return True

    points = [*set_a, *set_b]
    dim = max(map(len, points))
    exact = IntPointSet([(*p, *[0] * (dim - len(p))) for p in points])
    da = [exact.row_keys(i, 0, size) for i in range(size)]
    db = [exact.row_keys(size + i, size, 2 * size) for i in range(size)]
    sig_a = [tuple(sorted(row)) for row in da]
    sig_b = [tuple(sorted(row)) for row in db]
    if sorted(sig_a) != sorted(sig_b):
        return False

    # profile -> the points of set_b with it, so that no two profiles (full
    # rows) are compared pair by pair
    images: dict[tuple, list[int]] = {}
    for j, sig in enumerate(sig_b):
        images.setdefault(sig, []).append(j)
    candidates = [images[sig] for sig in sig_a]
    order = sorted(range(size), key=lambda i: len(candidates[i]))
    assigned: dict[int, int] = {}  # placed points of set_a -> images, in placement order
    used: set[int] = set()
    tried = [0] * size  # candidates of order[pos] tried so far, per level
    pos = 0
    while pos < size:
        i = order[pos]
        for k in range(tried[pos], len(candidates[i])):
            j = candidates[i][k]
            if j not in used and all(db[j][assigned[prev]] == da[i][prev] for prev in assigned):
                tried[pos] = k + 1
                assigned[i] = j
                used.add(j)
                pos += 1
                break
        else:  # no candidate left: take back the previous placement
            if pos == 0:
                return False
            tried[pos] = 0
            pos -= 1
            used.remove(assigned.pop(order[pos]))
    return True
