"""Compatibility graphs over candidate vectors and maximal extensions.

Every addable orbit keeps all its distances to the Johnson points inside
the allowed set, so the only remaining freedom is which candidate vectors
are mutually compatible.  Vertices are candidate points, edges mean the
squared distance lies in {2, 4, ..., 2m}, and maximal extensions of the
representation correspond exactly to maximal cliques.

The structure sits in the sparse conflict graph (the complement), and
only that graph is built.  Each family is an S_n orbit and S_n preserves
distances, so the conflicts of one representative per orbit, mapped
through the coordinate permutations onto the other orbit members, give
all of them: no pair of vertices is tested twice and conflict-free
families cost nothing beyond their points.  Both the points and the
conflict edges are capped.  The search is an exact branch-and-bound:
universal vertices join every clique and are only counted, and the rest,
the conflict core, is colored once so that each color class is a
conflict clique.  The bound is the number of classes still meeting the
candidates.  Each class is a run of consecutive labels, so one carry
through the candidate mask counts them when the search enters a child,
and a sibling's count is its parent's, less one when a single AND shows
that the branched vertex's class has no candidate left.  A node budget with
an explicit optimality flag and an exact upper bound keeps the open
instances honest.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from operator import itemgetter, or_
from typing import Iterator, Sequence

from .exactnum import IntPointSet
from .families import (
    CandidateFamily,
    Parameters,
    addable_families,
    scaled_johnson_points,
)
from .spectra import cross_family_spectrum, johnson_family_spectrum

DEFAULT_BUDGET = 10**8
DEFAULT_CAP = 10**5


class UniverseTooLarge(ValueError):
    """Materializing the candidate points or conflict edges would exceed the cap."""


@dataclass
class CandidateUniverse:
    """Candidate points with their sparse conflict graph.

    Vertices are sorted lexicographically by their scaled coordinates, so
    the structure (and everything searched on it) is independent of input
    order.  ``conflicts[i]`` is the bitmask of vertices whose squared
    distance to vertex i lies outside the allowed set; it is 0 for a
    universal vertex.  ``adjacency`` is derived on access.
    """

    scaled: tuple[tuple[int, ...], ...]
    conflicts: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.scaled)

    @cached_property
    def adjacency(self) -> tuple[int, ...]:
        """Compatibility bitmasks: the complement of ``conflicts`` without loops."""
        full = (1 << self.size) - 1
        return tuple(full ^ mask ^ (1 << i) for i, mask in enumerate(self.conflicts))


@dataclass(frozen=True)
class MaxCliqueResult:
    """A clique, whether it is proven maximum, the search work spent, and
    an exact upper bound on the clique number (``size`` when optimal)."""

    vertices: tuple[int, ...]
    optimal: bool
    expansions: int
    upper_bound: int

    @property
    def size(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True)
class CliqueStructure:
    """*All* maximal cliques of a universe whose conflicts form a matching: one size, a count."""

    size: int
    count: int


@dataclass(frozen=True)
class FamilyGraph:
    """The family-level facts of one instance, before any point is built.

    ``families`` are the addable families and ``spectra`` their Johnson
    spectra.  ``conflicts`` holds the index pairs ``a <= b`` of families
    with a squared distance outside the allowed set, in ascending order;
    ``a == b`` is a conflict inside one family.
    """

    params: Parameters
    families: tuple[CandidateFamily, ...]
    spectra: tuple[tuple[Fraction, ...], ...]
    conflicts: tuple[tuple[int, int], ...]

    @property
    def size(self) -> int:
        return sum(f.size for f in self.families)


@dataclass
class ClassificationReport:
    """The outcome of :func:`classify`.  ``capped``: the universe went over
    the materialization cap, and ``added_count`` is the largest
    self-compatible family."""

    graph: FamilyGraph
    added_count: int
    optimal: bool
    clique_structure: CliqueStructure | None = None
    capped: bool = False

    @property
    def maximal_set_cardinality(self) -> int:
        return self.graph.params.johnson_size + self.added_count


def family_pass(params: Parameters) -> FamilyGraph:
    """The :class:`FamilyGraph` of one instance.

    Raises unless every Johnson spectrum stays inside the allowed set:
    guaranteed by the addability filter, and everything downstream relies
    on it.
    """
    allowed = params.allowed_sq_dists()
    families = tuple(addable_families(params))
    spectra = tuple(johnson_family_spectrum(fam) for fam in families)
    for fam, spectrum in zip(families, spectra):
        if not set(spectrum) <= allowed:
            raise AssertionError(f"addable family {fam} fails the Johnson spectrum check")
    conflicts = tuple(
        (a, b)
        for a, fam in enumerate(families)
        for b in range(a, len(families))
        if (a != b or fam.size > 1) and not set(cross_family_spectrum(fam, families[b])) <= allowed
    )
    return FamilyGraph(params, families, spectra, conflicts)


def build_universe(graph: FamilyGraph, cap: int = DEFAULT_CAP) -> CandidateUniverse:
    """Materialize the points of ``graph``'s families and their conflict graph.

    Only the family pairs in ``graph.conflicts`` are tested.  The
    conflicts are generated per orbit.  One representative ``p0`` of each
    family with a conflicting partner family is tested against the points
    of its partner families only.  For any other point ``p`` of the
    orbit, the coordinate permutation sigma sending ``p0`` to ``p`` (both
    points' positions sorted by value) maps the neighbours of ``p0`` onto
    those of ``p``, since it preserves squared distances and every orbit.
    The edge count, the sum of orbit size times representative degree
    halved, is checked against ``cap`` before any edge is materialized.
    """
    if graph.size > cap:
        raise UniverseTooLarge(f"{graph.size} candidate points exceed the cap {cap}")

    partners: list[list[int]] = [[] for _ in graph.families]
    for a, b in graph.conflicts:
        partners[a].append(b)
        if a != b:
            partners[b].append(a)
    orbits = [tuple(fam.scaled_points()) for fam in graph.families]

    n = graph.params.n
    allowed = graph.params.allowed_sq_dists()
    harmless = {0} | {v * n * n for v in allowed}  # the point itself, or compatible
    near: dict[int, list[tuple[int, ...]]] = {}  # family -> conflicts of its first point
    twice_edges = 0
    for a, others in enumerate(partners):
        if others:
            p0 = orbits[a][0]
            near[a] = [
                q
                for b in others
                for q in orbits[b]
                if sum((x - y) * (x - y) for x, y in zip(p0, q)) not in harmless
            ]
            twice_edges += len(orbits[a]) * len(near[a])
    if twice_edges // 2 > cap:
        raise UniverseTooLarge(f"{twice_edges // 2} conflict edges exceed the cap {cap}")

    scaled = sorted(p for orbit in orbits for p in orbit)
    index = {p: i for i, p in enumerate(scaled)}
    conflicts = [0] * len(scaled)
    for a, neighbours in near.items():
        p0 = orbits[a][0]
        by_value = sorted(range(n), key=p0.__getitem__)
        for p in orbits[a]:
            source = [0] * n  # sigma(q)[j] == q[source[j]]
            for i, j in zip(by_value, sorted(range(n), key=p.__getitem__)):
                source[j] = i
            image = itemgetter(*source)
            mask = 0
            for q in neighbours:
                mask |= 1 << index[image(q)]
            conflicts[index[p]] = mask
    return CandidateUniverse(tuple(scaled), tuple(conflicts))


def _greedy_clique(candidates: int, conflicts: Sequence[int]) -> list[int]:
    clique: list[int] = []
    while candidates:
        v = (candidates & -candidates).bit_length() - 1
        clique.append(v)
        candidates &= ~(conflicts[v] | 1 << v)
    return clique


def _color_order(candidates: int, conflicts: Sequence[int]) -> tuple[list[int], list[int]]:
    """Greedy coloring into conflict cliques: vertices ordered by color
    class, with the class number as an upper bound on any clique inside the
    remaining set."""
    order: list[int] = []
    bounds: list[int] = []
    color = 0
    rest = candidates
    while rest:
        color += 1
        available = rest
        while available:
            v = (available & -available).bit_length() - 1
            bit = 1 << v
            order.append(v)
            bounds.append(color)
            rest ^= bit
            available = (available ^ bit) & conflicts[v]
    return order, bounds


def max_clique(universe: CandidateUniverse, budget: int = DEFAULT_BUDGET) -> MaxCliqueResult:
    """Branch-and-bound maximum clique on the conflict core.

    Universal vertices (no conflicts) join every maximal clique, so they
    are counted and left out of the search.  The remaining core is colored
    once, greedily, and relabelled in color order; each color class is a
    clique of the conflict graph, so a clique takes at most one vertex per
    class and the number of classes that still meet the candidate set
    bounds any extension.  The relabelling makes every class a run of
    labels ``s..e``; ``tops`` holds each ``e`` and ``below`` the rest, so
    a run's part of ``below`` is ``2**e - 2**s``.  Adding to it a nonempty
    subset of its own bits carries into bit ``e`` and never past it, which
    makes ``((candidates & below) + below | candidates) & tops`` the top
    bits of exactly the classes that meet ``candidates``.  That count runs
    only when the search enters a child.  Branching on ``v``, the top
    candidate, removes ``v`` and its conflict neighbors from the child's
    candidates; its siblings lose ``v`` alone, so their count is the
    parent's, less one when ``v``'s class keeps no lower candidate: one
    AND with ``start[v]``, the labels ``s..v-1``.  The compatible mask and
    the bit of each label are built once.  The depth-first search keeps
    the candidates and class count of its suspended levels on an explicit
    stack, so its depth is not bounded by the interpreter's recursion
    limit.

    ``budget`` caps vertex expansions; when exhausted the best clique so
    far is returned with ``optimal=False`` (a certified lower bound) next to
    ``upper_bound``, the universal count plus the number of root classes.
    The incumbent starts from one greedy clique of the core.
    """
    universal: list[int] = []
    core_mask = 0
    for v, mask in enumerate(universe.conflicts):
        if mask:
            core_mask |= 1 << v
        else:
            universal.append(v)

    order, colors = _color_order(core_mask, universe.conflicts)
    full = (1 << len(order)) - 1
    bits = [1 << i for i in range(universe.size)]
    bit_of = [0] * universe.size  # the bit of each core vertex's label
    for v, bit in zip(order, bits):
        bit_of[v] = bit
    compatible: list[int] = []  # the labels outside each core label's conflicts
    for v in order:
        rest = universe.conflicts[v]
        mask = 0
        while rest:
            u = rest.bit_length() - 1
            mask |= bit_of[u]
            rest ^= bits[u]
        compatible.append(full ^ mask)

    label = {v: i for i, v in enumerate(order)}
    best = [label[v] for v in _greedy_clique(core_mask, universe.conflicts)]

    classes = colors[-1] if colors else 0
    start: list[int] = []  # the labels of each label's color class below it
    for i, c in enumerate(colors):
        start.append(start[-1] | bits[i - 1] if i and colors[i - 1] == c else 0)
    below = reduce(or_, start, 0)  # all labels but the last of each class
    tops = full ^ below

    current: list[int] = []
    stack: list[tuple[int, int]] = []  # candidates and live classes of the suspended levels
    candidates = full
    live = classes  # the classes that still meet the candidates
    depth = 0
    best_size = len(best)
    expansions = 0
    optimal = True
    while True:
        # live is 0 only when no candidate is left, and the last candidate
        # of a level is a leaf that lifts the incumbent past the depth
        if depth + live > best_size:
            expansions += 1
            if expansions > budget:
                optimal = False
                break
            v = candidates.bit_length() - 1
            candidates ^= bits[v]
            if not candidates & start[v]:
                live -= 1  # v was the last candidate of its class
            rest = candidates & compatible[v]
            if rest:
                stack.append((candidates, live))
                current.append(v)
                depth += 1
                candidates = rest
                # the top bit of each class that still meets the candidates
                live = (((rest & below) + below | rest) & tops).bit_count()
            elif depth >= best_size:
                best = current + [v]
                best_size = depth + 1
        elif stack:  # this level is done
            candidates, live = stack.pop()
            current.pop()
            depth -= 1
        else:
            break

    vertices = tuple(sorted(universal + [order[i] for i in best]))
    upper_bound = len(vertices) if optimal else len(universal) + classes
    return MaxCliqueResult(vertices, optimal, expansions, upper_bound)


def maximal_clique_structure(universe: CandidateUniverse) -> CliqueStructure | None:
    """Size and count of *all* maximal cliques, when the conflicts form a matching.

    When every vertex has at most one conflict, every maximal clique
    consists of all unpaired vertices plus exactly one endpoint per
    conflicting pair: a clique cannot hold both endpoints, and skipping a
    vertex is only maximal when its partner is chosen.  That covers all
    2**pairs maximal cliques without listing them.  Returns None for any
    other conflict graph.
    """
    if any(mask & (mask - 1) for mask in universe.conflicts):
        return None
    pairs = sum(1 for mask in universe.conflicts if mask) // 2
    return CliqueStructure(universe.size - pairs, 2**pairs)


def verify_point_set(points: Sequence[Sequence], m: int, johnson: bool = False):
    """Check a point set realizes at most m distinct distances.

    Returns ``(ok, spectrum)`` with the exact sorted squared distances,
    each a Fraction when rational and a QuadNum otherwise.  With
    ``johnson=True`` the values must additionally all lie in {2, 4, ...,
    2m}, the distance set of the Johnson representation.
    """
    exact = IntPointSet(points)
    # coincident points have the value 0; the rest sort by exact ordering
    values = tuple(sorted(v for v in map(exact.value_of, exact.distinct_keys()) if v))

    ok = len(values) <= m
    if johnson:
        allowed = {2 * i for i in range(1, m + 1)}
        ok = ok and all(v in allowed for v in values)
    return ok, values


def _witness_vectors() -> Iterator[tuple[int, ...]]:
    """9 times each of the 132 vectors the 258-point witness adds to J(9, 4).

    Both fully addable orbits, the single deep-level vector whose lone
    negative coordinate sits last, and the 86 vectors of the large orbit
    whose negative coordinate follows both peak coordinates (84
    position-ordered ones plus two sporadic arrangements).
    """
    params = Parameters(9, 4)
    for fam in (CandidateFamily(params, 3, (7, 2)), CandidateFamily(params, -3, (1, 8))):
        yield from fam.scaled_points()
    # first arrangement: negative value last
    yield next(CandidateFamily(params, 3, (8, 0, 1)).scaled_points())

    big = CandidateFamily(params, -3, (2, 6, 1))
    peak, mid, low = big.scaled_levels()
    for p in big.scaled_points():
        if p.index(low) > max(i for i, c in enumerate(p) if c == peak):
            yield p
    yield (low, peak, peak) + (mid,) * 6
    yield (peak, low, peak) + (mid,) * 6


def four_distance_witness_points() -> list[tuple[Fraction, ...]]:
    """The 258-point four-distance set containing the n = 9 representation:
    the Johnson points, then the vectors of :func:`_witness_vectors`.
    Whether 258 is the true maximum is open; this set itself verifies.
    This is the paper's construction; :func:`classify` does not read it.
    """
    scaled = itertools.chain(scaled_johnson_points(Parameters(9, 4)), _witness_vectors())
    return [tuple(Fraction(c, 9) for c in p) for p in scaled]


def classify(
    params: Parameters,
    budget: int = DEFAULT_BUDGET,
    cap: int = DEFAULT_CAP,
) -> ClassificationReport:
    """Full classification of the maximal extensions for one instance.

    The :func:`family_pass` decides complete compatibility without touching
    points; only a conflicting universe is materialized and searched.  One
    whose points or conflict edges exceed ``cap`` is reported ``capped``,
    with the largest self-compatible family as a non-optimal count.  Every
    instance takes this one path: the open n = 9, m = 4 case is searched
    like any other, and its budgeted search reports a lower bound.
    """
    graph = family_pass(params)
    if not graph.conflicts:
        return ClassificationReport(graph, graph.size, True)
    try:
        universe = build_universe(graph, cap)
    except UniverseTooLarge:
        # the largest self-compatible orbit; one vertex is always addable,
        # so the bound never collapses to zero
        looped = {a for a, b in graph.conflicts if a == b}
        added = max((f.size for a, f in enumerate(graph.families) if a not in looped), default=1)
        return ClassificationReport(graph, added, False, capped=True)
    result = max_clique(universe, budget=budget)
    return ClassificationReport(
        graph, result.size, result.optimal, maximal_clique_structure(universe)
    )
