"""Exact scalars for the distance-set pipeline.

Two scalar kinds appear throughout: arbitrary-precision rationals and
elements of multiquadratic extensions of the rationals, i.e. finite sums
``c_1*sqrt(r_1) + c_2*sqrt(r_2) + ...`` with rational coefficients and
squarefree integer radicands.  Rationals are plain
:class:`fractions.Fraction`; :class:`QuadNum` is the radical layer as a
normal-form value: it is parsed, formatted, hashed, compared for equality
on its terms and ordered by an exact sign, and does no arithmetic.
Squared distances are computed by :class:`IntPointSet`, which rewrites a
whole point set as integer vectors over one denominator and radicand
basis, so that they are keyed by integers; the fixed-last-axis families
are solved in integers too (:mod:`jdist.subjohnson`).

No floating point feeds any decision, and a ``QuadNum`` has no float value.
"""

from __future__ import annotations

import math
import numbers
import re
import struct
import sys
from collections.abc import Iterable, Iterator, Mapping, Sequence
from fractions import Fraction
from itertools import chain
from operator import itemgetter, mul, sub
from typing import Union

Scalar = Union[int, Fraction, "QuadNum"]


class NegativeRadicand(ArithmeticError):
    """Square root of a negative rational was requested."""


class NegativeDiscriminant(ArithmeticError):
    """The quadratic has no real roots."""


# Largest integer that factorization accepts: trial division up to its
# square root stays below 10**6 steps.  Every radicand and n of the
# supported instances is many orders of magnitude smaller.
MAX_FACTOR_INPUT = 10**12


def prime_powers(n: int) -> list[tuple[int, int]]:
    """Prime factorization of ``1 <= n <= MAX_FACTOR_INPUT`` as ``(p, e)``
    pairs with increasing primes, by trial division.
    """
    if n < 1:
        raise ValueError(f"expected a positive integer, got {n}")
    if n > MAX_FACTOR_INPUT:
        raise ValueError(f"{n} is above the supported factorization bound {MAX_FACTOR_INPUT}")
    pairs = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            pairs.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        pairs.append((n, 1))
    return pairs


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Split ``n >= 1`` as ``s*s*f`` with ``f`` squarefree; return ``(s, f)``."""
    square, free = 1, 1
    for p, e in prime_powers(n):
        square *= p ** (e // 2)
        if e % 2:
            free *= p
    return square, free


class QuadNum:
    """A sum of rational multiples of square roots of squarefree integers.

    Normal form: ``terms`` is a tuple of ``(radicand, coefficient)`` pairs
    with ascending squarefree radicands and nonzero ``Fraction``
    coefficients; radicand 1 carries the rational part.  The constructor
    accepts a mapping or an iterable of pairs with int or ``Fraction``
    coefficients (anything else is a ``TypeError``), merges repeated
    radicands and drops zeros.  It factors each radicand above 1 with
    :func:`squarefree_decompose` (``sqrt(12)`` becomes ``2*sqrt(3)``);
    radicands 0 and 1 are never factored.  It runs a factoring half, then a
    merge half; terms whose radicands are squarefree already (:meth:`of`, an
    ordering's two sides, :meth:`IntPointSet.value_of`,
    :func:`solve_quadratic`, the values of a ``SubFamily``) go through the
    merge half alone.

    Distinct squarefree radicands are linearly independent over the
    rationals, so two values are equal exactly when their term tuples are
    identical, and a value is zero exactly when it has no terms.
    Instances are immutable and hashable; a purely rational QuadNum hashes
    like the equal Fraction.  An ordering against an int, a Fraction or a
    QuadNum is the exact :meth:`sign` of the value built from both sides'
    terms; a QuadNum does no other arithmetic.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, object] | Iterable[tuple[int, object]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        object.__setattr__(self, "_terms", _merged(_squarefree_terms(items)))

    @classmethod
    def _normal(cls, terms: Iterable[tuple[int, Fraction]]) -> "QuadNum":
        """The value of ``terms`` whose radicands are squarefree and whose
        coefficients are Fractions: the merge half of the constructor alone,
        which factors nothing."""
        value = object.__new__(cls)
        object.__setattr__(value, "_terms", _merged(terms))
        return value

    @staticmethod
    def of(value: Scalar) -> "QuadNum":
        if isinstance(value, QuadNum):
            return value
        return QuadNum._normal(((1, _rational(value)),))

    @property
    def terms(self) -> tuple[tuple[int, Fraction], ...]:
        return self._terms

    def is_rational(self) -> bool:
        return all(rad == 1 for rad, _ in self._terms)

    def as_fraction(self) -> Fraction:
        """The exact rational value; raises if an irrational term remains."""
        if not self._terms:
            return Fraction(0)
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self._terms[0][1]

    # -- comparisons -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QuadNum):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self._terms == _scalar_terms(other)
        if isinstance(other, numbers.Number):
            # an inexact number never compares silently, in either order
            raise TypeError(f"expected an exact scalar, got {other!r}")
        return NotImplemented

    def __hash__(self) -> int:
        if self.is_rational():
            return hash(self.as_fraction())
        return hash(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def sign(self) -> int:
        """Exact sign via interval refinement of the radicals.

        A nonzero QuadNum has a nonzero real value (distinct squarefree
        radicals are linearly independent over the rationals), so the
        refinement always terminates.
        """
        if not self._terms:
            return 0
        if len(self._terms) == 1:
            return 1 if self._terms[0][1] > 0 else -1
        prec = 16
        while True:
            lo = hi = Fraction(0)
            scale = 1 << prec
            for rad, coeff in self._terms:
                s = math.isqrt(rad * scale * scale)
                root_lo = Fraction(s, scale)
                root_hi = Fraction(s + 1, scale)
                if coeff >= 0:
                    lo += coeff * root_lo
                    hi += coeff * root_hi
                else:
                    lo += coeff * root_hi
                    hi += coeff * root_lo
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            prec *= 2

    def _cmp(self, other: Scalar) -> int:
        """The sign of ``self - other``: one normal form of the merged terms."""
        negated = ((rad, -coeff) for rad, coeff in _scalar_terms(other))
        return QuadNum._normal((*self._terms, *negated)).sign()

    def __lt__(self, other: Scalar) -> bool:
        return self._cmp(other) < 0

    def __le__(self, other: Scalar) -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other: Scalar) -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other: Scalar) -> bool:
        return self._cmp(other) >= 0

    def __str__(self) -> str:
        return format_quad(self)

    def __repr__(self) -> str:
        return f"QuadNum({format_quad(self)!r})"


def _squarefree_terms(items: Iterable[tuple[int, object]]) -> Iterator[tuple[int, Fraction]]:
    """The factoring half of the constructor: each term with a Fraction
    coefficient and a squarefree radicand, radicand-0 and zero terms
    dropped; only radicands above 1 are factored."""
    for rad, coeff in items:
        if rad < 0:
            raise NegativeRadicand(f"negative radicand {rad}")
        if type(coeff) is not Fraction:
            coeff = _rational(coeff)
        if rad == 0 or not coeff:
            continue
        if rad != 1:
            s, rad = squarefree_decompose(rad)
            if s != 1:
                coeff *= s
        yield rad, coeff


def _merged(terms: Iterable[tuple[int, Fraction]]) -> tuple[tuple[int, Fraction], ...]:
    """The merge half of the constructor: squarefree terms with repeated
    radicands summed, zeros dropped, in ascending radicand order."""
    acc: dict[int, Fraction] = {}
    for rad, coeff in terms:
        if rad in acc:
            coeff += acc.pop(rad)
        if coeff:
            acc[rad] = coeff
    return tuple(sorted(acc.items()))


def _rational(value: object) -> Fraction:
    """An exact rational as a Fraction: only int and Fraction qualify, so a
    float or a string never reaches exact arithmetic."""
    if isinstance(value, Fraction):
        return value
    if not isinstance(value, int):
        raise TypeError(f"expected an exact scalar, got {value!r}")
    return Fraction(value)


def _scalar_terms(value: Scalar) -> tuple[tuple[int, Fraction], ...]:
    """The terms of ``QuadNum.of(value)``, without building it; only int,
    Fraction and QuadNum are exact scalars."""
    if isinstance(value, QuadNum):
        return value.terms
    value = _rational(value)
    return ((1, value),) if value else ()


class IntPointSet:
    """A point set as integer vectors over one denominator and radicand basis.

    Every coordinate of every point is written ``(x_0 + x_1*sqrt(r_1) +
    ...) / D`` with integers ``x_i``, one common denominator ``D`` and one
    ascending squarefree basis ``radicands = (1, r_1, ...)`` shared by the
    whole set.  Within one construction each distinct coordinate object is
    converted once, in a table keyed by its ``id``: a tuple of each point
    holds every object for the whole call, so no id is reused, even for a
    point such as a ``range`` that makes new objects on each iteration; no
    value is hashed, so a float equal to an exact coordinate is still
    refused.  Each ``x_i`` is translated by its minimum over that table,
    one constant vector, so that every component is ``>= 0``; a
    translation changes no distance.  A point of no coordinates is read as
    one zero coordinate.

    The squared distance of two points is a sum of products ``x_i*x_j``,
    and ``sqrt(r_i*r_j) = s*sqrt(f)`` with ``f`` squarefree; the plan of
    those ``f``, ascending from 1, is built once per set.  The key of a
    squared distance is the tuple of its coefficients times ``D^2``, one
    integer per ``f`` of the plan, zeros kept.  Distinct squarefree
    radicands are linearly independent and the scale is shared, so two
    squared distances of one set are equal exactly when their keys are,
    and coincident points have the all-zero key.  Keys of different sets
    do not compare; :meth:`value_of` is the one place a key becomes an
    exact value.

    Keys come from the Gram form: on each ``f`` the coefficient is ``D(p,
    q) = B(p, p) + B(q, q) - 2B(p, q)`` for a symmetric bilinear ``B(p, q)
    = <L(p), R(q)>`` gathered coordinate by coordinate (see
    :func:`_layout`), with all components ``>= 0``.  The norms are folded
    into the fields: with ``C`` the largest norm ``B(q, q)`` on f, each
    point has the ``k`` components ``L(p), 1`` and ``2R(q), C - B(q, q)``.
    The dot products are packed (Kronecker substitution): the second of all
    points lie end to end in one byte string of little-endian fields of
    ``w`` bytes, and the first of each point, reversed, is one integer.
    Multiplying it by the integer of the fields of a run of points puts
    ``B(a, a) + C - D(a, q)`` in field ``(j + 1)k - 1`` of the product, for
    the j-th point q of the run, so a key is ``top - field`` with ``top =
    B(a, a) + C``.  Each field of the product pairs the 1 with one
    component, at most one ``C - B(q, q)`` with a component of ``L`` and at
    most ``k - 1`` components of ``L`` with ``2R``, so it lies in ``[0, (k
    - 1) * max L * max 2R + (max L + 1) * E + max 2R]`` with ``E`` the
    largest ``C - B(q, q)``; ``w`` is the fewest bytes (1, 2, 4 or 8, or the
    exact count above 8) that hold this bound, so no carry crosses a
    field.  :meth:`row_keys` and :meth:`distinct_keys` take one such
    product per ``f`` for one point against a run of points, collect its
    distinct fields in one set (of tuples over several ``f``) and subtract
    ``top`` from those alone.
    """

    __slots__ = ("radicands", "denominator", "_size", "_plan", "_forms")

    def __init__(self, points: Iterable[Sequence[Scalar]]):
        # a tuple of each point holds every coordinate object for the whole
        # call, also where iterating a range or an array makes new ones
        points = [tuple(p) for p in points]
        dim = len(points[0]) if points else 0
        if set(map(len, points)) - {dim}:
            raise ValueError("points have mixed dimensions")
        if not dim:  # so that every point has a field to pack
            dim, points = 1, [(0,)] * len(points)
        self._size = len(points)
        # each coordinate object once; no id is reused while the tuples live
        objects = dict(zip(map(id, chain.from_iterable(points)), chain.from_iterable(points)))
        terms = {key: dict(_scalar_terms(c)) for key, c in objects.items()}
        radicands, denominators = {1}, {1}
        for c in terms.values():
            radicands.update(c)
            denominators.update(coeff.denominator for coeff in c.values())
        self.radicands = tuple(sorted(radicands))
        self.denominator = math.lcm(*denominators)
        # id -> the integers x_i of one coordinate, translated
        scale, basis = self.denominator, self.radicands
        integers = {key: [int(c.get(r, 0) * scale) for r in basis] for key, c in terms.items()}
        low = [min(column) for column in zip(*integers.values())]
        components = {key: tuple(map(sub, x, low)) for key, x in integers.items()}

        # f -> the (i, j, weight) whose products x_i*x_j land on sqrt(f):
        # a square r_i^2 on f = 1 with weight r_i, and for i < j the cross
        # term 2*x_i*x_j*sqrt(r_i*r_j) = 2g*x_i*x_j*sqrt((r_i/g)*(r_j/g))
        plan: dict[int, list[tuple[int, int, int]]] = {}
        for i, r in enumerate(self.radicands):
            plan.setdefault(1, []).append((i, i, r))
            for j in range(i + 1, len(self.radicands)):
                g = math.gcd(r, self.radicands[j])
                f = (r // g) * (self.radicands[j] // g)
                plan.setdefault(f, []).append((i, j, 2 * g))
        self._plan = tuple((f, tuple(plan[f])) for f in sorted(plan))
        # each point as the ids of its coordinates, then None for the
        # component that folds in the norms
        rows = [[*map(id, p), None] for p in points]
        layouts = [_layout(products, len(basis)) for _, products in self._plan]
        self._forms = tuple(_gram_forms(layout, components, rows, dim) for layout in layouts)

    def row_keys(self, a: int, start: int, stop: int) -> list[tuple[int, ...]]:
        """Keys of point ``a`` against points ``start, ..., stop - 1``, for
        ``0 <= start <= stop <= size``."""
        items, keys = _gram_row(self._forms, a, start, stop)
        return list(map(keys.__getitem__, items))

    def distinct_keys(self) -> set[tuple[int, ...]]:
        """The set of keys over all pairs ``i < j``, the all-zero key when
        two points coincide; each row's distinct fields are collected in
        one set."""
        size = self._size
        keys = set()
        for a in range(size - 1):
            keys.update(_gram_row(self._forms, a, a + 1, size)[1].values())
        return keys

    def value_of(self, key: tuple[int, ...]) -> Fraction | QuadNum:
        """The exact squared distance of a key: a Fraction when only its
        ``f = 1`` entry, the first, is nonzero."""
        scale = self.denominator**2
        if not any(key[1:]):
            return Fraction(key[0], scale)
        return QuadNum._normal((f, Fraction(v, scale)) for (f, _), v in zip(self._plan, key))


def _layout(products: tuple[tuple[int, int, int], ...], basis: int):
    """Where ``B(p, q) = <L(p), R(q)>`` on one f reads one coordinate's
    ``basis`` integers ``x_i``.

    The f coefficient of ``|p - q|^2`` sums ``weight * <p_i - q_i, p_j -
    q_j>`` over the plan entries ``(i, j, weight)`` of f, with ``p_i`` the
    ``x_i`` of all coordinates of p.  That is ``B(p, p) + B(q, q) - 2B(p,
    q)`` when ``L(p)`` joins, coordinate by coordinate, the ``x_i`` of a
    square ``(i, i, r)`` and the ``x_i, x_j`` of a cross term ``(i, j,
    2g)``, and ``R(q)`` joins the matching ``r * x_i`` and ``g * x_j, g *
    x_i``.  Returns the gathers of ``L`` and ``R`` and the factors of
    ``2R``, all even.
    """
    pairs = []  # (index in L, index in R, factor of 2R)
    for i, j, weight in products:
        pairs += [(i, i, 2 * weight)] if i == j else [(i, j, weight), (j, i, weight)]
    left, right, factors = zip(*pairs)
    return _gather(left, basis), _gather(right, basis), factors


def _gather(indices: tuple[int, ...], size: int):
    """A function taking ``v[i]`` for every ``i`` of ``indices``, as a tuple."""
    if indices == tuple(range(size)):
        return tuple  # all of v, which a tuple returns without a copy
    # any other gather reads a cross term's two integers, so at least two
    # indices, and itemgetter returns a tuple
    return itemgetter(*indices)


# struct and memoryview.cast codes of the field widths that a little-endian
# host packs and reads natively; any other width, and every width on a
# big-endian host, goes through int.to_bytes and int.from_bytes
_FIELD_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"} if sys.byteorder == "little" else {}


def _field_width(bound: int) -> int:
    """The bytes of a field that holds every integer of ``[0, bound]``:
    the fewest of 1, 2, 4 or 8, or the exact count above 8 bytes."""
    need = max(1, (bound.bit_length() + 7) // 8)
    return next((width for width in _FIELD_CODES if width >= need), need)


def _pack(values: Sequence[int], width: int) -> bytes:
    """``values``, each in ``[0, 256**width)``, as little-endian fields."""
    code = _FIELD_CODES.get(width)
    if code is None:
        return b"".join(v.to_bytes(width, "little") for v in values)
    return struct.pack(f"<{len(values)}{code}", *values)


def _fields(data: bytes, width: int, first: int, step: int) -> Sequence[int]:
    """Fields ``first, first + step, ...`` of little-endian ``data``."""
    code = _FIELD_CODES.get(width)
    if code is None:
        starts = range(first * width, len(data), step * width)
        return [int.from_bytes(data[i : i + width], "little") for i in starts]
    return memoryview(data).cast(code)[first::step]


def _gram_forms(layout, components, rows, dim: int) -> tuple[list, list, memoryview, int, int]:
    """One f's tops ``B(p, p) + C``, reversed ``L(p), 1`` integers, packed
    ``2R(q), C - B(q, q)`` fields, component count ``k`` and field width,
    for the points ``rows`` (coordinate ids, then None) of ``dim``
    coordinates whose integers are ``components``, with the given
    :func:`_layout`."""
    take_left, take_right, factors = layout
    # per coordinate object, its L, its 2R and its share of a norm B(p, p);
    # None stands for the folded component, whose 2R entry is set below
    left = {key: take_left(x) for key, x in components.items()}
    right = {key: tuple(map(mul, factors, take_right(x))) for key, x in components.items()}
    share = {key: sum(map(mul, left[key], right[key])) >> 1 for key in components}
    max_left = max(chain.from_iterable(left.values()), default=0)
    max_right = max(chain.from_iterable(right.values()), default=0)
    left[None], right[None], share[None] = (1,), (0,), 0
    norms = [sum(map(share.__getitem__, row)) for row in rows]
    cap = max(norms, default=0)  # C
    extra = cap - min(norms, default=0)  # the largest C - B(q, q)
    count = len(factors) * dim + 1
    keys = list(chain.from_iterable(rows))
    flat_lefts = list(chain.from_iterable(map(left.__getitem__, keys)))
    flat_rights = list(chain.from_iterable(map(right.__getitem__, keys)))
    flat_rights[count - 1 :: count] = [cap - n for n in norms]
    # a field pairs the 1 with one component of R, at most one C - B(q, q)
    # with a component of L, and at most k - 1 components of L with 2R
    width = _field_width((count - 1) * max_left * max_right + (max_left + 1) * extra + max_right)
    step = count * width  # bytes of one point's fields
    # all L reversed at once, so the points come last first: the reversed L
    # of point p ends p * step bytes before the end
    flipped = memoryview(_pack(flat_lefts[::-1], width))
    ends = range(len(flipped), 0, -step)
    packed_lefts = [int.from_bytes(flipped[end - step : end], "little") for end in ends]
    packed_rights = memoryview(_pack(flat_rights, width))
    return [n + cap for n in norms], packed_lefts, packed_rights, count, width


def _gram_row(forms, a: int, start: int, stop: int) -> tuple[Sequence, dict]:
    """Point ``a`` against the points ``q = start, ..., stop - 1``, from one
    product per f: one item per q, its field ``top - D(a, q)`` with ``top =
    B(a, a) + C`` for one f and the tuple of those fields for several, and
    a dict from each distinct item to its key, ``D(a, q)`` per f."""
    tops, fields = [], []
    for f_tops, lefts, rights, count, width in forms:
        step = count * width  # bytes of one point's fields
        run = int.from_bytes(rights[start * step : stop * step], "little")
        # no carry crosses a field, so the product ends at the field where
        # the top fields of both factors meet, (stop - start + 1) * count - 2;
        # field (j + 1) * count - 1 belongs to the j-th point of the run
        product = (run * lefts[a]).to_bytes((stop - start + 1) * step - width, "little")
        tops.append(f_tops[a])
        fields.append(_fields(product, width, count - 1, count))
    if len(fields) == 1:
        items = fields[0]
        return items, {v: (tops[0] - v,) for v in set(items)}
    items = list(zip(*fields))
    return items, {v: tuple(map(sub, tops, v)) for v in set(items)}


def solve_quadratic(a: object, b: object, c: object) -> tuple[QuadNum, QuadNum]:
    """Both exact roots of ``a*x^2 + b*x + c = 0``, minus-branch first.

    The roots are ``-b/2a -+ (s/den)/2a * sqrt(f)``, built in normal form
    from one squarefree split ``s*s*f`` of the discriminant's numerator
    times its denominator ``den``, with no ring arithmetic.  A vanishing
    discriminant gives one rational root, returned twice.  When the
    discriminant is a rational square, ``f = 1`` and the constructor merges
    the two radicand-1 terms into one rational root.
    """
    a, b, c = _rational(a), _rational(b), _rational(c)
    if a == 0:
        raise ValueError("leading coefficient must be nonzero")
    disc = b * b - 4 * a * c
    if disc < 0:
        raise NegativeDiscriminant(f"discriminant {disc} < 0")
    center = -b / (2 * a)
    if disc == 0:
        root = QuadNum.of(center)
        return root, root
    s, f = squarefree_decompose(disc.numerator * disc.denominator)
    half = Fraction(s, disc.denominator) / (2 * a)
    return QuadNum._normal(((1, center), (f, -half))), QuadNum._normal(((1, center), (f, half)))


# -- serialization -------------------------------------------------------
#
# Rationals print as "p/q" with "/q" omitted for integers (the native
# Fraction format).  QuadNums print as "+"-joined terms "c*sqrt(r)" with a
# bare "c" for radicand 1; term order is ascending radicand.  Both formats
# round-trip bit-exactly.

_TERM_RE = re.compile(r"^(-?\d+(?:/\d+)?)(?:\*sqrt\((\d+)\))?$")


def format_ratio(num: int, den: int) -> str:
    """``str(Fraction(num, den))`` for integers, without building the Fraction."""
    if den == 0:
        raise ZeroDivisionError(f"Fraction({num}, 0)")
    g = math.gcd(num, den)
    if den < 0:
        g = -g
    num //= g
    den //= g
    return str(num) if den == 1 else f"{num}/{den}"


def parse_rational(text: str) -> Fraction:
    return Fraction(text)


def format_quad(value: Scalar) -> str:
    q = QuadNum.of(value)
    if not q.terms:
        return "0"
    parts = []
    for rad, coeff in q.terms:
        parts.append(str(coeff) if rad == 1 else f"{coeff}*sqrt({rad})")
    return "+".join(parts)


def parse_quad(text: str) -> QuadNum:
    text = text.strip()
    if text == "0":
        return QuadNum()
    terms = []
    for part in text.split("+"):
        match = _TERM_RE.match(part.strip())
        if not match:
            raise ValueError(f"cannot parse scalar term {part!r}")
        try:
            coeff = Fraction(match.group(1))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in scalar term {part!r}") from None
        rad = int(match.group(2)) if match.group(2) else 1
        terms.append((rad, coeff))
    return QuadNum(terms)
