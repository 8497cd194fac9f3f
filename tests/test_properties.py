"""Property tests: integer point keys and serialization against ring
arithmetic on QuadNum terms, and the report JSON encoder against the stdlib
one.

Random inputs come from seeded ``random.Random`` streams, so every run
checks the same cases.
"""

import enum
import itertools
import json
import math
import random
from array import array
from fractions import Fraction as F

import pytest

import jdist.exactnum
from jdist.cli import write_json
from jdist.exactnum import (
    IntPointSet,
    NegativeDiscriminant,
    NegativeRadicand,
    QuadNum,
    format_quad,
    parse_quad,
    solve_quadratic,
)
from jdist.maximality import four_distance_witness_points, verify_point_set
from jdist.subjohnson import congruent, union_points
from quadref import add, mul, neg, sqrt

RADICANDS = (1, 2, 3, 5, 6, 15, 21)


def rand_coefficient(rng):
    return F(rng.randrange(-36, 37), rng.randrange(1, 13))


def rand_quad(rng):
    return QuadNum({rad: rand_coefficient(rng) for rad in rng.sample(RADICANDS, rng.randrange(4))})


def rand_scalar(rng):
    kind = rng.randrange(3)
    if kind == 0:
        return rand_quad(rng)
    if kind == 1:
        return rand_coefficient(rng)
    return rng.randrange(-3, 4)


def quad_sq_dist(p, q):
    diffs = [add(a, neg(b)) for a, b in zip(p, q)]
    return add(*(mul(d, d) for d in diffs))


def assert_keys_track_values(exact, keyed):
    """``keyed`` holds ``(key, value)`` pairs of one set ``exact``, each
    value from ring arithmetic: ``value_of`` gives the value back, a
    Fraction exactly when it is rational, the all-zero key is the key of
    0, and two keys are equal exactly when their values are."""
    for key, value in keyed:
        got = exact.value_of(key)
        assert got == value and isinstance(got, F) == value.is_rational()
        assert any(key) == bool(value)
    values = dict(keyed)  # key -> value; equal keys have one value_of
    assert len(set(values.values())) == len(values)


def test_keys_match_quadnum_arithmetic():
    rng = random.Random(2012)
    for _ in range(150):
        dim = rng.randrange(1, 5)
        points = [tuple(rand_scalar(rng) for _ in range(dim)) for _ in range(rng.randrange(2, 6))]
        # repeat a point now and then so that equal distances occur
        points.append(rng.choice(points))
        exact = IntPointSet(points)
        pairs = itertools.combinations_with_replacement(range(len(points)), 2)
        keyed = []
        for i, j in pairs:
            (key,) = exact.row_keys(i, j, j + 1)
            keyed.append((key, quad_sq_dist(points[i], points[j])))
        assert_keys_track_values(exact, keyed)


def assert_rows_match(points, rng):
    """Every full row, one random run per row and the distinct keys of
    ``IntPointSet(points)`` against ring arithmetic; returns the set."""
    exact = IntPointSet(points)
    count = len(points)
    rows = []
    for a in range(count):
        keys = exact.row_keys(a, 0, count)
        assert len(keys) == count
        rows.append(keys)
        start = rng.randrange(count + 1)
        stop = rng.randrange(start, count + 1)
        assert exact.row_keys(a, start, stop) == keys[start:stop]
    pairs = itertools.product(range(count), repeat=2)
    keyed = [(rows[a][b], quad_sq_dist(points[a], points[b])) for a, b in pairs]
    assert_keys_track_values(exact, keyed)
    distinct = exact.distinct_keys()
    assert distinct == {rows[a][b] for a, b in itertools.combinations(range(count), 2)}
    assert any(not any(key) for key in distinct) == (len(set(points)) < count)
    return exact


def test_row_and_distinct_keys_match_quadnum_arithmetic():
    rng = random.Random(1709)
    sizes = [0, 1] + [rng.randrange(2, 7) for _ in range(120)]
    for size in sizes:
        dim = rng.randrange(1, 5)
        points = [tuple(rand_scalar(rng) for _ in range(dim)) for _ in range(size)]
        if size > 1 and rng.randrange(2):
            points.insert(rng.randrange(size), rng.choice(points))  # a coincident pair
        assert_rows_match(points, rng)


@pytest.mark.parametrize("radicands", [(1,), (1, 5), (1, 2, 3)])
def test_block_keys_match_row_keys(radicands):
    # one read of a run serves every row of a block: each block row is the
    # row_keys row of its point, and its keys give the ring-arithmetic values
    rng = random.Random(35 + len(radicands))
    for _ in range(40):
        dim, size = rng.randrange(1, 4), rng.randrange(1, 7)

        def coordinate():
            chosen = rng.sample(radicands, rng.randrange(len(radicands) + 1))
            return QuadNum({rad: rand_coefficient(rng) for rad in chosen})

        points = [tuple(coordinate() for _ in range(dim)) for _ in range(size)]
        every = QuadNum({rad: F(rng.randrange(1, 37), rng.randrange(1, 13)) for rad in radicands})
        points[0] = (every, *points[0][1:])  # so that the basis holds every radicand
        exact = IntPointSet(points)
        assert exact.radicands == radicands
        last = size - 1
        runs = [(0, 0), (last, last), (last, size), (0, 1), (0, size)]
        runs.append(sorted(rng.sample(range(size + 1), 2)))
        blocks = [[], [last], [0], list(range(size)), rng.sample(range(size), rng.randrange(size + 1))]
        for start, stop in runs:
            for rows in blocks:
                block = exact.block_keys(rows, start, stop)
                assert block == [exact.row_keys(a, start, stop) for a in rows]
                for a, row in zip(rows, block):
                    assert len(row) == stop - start
                    for b, key in enumerate(row, start):
                        assert exact.value_of(key) == quad_sq_dist(points[a], points[b])


def test_packed_keys_with_coefficients_above_64_bits():
    # denominators of about 10**30, as sub2 makes them, and numerators past
    # 2**64: the packed fields are wider than 8 bytes
    rng = random.Random(3064)

    def big():
        return F(rng.randrange(-(2**70), 2**70), rng.randrange(10**29, 10**30))

    for _ in range(25):
        dim = rng.randrange(1, 4)
        scalar = (lambda: QuadNum({1: big(), 5: big()})) if rng.randrange(2) else big
        points = [tuple(scalar() for _ in range(dim)) for _ in range(rng.randrange(2, 5))]
        points.append(rng.choice(points))
        exact = assert_rows_match(points, rng)
        assert max(abs(v) for key in exact.distinct_keys() for v in key) > 2**64


def test_packed_keys_over_three_or_more_radicands():
    # with radicands beyond 1, L and R differ: R carries the weights r of
    # the squares and the swapped blocks of the cross terms
    rng = random.Random(3333)
    for _ in range(60):
        rads = (1, *rng.sample((2, 3, 5, 6, 7, 10, 15, 21, 30), rng.randrange(2, 5)))
        dim = rng.randrange(1, 4)

        def coordinate():
            chosen = rng.sample(rads, rng.randrange(4))
            return QuadNum({rad: rand_coefficient(rng) for rad in chosen})

        points = [tuple(coordinate() for _ in range(dim)) for _ in range(rng.randrange(2, 6))]
        every = QuadNum({rad: F(rng.randrange(1, 37), rng.randrange(1, 13)) for rad in rads})
        points[0] = (every, *points[0][1:])  # so that the basis holds every radicand
        points.append(rng.choice(points))
        exact = assert_rows_match(points, rng)
        assert len(exact.radicands) >= 3


def largest_packed_field(points):
    """The largest field of every product of the packed kernel, by plain
    convolution, for 2-D integer points whose least coordinate is 0: L(p),
    1 = (x, y, 1) and 2R(q), C - B(q, q) = (2x, 2y, C - |q|^2)."""
    norms = [x * x + y * y for x, y in points]
    right = [v for (x, y), norm in zip(points, norms) for v in (2 * x, 2 * y, max(norms) - norm)]
    largest = 0
    for x, y in points:
        fields = [0] * (len(right) + 2)
        for shift, factor in enumerate((1, y, x)):  # L(p), 1 reversed
            for t, v in enumerate(right, shift):
                fields[t] += factor * v
        largest = max(largest, *fields)
    return largest


def edge_points(total):
    """Three 2-D integer points whose largest packed field is ``total``:
    (t, s) against the origin and then (u, v) makes the field t(t^2 + s^2)
    + 2su + 2v."""
    for t in range(round(total ** (1 / 3)), 0, -1):
        s = math.isqrt(max(0, total // t - t * t))
        rest = total - t * (t * t + s * s)
        if 0 < s <= t and rest % 2 == 0:
            u, v = divmod(rest // 2, s)
            points = [(t, s), (0, 0), (u, v)]
            if u <= t and largest_packed_field(points) == total:
                return points
    raise AssertionError(f"no edge points for {total}")


@pytest.mark.parametrize("width", [1, 2, 4, 8, 9])
def test_packed_keys_at_field_bounds(width, monkeypatch):
    # a field of w bytes holds the bound of the packed kernel up to
    # 256**w - 1; at 256**w the next width is taken
    assert jdist.exactnum._field_width(256**width - 1) == width
    assert jdist.exactnum._field_width(256**width) > width
    # points in [0, top] with 0 and top: C = top^2, the components are L(x),
    # 1 = x, 1 and 2R(x), C - B(x, x) = 2x, top^2 - x^2, so k = 2 and the
    # bound is top * 2top + (top + 1) * top^2 + 2top = top(top + 1)(top + 2);
    # the field of top against 0 is top^3.  The largest top with the bound
    # below 256**w and the next one straddle the width
    top = round(256 ** (width / 3)) - 1
    if top * (top + 1) * (top + 2) >= 256**width:
        top -= 1
    assert jdist.exactnum._field_width(top * (top + 1) * (top + 2)) == width
    assert jdist.exactnum._field_width((top + 1) * (top + 2) * (top + 3)) > width
    rng = random.Random(width)
    sets = []
    for end in (top, top + 1):
        sets.append([(0,), (end,)] + [(rng.randrange(end + 1),) for _ in range(4)])
    # points in [0, corner]^2 with the origin and (corner, corner), on both
    # sides of 256**w = 4 corner^2, the bound of the layout without norms
    for corner in (2 ** (4 * width - 1) - 1, 2 ** (4 * width - 1)):
        inner = [(rng.randrange(corner + 1), rng.randrange(corner + 1)) for _ in range(4)]
        sets.append([(0, 0), (corner, corner)] + inner)
    # one field exactly 256**w, the largest of the set: a width of w bytes
    # would carry it into the next field
    edge = edge_points(256**width)
    exact = IntPointSet(edge)
    assert exact._forms[0][4] == jdist.exactnum._field_width(256**width) > width
    sets.append(edge)
    for points in sets:
        assert_rows_match(points, rng)
        # the int.to_bytes fields that a big-endian host takes at every width
        with monkeypatch.context() as patch:
            patch.setattr(jdist.exactnum, "_FIELD_CODES", {})
            assert_rows_match(points, rng)


@pytest.mark.parametrize("scale", [10, 10**3, 10**6, 10**12, 10**24])
def test_packed_keys_with_one_far_point(scale, monkeypatch):
    # the far point sets the largest norm C, so the folded components C -
    # B(q, q) of the points near the origin are the largest of R, and the
    # fields that pair them with L are the largest of each product
    rng = random.Random(scale)
    for dim in (1, 3):
        def small():
            return QuadNum({1: rand_coefficient(rng), 2: F(rng.randrange(3), 5)})

        near = [tuple(small() for _ in range(dim)) for _ in range(12)]
        far = tuple(QuadNum({1: F(scale * rng.randrange(1, 9), 7), 2: scale}) for _ in range(dim))
        points = near[:6] + [far] + near[6:]
        exact = assert_rows_match(points, rng)
        assert len(exact.radicands) == 2
        with monkeypatch.context() as patch:
            patch.setattr(jdist.exactnum, "_FIELD_CODES", {})
            assert_rows_match(points, rng)


def test_each_coordinate_object_is_converted_once(monkeypatch):
    calls = []
    original = jdist.exactnum._scalar_terms

    def counted(value):
        calls.append(id(value))
        return original(value)

    monkeypatch.setattr(jdist.exactnum, "_scalar_terms", counted)
    # the witness as verify reads it: one object per distinct value
    shared = {}
    witness = [tuple(shared.setdefault(c, c) for c in p) for p in four_distance_witness_points()]
    union = union_points(9, ("S1+", "S3-", "S4-"))
    for points, objects in ((witness, 8), (union, None)):
        calls.clear()
        exact = IntPointSet(points)
        ids = {id(c) for p in points for c in p}
        assert sorted(calls) == sorted(ids)
        assert objects is None or len(ids) == objects
        assert len(calls) < sum(map(len, points)) / 10
        # the keys are those of each coordinate converted on its own
        (key,) = exact.row_keys(0, len(points) - 1, len(points))
        assert exact.value_of(key) == quad_sq_dist(points[0], points[-1])


@pytest.mark.parametrize(
    "call",
    [
        lambda points: IntPointSet(points),
        lambda points: congruent(points, [(0, 0), (1, 1)]),
        lambda points: congruent([(0, 0), (1, 1)], points),
        lambda points: verify_point_set(points, 2),
    ],
    ids=["IntPointSet", "congruent", "congruent-second", "verify_point_set"],
)
def test_a_float_equal_to_a_coordinate_seen_is_refused(call):
    # each coordinate object is converted, so 1.0 is refused after 1
    with pytest.raises(TypeError, match="expected an exact scalar"):
        call([(1, 0), (1.0, 0)])


def brute_congruent(set_a, set_b):
    """Whether some bijection keeps every squared distance, trying them all
    on ring-arithmetic distances."""
    if len(set_a) != len(set_b):
        return False
    da = [[quad_sq_dist(p, q) for q in set_a] for p in set_a]
    db = [[quad_sq_dist(p, q) for q in set_b] for p in set_b]
    pairs = list(itertools.combinations(range(len(set_a)), 2))
    return any(
        all(da[i][j] == db[image[i]][image[j]] for i, j in pairs)
        for image in itertools.permutations(range(len(set_b)))
    )


def test_congruent_over_sqrt2_and_sqrt3():
    # coordinates that mix sqrt(2) and sqrt(3) put the cross terms on
    # sqrt(6): the keys have one entry for each f = 1, 2, 3 and 6
    rng = random.Random(2361)

    def coordinate():
        return QuadNum({rad: rand_coefficient(rng) for rad in (1, 2, 3)})

    for _ in range(4):
        points = [tuple(coordinate() for _ in range(3)) for _ in range(6)]
        assert [f for f, _ in IntPointSet(points)._plan] == [1, 2, 3, 6]
        # shuffled points, permuted coordinates and a constant vector added
        axes, shift = rng.sample(range(3), 3), [coordinate() for _ in range(3)]
        moved = [tuple(add(p[i], c) for i, c in zip(axes, shift)) for p in rng.sample(points, 6)]
        # one coordinate of one point negated
        flipped = list(moved)
        pos, axis = rng.randrange(6), rng.randrange(3)
        flipped[pos] = tuple(neg(c) if i == axis else c for i, c in enumerate(moved[pos]))
        for other, expected in ((moved, True), (flipped, False)):
            assert brute_congruent(points, other) is expected
            assert congruent(points, other) is expected
            assert congruent(other, points) is expected


def test_points_that_make_new_coordinates_on_each_iteration():
    # iterating a range or an array point makes new int objects each time,
    # so the id of one may be freed and reused by another value
    rng = random.Random(1003)
    rows = [[rng.randrange(-500, 500) for _ in range(3)] for _ in range(9)]
    starts = (1000, 1000, 1500)  # two coincident range points
    tuples = [tuple(row) for row in rows] + [tuple(range(a, a + 3)) for a in starts]
    expected = assert_rows_match(tuples, rng)
    size = len(tuples)
    for points in (
        [array("q", row) for row in rows] + [range(a, a + 3) for a in starts],
        [iter(p) for p in tuples],  # read once, as any iterable point
    ):
        exact = IntPointSet(points)
        for a in range(size):
            assert exact.row_keys(a, 0, size) == expected.row_keys(a, 0, size)
        assert exact.distinct_keys() == expected.distinct_keys()
    made = [array("q", row) for row in rows] + [range(a, a + 3) for a in starts]
    assert verify_point_set(made, 60) == verify_point_set(tuples, 60)
    assert verify_point_set(made, 60)[0]


def test_packed_keys_of_degenerate_sets():
    # a key has one entry per f of the plan, f = 1 first, zeros kept
    assert IntPointSet([]).distinct_keys() == set()
    single = IntPointSet([(F(1, 2), QuadNum({2: 1}))])  # f = 1, 2
    assert single.distinct_keys() == set()
    assert (single.row_keys(0, 0, 1), single.row_keys(0, 1, 1)) == ([(0, 0)], [])
    # points of dimension 0 all coincide
    origin = IntPointSet([(), (), ()])
    assert origin.distinct_keys() == {(0,)}
    assert origin.row_keys(1, 0, 3) == [(0,), (0,), (0,)]
    # a coincident pair is the zero key, next to the key of 7/4 times the
    # denominator 2 squared on f = 1, and 0 on f = 3
    point = (1, QuadNum({3: F(1, 2)}))
    exact = IntPointSet([point, (0, 0), point])
    assert exact.row_keys(0, 1, 3) == [(7, 0), (0, 0)]
    assert exact.distinct_keys() == {(0, 0), (7, 0)}
    assert exact.value_of((7, 0)) == F(7, 4) and exact.value_of((0, 0)) == 0


def test_parse_format_round_trip():
    rng = random.Random(1352)
    for _ in range(300):
        value = rand_quad(rng) if rng.randrange(2) else rand_coefficient(rng)
        assert parse_quad(format_quad(value)) == value


def test_parse_quad_rejects_with_value_error():
    rng = random.Random(1202)
    # tokens of the term grammar, so that well-formed and near-miss terms
    # (zero denominators, bad radicands, stray signs) both come up
    tokens = ("0", "1", "3", "12", "/", "/0", "+", "-", "*sqrt(", ")", " ", "sqrt", "x")
    for _ in range(2000):
        text = "".join(rng.choice(tokens) for _ in range(rng.randrange(7)))
        try:
            value = parse_quad(text)
        except ValueError:
            continue
        assert parse_quad(format_quad(value)) == value


def test_rational_and_radical_bases():
    exact = IntPointSet([(F(1, 2), 0), (0, F(1, 3))])
    assert (exact.radicands, exact.denominator) == ((1,), 6)
    mixed = IntPointSet([(QuadNum({5: 1}), 0), (0, QuadNum({15: F(1, 2)}))])
    assert (mixed.radicands, mixed.denominator) == ((1, 5, 15), 2)
    (key,) = mixed.row_keys(0, 1, 2)
    assert mixed.value_of(key) == F(35, 4)


# radicands as the constructor may receive them: squarefree or not
RAW_RADICANDS = (1, 2, 3, 4, 5, 6, 8, 12, 15, 18, 50)


def rand_raw_terms(rng):
    """Raw (radicand, coefficient) pairs, some of which cancel."""
    terms = []
    for _ in range(rng.randrange(5)):
        coeff = rand_coefficient(rng) if rng.randrange(2) else rng.randrange(-4, 5)
        terms.append((rng.choice(RAW_RADICANDS), coeff))
    if rng.randrange(2):
        # c*sqrt(r*s^2) cancels against -c*s*sqrt(r)
        rad, s, coeff = rng.choice((1, 2, 3, 5)), rng.randrange(1, 4), rand_coefficient(rng)
        terms += [(rad * s * s, coeff), (rad, -coeff * s)]
    rng.shuffle(terms)
    return terms


def assert_normal_form(q):
    rads = [rad for rad, _ in q.terms]
    assert rads == sorted(set(rads))
    for rad, coeff in q.terms:
        assert type(coeff) is F and coeff != 0
        assert all(rad % (p * p) for p in range(2, 8))


def test_quadnum_ring_matches_rebuilt_term_sums():
    rng = random.Random(7070)
    for _ in range(400):
        ta, tb = rand_raw_terms(rng), rand_raw_terms(rng)
        a, b = QuadNum(ta), QuadNum(tb)
        negated = [(rad, -coeff) for rad, coeff in tb]
        # sqrt(r1)*sqrt(r2) = sqrt(r1*r2); the constructor factors the product
        product = [(r1 * r2, F(c1) * c2) for r1, c1 in ta for r2, c2 in tb]
        # the reference ops rebuild from the normal-form terms of a and b
        expected = {
            "add": (add(a, b), QuadNum(ta + tb)),
            "sub": (add(a, neg(b)), QuadNum(ta + negated)),
            "mul": (mul(a, b), QuadNum(product)),
            "neg": (neg(a), QuadNum((rad, -coeff) for rad, coeff in ta)),
        }
        for op, (got, want) in expected.items():
            assert got == want, (op, ta, tb)
            assert hash(got) == hash(want), (op, ta, tb)
            assert got.terms == want.terms
            assert_normal_form(got)

        # rebuilding from the terms in any order gives an equal value
        assert QuadNum(reversed(ta)) == a and hash(QuadNum(reversed(ta))) == hash(a)
        assert QuadNum(a.terms) == a
        assert (a == b) == (QuadNum(ta + negated).terms == ())
        assert (a == b) == (not add(a, neg(b)))

        # int and Fraction operands act as radicand-1 terms
        c = rand_coefficient(rng) if rng.randrange(2) else rng.randrange(-4, 5)
        assert add(a, c) == QuadNum(ta + [(1, c)]) == add(c, a)
        assert add(a, -c) == QuadNum(ta + [(1, -c)])
        assert add(c, neg(a)) == QuadNum([(rad, -coeff) for rad, coeff in ta] + [(1, c)])
        assert mul(a, c) == QuadNum([(rad, coeff * c) for rad, coeff in ta]) == mul(c, a)


def test_solve_quadratic_matches_ring_formula():
    # the roots built in normal form against (-b -+ sqrt(disc)) / 2a in ring
    # arithmetic; the cases come from random rational coefficients and from
    # a (x - x1)(x - x2) for a square, a vanishing and a negative discriminant
    rng = random.Random(2468)

    def small():
        # small numerators and denominators keep every discriminant's
        # numerator times denominator under the factorization bound
        return F(rng.randrange(-12, 13), rng.randrange(1, 7))

    seen = set()
    for trial in range(600):
        a = small() or F(1, rng.randrange(1, 5))
        kind = trial % 4
        if kind == 0:
            b, c = small(), small()
        elif kind == 1:  # rational roots x1, x2
            x1, x2 = small(), small()
            b, c = -a * (x1 + x2), a * x1 * x2
        elif kind == 2:  # double root x1
            x1 = small()
            b, c = -2 * a * x1, a * x1 * x1
        else:  # a (x - x1)^2 + a shift has no real root
            x1, shift = small(), F(rng.randrange(1, 30), rng.randrange(1, 7))
            b, c = -2 * a * x1, a * (x1 * x1 + shift)
        disc = b * b - 4 * a * c
        if disc < 0:
            seen.add("negative")
            with pytest.raises(NegativeDiscriminant):
                solve_quadratic(a, b, c)
            continue
        lo, hi = solve_quadratic(a, b, c)
        root = sqrt(disc)
        assert lo == mul(add(-b, neg(root)), F(1, 2 * a)), (a, b, c)
        assert hi == mul(add(-b, root), F(1, 2 * a)), (a, b, c)
        for x in (lo, hi):
            assert_normal_form(x)
            assert add(mul(a, x, x), mul(b, x), c) == 0
        # the minus branch first: the smaller root when a > 0, the larger when a < 0
        assert (lo <= hi) if a > 0 else (lo >= hi)
        if disc == 0:
            seen.add("zero")
            assert lo == hi and lo.is_rational()
        elif root.is_rational():
            seen.add("square")
            assert lo.is_rational() and hi.is_rational() and lo != hi
        else:
            seen.add("radical")
            assert [rad for rad, _ in lo.terms][-1] == [rad for rad, _ in hi.terms][-1] > 1
        seen.add("a > 0" if a > 0 else "a < 0")
    assert seen == {"negative", "zero", "square", "radical", "a > 0", "a < 0"}
    for b, c in ((0, 0), (1, F(-1, 2)), (F(3, 7), 5)):
        with pytest.raises(ValueError):
            solve_quadratic(0, b, c)


def test_quadnum_validation_and_rational_hash():
    with pytest.raises(NegativeRadicand):
        QuadNum({-1: 0})  # checked before a zero coefficient is dropped
    with pytest.raises(NegativeRadicand):
        QuadNum([(4, 1), (-3, F(1, 2))])
    with pytest.raises(TypeError):
        QuadNum({2: None})

    rng = random.Random(4242)
    for _ in range(200):
        value = rand_coefficient(rng)
        s = rng.randrange(1, 5)
        # value = (value/s) * sqrt(s^2): a rational value through a radicand
        q = QuadNum([(s * s, value / s), (rng.choice(RAW_RADICANDS[1:]), 0)])
        assert q.is_rational() and q == value
        assert hash(q) == hash(value)
        assert hash(QuadNum.of(value.numerator)) == hash(value.numerator)


# characters that JSON writes in different ways: quote, backslash, control
# characters, DEL, non-ASCII, non-BMP and lone surrogates (a file path from
# argv can carry them)
JSON_CHARS = '"\\/ az\x00\x08\t\n\x0c\r\x1f\x7f\xe9\u2028\u20ac\u4e2d\U0001f600\ud800\udfff'
JSON_INTS = (0, 1, -1, 7, -42, 2**63, -(2**63) - 1, 2**496, -(2**496))


def rand_json_text(rng):
    return "".join(rng.choice(JSON_CHARS) for _ in range(rng.randrange(5)))


def rand_json_scalar(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return rand_json_text(rng)
    if kind == 1:
        return rng.choice(JSON_INTS + tuple(range(-5, 6)))
    if kind == 2:
        return rng.choice((True, False, 1, 0))  # a bool next to an equal int
    return None


def rand_json_tree(rng, depth=0):
    """A dict or list of up to four items; containers nest up to five levels."""
    nest = depth < 4
    items = [
        rand_json_tree(rng, depth + 1) if nest and rng.random() < 0.3 else rand_json_scalar(rng)
        for _ in range(rng.randrange(5))
    ]
    if rng.random() < 0.5:
        return items
    return {f"k{i}" + rand_json_text(rng): item for i, item in enumerate(items)}


def encode_json(value) -> str:
    """What :func:`write_json` writes, joined."""
    pieces: list[str] = []
    write_json(value, pieces.append)
    return "".join(pieces)


def lazy(tree):
    """``tree`` with every list replaced by a generator of its items."""
    if type(tree) is list:
        return (lazy(item) for item in tree)
    if type(tree) is dict:
        return {key: lazy(item) for key, item in tree.items()}
    return tree


def test_encode_json_matches_stdlib_indent_2():
    rng = random.Random(19)
    fixed = [
        {
            "": [[], {}, [[]], {"": {}}],
            'q"\\\n\x00\x7f\xe9\U0001f600\ud800': [True, 1, False, 0, None, -3, 2**496],
        },
        # a listing of some 9,000 pieces, written in several batches
        {"count": 1500, "families": [{"k": [i, 2], "size": i} for i in range(1500)]},
        [],
        *JSON_INTS,
        JSON_CHARS,
        True,
        None,
    ]
    for tree in fixed + [rand_json_tree(rng) for _ in range(250)]:
        expected = json.dumps(tree, indent=2)
        assert encode_json(tree) == expected, tree
        # a generator stands where a list may, an empty one too
        assert encode_json(lazy(tree)) == expected, tree


class Level(enum.IntEnum):
    ONE = 1


@pytest.mark.parametrize(
    "value",
    [1.5, (1, 2), Level.ONE, {1: "a"}, {"a": [0.0]}, [{"b": (1,)}], {"c": Level.ONE}, {None: 1}],
    ids=repr,
)
def test_encode_json_refuses_other_types(value):
    # json.dumps writes each of these (a float, a tuple as a list, an IntEnum
    # as its int, an int key as a string); a report never holds one
    with pytest.raises(TypeError):
        encode_json(value)
