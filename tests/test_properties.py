"""Property tests: integer point keys and serialization against QuadNum arithmetic.

Random inputs come from seeded ``random.Random`` streams, so every run
checks the same cases.
"""

import itertools
import random
from fractions import Fraction as F

import pytest

from jdist.exactnum import IntPointSet, NegativeRadicand, QuadNum, format_quad, parse_quad

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
    total = QuadNum()
    for a, b in zip(p, q):
        diff = QuadNum.of(a) - QuadNum.of(b)
        total = total + diff * diff
    return total


def test_keys_match_quadnum_arithmetic():
    rng = random.Random(2012)
    for _ in range(150):
        dim = rng.randrange(1, 5)
        points = [tuple(rand_scalar(rng) for _ in range(dim)) for _ in range(rng.randrange(2, 6))]
        # repeat a point now and then so that equal distances occur
        points.append(rng.choice(points))
        exact = IntPointSet(points)
        pairs = list(itertools.combinations_with_replacement(range(len(points)), 2))
        keys = {}
        values = {}
        for i, j in pairs:
            (key,) = exact.row_keys(i, j, j + 1)
            value = quad_sq_dist(points[i], points[j])
            assert exact.value_of(key) == value
            assert exact.key_of(value) == key
            keys[i, j], values[i, j] = key, value
        for a, b in itertools.combinations(pairs, 2):
            assert (keys[a] == keys[b]) == (values[a] == values[b])


def test_row_and_distinct_keys_match_quadnum_arithmetic():
    rng = random.Random(1709)
    sizes = [0, 1] + [rng.randrange(2, 7) for _ in range(120)]
    for size in sizes:
        dim = rng.randrange(1, 5)
        points = [tuple(rand_scalar(rng) for _ in range(dim)) for _ in range(size)]
        if size > 1 and rng.randrange(2):
            points.insert(rng.randrange(size), rng.choice(points))  # a coincident pair
        exact = IntPointSet(points)
        count = len(points)
        for a in range(count):
            keys = exact.row_keys(a, 0, count)
            assert len(keys) == count
            for b, key in enumerate(keys):
                assert exact.value_of(key) == quad_sq_dist(points[a], points[b])
            start = rng.randrange(count + 1)
            stop = rng.randrange(start, count + 1)
            assert exact.row_keys(a, start, stop) == keys[start:stop]
        distinct = exact.distinct_keys()
        values = {quad_sq_dist(p, q) for p, q in itertools.combinations(points, 2)}
        assert distinct == {exact.key_of(v) for v in values}
        assert (() in distinct) == (len(set(points)) < count)


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
        expected = {
            "add": (a + b, QuadNum(ta + tb)),
            "sub": (a - b, QuadNum(ta + negated)),
            "mul": (a * b, QuadNum(product)),
            "neg": (-a, QuadNum((rad, -coeff) for rad, coeff in ta)),
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
        assert (a == b) == (not (a - b))

        # int and Fraction operands act as radicand-1 terms
        c = rand_coefficient(rng) if rng.randrange(2) else rng.randrange(-4, 5)
        assert a + c == QuadNum(ta + [(1, c)]) == c + a
        assert a - c == QuadNum(ta + [(1, -c)])
        assert c - a == QuadNum([(rad, -coeff) for rad, coeff in ta] + [(1, c)])
        assert a * c == QuadNum([(rad, coeff * c) for rad, coeff in ta]) == c * a


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
