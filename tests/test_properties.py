"""Property tests: integer point keys and serialization against QuadNum arithmetic.

Random inputs come from seeded ``random.Random`` streams, so every run
checks the same cases.
"""

import itertools
import random
from fractions import Fraction as F

from jdist.exactnum import IntPointSet, QuadNum, format_quad, parse_quad

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
            key = exact.sq_dist_key(exact.vectors[i], exact.vectors[j])
            value = quad_sq_dist(points[i], points[j])
            assert exact.value_of(key) == value
            assert exact.key_of(value) == key
            keys[i, j], values[i, j] = key, value
        for a, b in itertools.combinations(pairs, 2):
            assert (keys[a] == keys[b]) == (values[a] == values[b])


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
    key = mixed.sq_dist_key(*mixed.vectors)
    assert mixed.value_of(key) == F(35, 4)
