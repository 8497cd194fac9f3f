"""Exact scalars: normal form, exact order, quadratics, serialization."""

import random
from decimal import Decimal
from fractions import Fraction as F

import pytest

import jdist.exactnum
import jdist.subjohnson
from jdist.exactnum import (
    NegativeDiscriminant,
    QuadNum,
    format_quad,
    format_ratio,
    format_root,
    parse_quad,
    parse_rational,
    solve_quadratic,
    squarefree_decompose,
)
from jdist.subjohnson import solve_sub_families
from quadref import add, mul, sqrt


def test_squarefree_decompose():
    assert squarefree_decompose(1) == (1, 1)
    assert squarefree_decompose(60) == (2, 15)
    assert squarefree_decompose(49) == (7, 1)
    for n in range(1, 400):
        s, f = squarefree_decompose(n)
        assert s * s * f == n
        assert all(f % (p * p) for p in range(2, f + 1) if p * p <= f)


def test_solve_quadratic_trivial():
    lo, hi = solve_quadratic(1, 0, -4)
    assert (lo, hi) == (QuadNum.of(-2), QuadNum.of(2))


def test_solve_quadratic_radical_roots():
    # from the fixed-last-axis setting at n = 5: the k = 0 near-distance
    # equation; the repeated coordinate value root - 1 is (5 +/- sqrt(5))/10
    lo, hi = solve_quadratic(20, -60, 44)
    assert lo == QuadNum({1: F(3, 2), 5: F(-1, 10)})
    assert hi == QuadNum({1: F(3, 2), 5: F(1, 10)})
    for root in (lo, hi):
        assert add(mul(root, root, 20), mul(root, -60), 44) == 0
    assert add(lo, -1) == QuadNum({1: F(1, 2), 5: F(-1, 10)})
    assert add(hi, -1) == QuadNum({1: F(1, 2), 5: F(1, 10)})


def test_solve_quadratic_negative_discriminant():
    # the almost-full-run shape needs 10n - n^2 >= 0; at n = 11 it fails
    n = 11
    with pytest.raises(NegativeDiscriminant):
        solve_quadratic(n * (n - 1), -6 * n, 10)


def test_sign_and_order():
    assert QuadNum().sign() == 0
    assert QuadNum({2: 1, 3: 1, 5: -1}).sign() == 1  # sqrt(2) + sqrt(3) - sqrt(5)
    assert QuadNum({1: 1, 2: -1}).sign() == -1
    assert QuadNum({2: 1}) < QuadNum({3: 1})
    # close call: 99/70 slightly overshoots sqrt(2)
    assert QuadNum({2: 1}) < F(99, 70)
    assert QuadNum({2: 1}) > F(140, 99)


def test_rational_serialization_round_trip():
    for value in (F(0), F(3), F(-3), F(22, 7), F(-22, 7), F(10**40, 3)):
        text = format_ratio(value.numerator, value.denominator)
        assert parse_rational(text) == value
        if value.denominator == 1:
            assert "/" not in text


def test_format_ratio_is_fraction_text():
    rng = random.Random(2012)
    for den in range(1, 201):
        nums = [0, 1, -1, den, -den, 7 * den, 10**30 + 1]
        nums += [rng.randint(-(10**6), 10**6) for _ in range(20)]
        for num in nums:
            assert format_ratio(num, den) == str(F(num, den)), (num, den)
            assert format_ratio(num, -den) == str(F(num, -den)), (num, -den)
    with pytest.raises(ZeroDivisionError):
        format_ratio(1, 0)


def test_format_root_is_quad_text():
    # every printed slot value of every family, from its integer root
    for n in range(5, 401):
        for fam in solve_sub_families(n):
            for (p, q), value in zip(fam.numerators, (fam.a, fam.low, fam.b)):
                assert format_root(p, q, fam.f, fam.r) == format_quad(value), (fam, p, q)
    # q = 0, p = 0, negative numerators, r > 1 and r < 0, f = 1 only with q = 0
    rng = random.Random(35)
    cases = [(0, 0, 1, 1), (0, 0, 7, 3), (5, 0, 1, 1), (0, -4, 2, 6), (-3, 0, 1, -9)]
    for _ in range(2000):
        f = rng.choice((1, 2, 3, 5, 6, 21, 353549))
        q = 0 if f == 1 or rng.randrange(4) == 0 else rng.randint(-50, 50)
        p = 0 if rng.randrange(4) == 0 else rng.randint(-(10**20), 10**20)
        cases.append((p, q, f, rng.choice((1, 2, 10, 42, 10**30 + 7, -1, -12))))
    for p, q, f, r in cases:
        value = QuadNum([(1, F(p, r)), (f, F(q, r))])
        assert format_root(p, q, f, r) == format_quad(value), (p, q, f, r)


def test_quad_serialization_round_trip():
    samples = [
        QuadNum(),
        QuadNum.of(F(-2, 3)),
        QuadNum({1: F(1, 2), 5: F(-1, 10)}),
        QuadNum({2: 1, 3: F(4, 7), 30: F(-11, 13)}),
        sqrt(F(21, 49)),
    ]
    for q in samples:
        text = format_quad(q)
        assert parse_quad(text) == q
        assert format_quad(parse_quad(text)) == text
    assert format_quad(QuadNum()) == "0"
    assert format_quad(QuadNum.of(F(3, 2))) == "3/2"
    assert format_quad(QuadNum({21: F(1, 7)})) == "1/7*sqrt(21)"


def test_rational_quad_interop():
    q = QuadNum.of(F(3, 2))
    assert q.is_rational() and q.as_fraction() == F(3, 2)
    assert q == F(3, 2)
    assert hash(q) == hash(F(3, 2))
    assert QuadNum.of(2) == 2 and hash(QuadNum.of(2)) == hash(2)
    with pytest.raises(ValueError):
        QuadNum({2: 1}).as_fraction()


def test_rational_arithmetic_factors_nothing(monkeypatch):
    calls = []

    def counted(n):
        calls.append(n)
        return squarefree_decompose(n)

    monkeypatch.setattr(jdist.exactnum, "squarefree_decompose", counted)
    a, b = QuadNum.of(F(3, 4)), QuadNum({1: -2})
    values = [a, b, QuadNum([(1, F(1, 3)), (1, 2), (0, 5), (1, 0)])]
    assert [hash(v) for v in values] == [hash(v.as_fraction()) for v in values]
    assert a == F(3, 4) and a != b and values[-1] == F(7, 3)
    # an ordering merges the terms of both sides into one rational value
    assert b < a <= F(3, 4) and a > b >= -2 and F(1, 2) < a
    assert calls == []

    # the fixed-last-axis solve factors each discriminant once, 272 = 4^2 * 17,
    # 2448 = 12^2 * 17 and 1156 = 34^2 (negative for the last shape); the
    # roots, the lower slots and b are built on first use over the radicand
    # 17 of that split, which is not factored again
    monkeypatch.setattr(jdist.subjohnson, "squarefree_decompose", counted)
    families = solve_sub_families(17)
    assert calls == [272, 2448, 1156]
    built = [v for f in families for v in (f.a, f.low, f.b)]
    assert any(not v.is_rational() for v in built)
    assert calls == [272, 2448, 1156]


@pytest.mark.parametrize(
    "call",
    [
        lambda: QuadNum({2: 1}) < 0.5,
        lambda: 0.5 < QuadNum({2: 1}),
        lambda: QuadNum.of(0.5),
        lambda: QuadNum({1: 0.25}),
        lambda: QuadNum.of("1/3"),
        lambda: format_quad(0.1),
        lambda: solve_quadratic(1, 0.5, -1),
        lambda: QuadNum.of(1) == 1.0,
        lambda: 1.0 == QuadNum.of(1),
        lambda: QuadNum.of(1) != 1.0,
        lambda: 1.0 != QuadNum.of(1),
        lambda: QuadNum({2: 1}) == 1.4142135623730951,
        lambda: QuadNum.of(1) == Decimal(1),
    ],
    ids=[
        "lt-float",
        "gt-float-reflected",
        "of",
        "coefficient",
        "of-str",
        "format_quad",
        "solve_quadratic",
        "eq-float",
        "eq-float-reflected",
        "ne-float",
        "ne-float-reflected",
        "eq-float-radical",
        "eq-decimal",
    ],
)
def test_inexact_scalars_are_refused(call):
    with pytest.raises(TypeError, match="expected an exact scalar"):
        call()


def test_non_numeric_comparison_is_unequal():
    q = QuadNum.of(1)
    assert q != "1" and q != None and q != (1,)  # noqa: E711
    assert not q == "1" and not None == q  # noqa: E711
    assert q == 1 and 1 == q and q == F(1) and F(1) == q
