"""Special factor, extendability predicate, closed forms, parity facts."""

import math
from fractions import Fraction as F

import pytest

from jdist.exactnum import MAX_FACTOR_INPUT, prime_powers
from jdist.families import Parameters, exists_addable, is_addable
from jdist.numbertheory import (
    RangeError,
    extension_family,
    is_extendable,
    max_extendable_n,
    multiplier_condition,
    parity_check,
    special_factor,
)
from jdist.spectra import cross_family_spectrum


def test_prime_powers():
    assert prime_powers(1) == []
    assert prime_powers(18) == [(2, 1), (3, 2)]
    assert prime_powers(97) == [(97, 1)]
    for n in range(1, 500):
        assert math.prod(p**e for p, e in prime_powers(n)) == n
    assert prime_powers(MAX_FACTOR_INPUT) == [(2, 12), (5, 12)]
    with pytest.raises(ValueError):
        prime_powers(MAX_FACTOR_INPUT + 1)


def test_special_factor_values():
    assert special_factor(9) == 3
    assert special_factor(8) == 4
    assert special_factor(1) == 1
    assert special_factor(18) == 6
    assert special_factor(16) == 8
    assert special_factor(49) == 7
    assert special_factor(50) == 10


def test_special_factor_divides():
    for n in range(1, 600):
        n0 = special_factor(n)
        assert n % n0 == 0
        assert (n0 * n0) % n == 0


def test_is_extendable_examples():
    assert is_extendable(9, 2)
    assert not is_extendable(8, 2)
    assert is_extendable(49, 5)
    assert not is_extendable(50, 5)
    with pytest.raises(ValueError):
        is_extendable(5, 3)


def test_extension_family_printed_orbits():
    inst, cond = extension_family(9, 2, 1)
    assert (inst.offset, inst.counts) == (6, (8, 1)) and cond
    assert inst.scaled_levels() == (3, -6)  # 1/3, -2/3

    inst, cond = extension_family(9, 3, 1)
    assert (inst.offset, inst.counts) == (6, (9,)) and cond
    assert inst.scaled_levels() == (3,)  # 1/3

    inst, cond = extension_family(9, 4, 2)
    assert (inst.offset, inst.counts) == (3, (7, 2)) and cond
    assert inst.scaled_levels() == (6, -3)  # 2/3, -1/3

    inst, cond = extension_family(8, 3, 1)
    assert (inst.offset, inst.counts) == (4, (7, 1)) and cond
    assert inst.scaled_levels() == (4, -4)  # 1/2, -1/2


def test_extension_family_boundary_cases():
    # the orbit is returned even when the addability condition fails
    inst, cond = extension_family(9, 2, 2)
    assert (inst.offset, inst.counts) == (3, (5, 4))
    assert not cond
    assert not is_addable(inst)
    with pytest.raises(RangeError):
        extension_family(9, 2, 3)
    with pytest.raises(ValueError):
        extension_family(9, 2, 0)


def test_extension_family_addable_iff_condition_holds():
    for m in (2, 3, 4, 5):
        for n in range(2 * m, 40):
            n0 = special_factor(n)
            n1 = 1
            while n0 * n1 < n:
                inst, cond = extension_family(n, m, n1)
                assert cond == multiplier_condition(n, m, n1)
                assert is_addable(inst) == cond
                n1 += 1


def test_max_extendable_n_closed_form():
    assert [max_extendable_n(m) for m in range(2, 9)] == [9, 9, 25, 49, 49, 81, 121]


def test_max_extendable_n_against_scan():
    for m in range(2, 9):
        closed = max_extendable_n(m)
        window = [n for n in range(2 * m, closed + 51) if is_extendable(n, m)]
        assert max(window) == closed


def test_parity_check_examples():
    assert parity_check(9, 3) == (True, True)
    assert parity_check(9, 1) == (False, False)
    assert parity_check(8, 4) == (True, True)
    with pytest.raises(ValueError):
        parity_check(9, 9)


def test_parity_agreement_sweep():
    for n in range(2, 160):
        for c in range(1, n):
            divides, even = parity_check(n, c)
            assert divides == even


def test_multiplier_condition_monotone():
    # the condition quantity increases with the multiplier below n / n0
    for n in range(4, 80):
        n0 = special_factor(n)
        values = []
        n1 = 1
        while n0 * (n1 + 1) < n:
            q1, q2 = n0 * n1, n0 * (n1 + 1)
            lhs = F(3 * q1 * n - q1 * q1, n)
            rhs = F(3 * q2 * n - q2 * q2, n)
            assert lhs < rhs
            n1 += 1


def test_predicate_against_family_search():
    for m in (2, 3):
        for n in range(2 * m, 36):
            assert is_extendable(n, m) == exists_addable(Parameters(n, m))


def test_terminal_offset_case_table():
    # the closed-form orbits are already terminal; their offset follows the
    # three-way case split on m versus n0 * n1
    from jdist.families import reduce_fully

    for m in (2, 3, 4, 5):
        for n in range(2 * m, 30):
            n0 = special_factor(n)
            n1 = 1
            while n0 * n1 < n:
                q = n0 * n1
                inst, _ = extension_family(n, m, n1)
                trace = reduce_fully(inst)
                if m < q:
                    assert trace.terminal_offset == n - q
                elif m == q:
                    assert trace.terminal_offset == n - m
                else:
                    assert trace.terminal_offset == -q
                n1 += 1


def test_full_extension_sets_checked_per_instance():
    # whether a closed-form orbit can be added in full is decided by its
    # own intra spectrum, never assumed
    for n, m in ((9, 2), (18, 4), (25, 4), (16, 5), (49, 5)):
        inst, cond = extension_family(n, m, 1)
        assert cond
        allowed = Parameters(n, m).allowed_sq_dists()
        assert set(cross_family_spectrum(inst, inst)) <= allowed
