"""Number-theoretic layer behind the extendability classification.

The key quantity is the *special factor* of n: odd primes contribute
``ceil(e/2)`` of their exponent, the prime 2 contributes
``ceil((e+1)/2)`` when present.  It divides n and controls exactly when
``c * (n - c) / n`` can be an even integer, which in turn decides whether
the Johnson representation admits any extension vector.  Every predicate
here is exact integer arithmetic and is cross-checked elsewhere against
brute-force family enumeration.
"""

from __future__ import annotations

from fractions import Fraction

from .exactnum import prime_powers
from .families import CandidateFamily, Parameters


class RangeError(ValueError):
    """The requested multiplier pushes the special factor past n."""


def special_factor(n: int) -> int:
    """The divisor of n governing even values of c*(n-c)/n."""
    out = 1
    for p, e in prime_powers(n):
        if p == 2:
            out *= 2 ** ((e + 2) // 2)  # ceil((e+1)/2)
        else:
            out *= p ** ((e + 1) // 2)  # ceil(e/2)
    return out


def is_extendable(n: int, m: int) -> bool:
    """Whether the Johnson representation is *not* maximal as an
    m-distance set: ``n > n0`` and ``3*n0 - n0^2/n <= 4*m`` exactly.
    """
    if m < 2 or n < 2 * m:
        raise ValueError(f"need n >= 2m >= 4, got n={n}, m={m}")
    n0 = special_factor(n)
    return n > n0 and 3 * n0 * n - n0 * n0 <= 4 * m * n


def multiplier_condition(n: int, m: int, n1: int) -> bool:
    """Exact form of ``3*n0*n1 - n0^2*n1^2/n <= 4*m`` for a multiplier n1."""
    q = special_factor(n) * n1
    return 3 * q * n - q * q <= 4 * m * n


def extension_family(n: int, m: int, n1: int) -> tuple[CandidateFamily, bool]:
    """The closed-form extension orbit for multiplier n1.

    Returns the orbit in canonical family form together with a flag
    telling whether the sufficient condition for addability holds; the
    orbit itself is returned either way so boundary cases can be probed.
    """
    if n1 < 1:
        raise ValueError(f"multiplier must be positive, got {n1}")
    q = special_factor(n) * n1
    if q >= n:
        raise RangeError(f"special factor times multiplier is {q} >= n = {n}")
    params = Parameters(n, m)
    if m < q:
        fam = CandidateFamily(params, n - q, (n - q + m, q - m))
    elif m == q:
        fam = CandidateFamily(params, n - m, (n,))
    else:
        fam = CandidateFamily(params, -q, (m - q, n + q - m))
    return fam, multiplier_condition(n, m, n1)


def max_extendable_n(m: int) -> int:
    """Closed form for the largest n whose representation is extendable."""
    if m < 2:
        raise ValueError(f"need m >= 2, got {m}")
    return (2 * (2 * (m + 1) // 3) - 1) ** 2


def parity_check(n: int, c: int) -> tuple[bool, bool]:
    """The two sides of the divisibility/evenness equivalence.

    Returns ``(special_factor(n) divides c, c*(n-c)/n is an even
    integer)``; the pair is asserted equal across wide sweeps in tests.
    """
    if n < 2 or not 0 < c < n:
        raise ValueError(f"need n >= 2 and 0 < c < n, got n={n}, c={c}")
    divides = c % special_factor(n) == 0
    product = Fraction(c * (n - c), n)
    even = product.denominator == 1 and product.numerator % 2 == 0
    return divides, even
