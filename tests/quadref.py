"""Ring arithmetic on exact scalars, as a test-side reference.

``QuadNum`` is a normal-form value and does no arithmetic.  The tests that
need sums and products as an oracle build them here, as term lists handed
to the constructor, which merges repeated radicands, factors each radicand
and drops zeros: a sum joins the terms, a product pairs them with
``sqrt(r1)*sqrt(r2) = sqrt(r1*r2)``.  Every operand is an int, a Fraction
or a QuadNum, and every result is a QuadNum.
"""

from fractions import Fraction

from jdist.exactnum import QuadNum
from jdist.subjohnson import overlap_range


def add(*values) -> QuadNum:
    return QuadNum([term for value in values for term in QuadNum.of(value).terms])


def neg(value) -> QuadNum:
    return QuadNum((rad, -coeff) for rad, coeff in QuadNum.of(value).terms)


def mul(*values) -> QuadNum:
    product = QuadNum.of(1)
    for value in values:
        pairs = QuadNum.of(value).terms
        product = QuadNum((r1 * r2, c1 * c2) for r1, c1 in product.terms for r2, c2 in pairs)
    return product


def sqrt(r) -> QuadNum:
    """The non-negative square root of a rational ``r >= 0``."""
    r = Fraction(r)
    return QuadNum({r.numerator * r.denominator: Fraction(1, r.denominator)})


def sub_sq_dist(n: int, k: int, a, i2: int) -> QuadNum:
    """Squared distance of a fixed-last-axis family point with repeated
    value ``a`` on ``k`` slots to a Johnson point with overlap ``i2``:
    ``n(n-1) a^2 - 2n(n-k+1) a + (n-k+1)(n-k+2) + 2 i2``."""
    if not 0 <= k <= n - 2:
        raise ValueError(f"need 0 <= k <= n-2, got k={k}")
    if i2 not in overlap_range(n, k):
        raise ValueError(f"overlap {i2} infeasible for k={k}, n={n}")
    return add(
        mul(a, a, n * (n - 1)),
        mul(a, -2 * n * (n - k + 1)),
        (n - k + 1) * (n - k + 2) + 2 * i2,
    )
