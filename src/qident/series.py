"""Dense truncated power series in q over exact integers.

Every value in this package is an :class:`ExactSeries`: a tuple of
arbitrary-precision integer coefficients, index n holding the coefficient
of q^n, known exactly modulo q^(N+1) where N is the *order*.  There is no
floating point anywhere; convergence conditions ("|q| < 1") are replaced
by formal truncated arithmetic.

Conventions
-----------
* A series of order N stores exactly N+1 coefficients, explicit zeros
  included.
* Operations on operands of different orders silently truncate to the
  smaller order (identity checks naturally mix series built at different
  provisional orders).
* Equality compares coefficients up to the common (minimum) order.
* All values are immutable; every operation is a pure function, so series
  may be freely shared between threads.

This is the package's one arithmetic core: no other module constructs an
ExactSeries.  The others state a series as its (exponent, coefficient)
terms for :func:`from_terms` (binomial factors, theta sums) or a sum of
shifted multiples c*q^e*s as its (e, c, s) triples for
:func:`weighted_sum`, divide by a binomial (1 - c*q^x) with
:func:`divide_binomial`, or combine series with the operations below.
Every quotient by a binomial (chain atoms, inverse Pochhammer tables,
hypergeometric denominators) goes through :func:`divide_binomial`;
:func:`invert` is kept for inverting whole products.

Multiplication is schoolbook convolution, O(N^2) coefficient operations;
at the working orders of this package (N <= a few hundred) that is faster
and simpler than any asymptotic trick, and exactness is free because
Python integers never overflow.  It does no work on products that cannot
reach q^N: the leading zeros of the inner operand are skipped, so a
product costs about (nonzeros of the sparser operand) x (N + 1 - v), v
being the valuation of the other one.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, count
from typing import Iterable, Tuple


class NonUnitConstantTerm(ValueError):
    """Raised by invert() when the constant term is not +1 or -1."""


class ExponentOutOfOrder(IndexError):
    """Raised by coeff() when the requested exponent exceeds the order."""


@dataclass(frozen=True, eq=False)
class ExactSeries:
    """A truncated power series: coeffs[n] is the coefficient of q^n.

    The series is known exactly modulo q^(order+1); len(coeffs) == order+1.
    Equality truncates to the shorter order, so no hash can agree with it:
    the type is unhashable.
    """

    coeffs: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.coeffs, tuple):
            object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if len(self.coeffs) == 0:
            raise ValueError("a series stores at least the constant term")

    @property
    def order(self) -> int:
        """Largest exponent with a stored coefficient."""
        return len(self.coeffs) - 1

    def valuation(self) -> int | None:
        """Smallest exponent with a nonzero coefficient, or None if zero."""
        return _valuation(self.coeffs)

    def is_zero(self) -> bool:
        return _valuation(self.coeffs) is None

    # -- operators ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactSeries):
            return NotImplemented
        n = min(len(self.coeffs), len(other.coeffs))
        return self.coeffs[:n] == other.coeffs[:n]

    def __repr__(self) -> str:
        terms = [f"{c}*q^{n}" for n, c in enumerate(self.coeffs) if c]
        body = " + ".join(terms[:6]) if terms else "0"
        if len(terms) > 6:
            body += " + ..."
        return f"ExactSeries({body} + O(q^{self.order + 1}))"


def _valuation(coeffs: Tuple[int, ...]) -> int | None:
    """Index of the first nonzero entry of coeffs, or None if all are zero."""
    return next(compress(count(), coeffs), None)


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def monomial(c: int, e: int, order: int) -> ExactSeries:
    """The series c*q^e at the given order (zero if e > order)."""
    return from_terms([(e, c)], order)


def one(order: int) -> ExactSeries:
    """The multiplicative unit at the given order."""
    return monomial(1, 0, order)


def zero(order: int) -> ExactSeries:
    """The zero series at the given order."""
    return ExactSeries((0,) * (order + 1))


def from_coeffs(values: Iterable[int]) -> ExactSeries:
    """Build a series directly from a coefficient sequence (index = exponent)."""
    return ExactSeries(tuple(values))


def from_terms(terms: Iterable[Tuple[int, int]], order: int) -> ExactSeries:
    """The sum of c*q^e over the (e, c) pairs in terms, at the given order.

    Repeated exponents add; exponents above the order are dropped, so a
    caller may bound its terms loosely.
    """
    if order < 0:
        raise ValueError(f"order must be non-negative, got {order}")
    coeffs = [0] * (order + 1)
    for e, c in terms:
        if e < 0:
            raise ValueError(f"exponent must be non-negative, got {e}")
        if e <= order:
            coeffs[e] += c
    return ExactSeries(tuple(coeffs))


# ---------------------------------------------------------------------------
# Arithmetic
# ---------------------------------------------------------------------------

def weighted_sum(terms: Iterable[Tuple[int, int, ExactSeries]], order: int) -> ExactSeries:
    """The sum of c*q^e*s over the (e, c, s) triples in terms.

    q^e*s is exact to q^(e + s.order), so the result stops at the smallest
    such order, or at the given order if that is smaller.  Terms with e
    above the order add nothing; no terms give zero(order).
    """
    if order < 0:
        raise ValueError(f"order must be non-negative, got {order}")
    out = [0] * (order + 1)
    top = order
    for e, c, s in terms:
        if e < 0:
            raise ValueError(f"exponent must be non-negative, got {e}")
        top = min(top, e + s.order)
        out[e : e + s.order + 1] = [x + c * y for x, y in zip(out[e:], s.coeffs)]
    return ExactSeries(tuple(out[: top + 1]))


def add(a: ExactSeries, b: ExactSeries) -> ExactSeries:
    """Coefficientwise sum at the common (minimum) order."""
    n = min(len(a.coeffs), len(b.coeffs))
    return ExactSeries(tuple(x + y for x, y in zip(a.coeffs[:n], b.coeffs[:n])))


def scale(c: int, a: ExactSeries) -> ExactSeries:
    """The scalar multiple c*a."""
    if c == 1:
        return a
    return ExactSeries(tuple(c * x for x in a.coeffs))


def shift(a: ExactSeries, e: int) -> ExactSeries:
    """Multiply by q^e.  The result has order a.order + e.

    If a is exact mod q^(N+1) then q^e * a is exact mod q^(N+e+1), so the
    order legitimately grows: no information is invented.
    """
    if e < 0:
        raise ValueError(f"shift exponent must be non-negative, got {e}")
    if e == 0:
        return a
    return ExactSeries((0,) * e + a.coeffs)


def mul(a: ExactSeries, b: ExactSeries) -> ExactSeries:
    """Truncated Cauchy product at the common (minimum) order.

    Schoolbook convolution that skips zero rows; the operand with fewer
    nonzero coefficients drives the outer loop (a on a tie), which makes
    products with sparse factors (monomials, binomials, theta sums)
    effectively linear.  The inner operand's leading zeros are skipped:
    with valuation v it contributes only from q^v on, so each row starts
    there and the outer loop stops at exponent order - v.
    """
    order = min(len(a.coeffs), len(b.coeffs)) - 1
    ac = a.coeffs[: order + 1]
    bc = b.coeffs[: order + 1]
    # Let the sparser operand drive the outer loop (a on a tie).  Both
    # tuples hold order + 1 entries, so fewer zeros means more nonzeros.
    if ac.count(0) < bc.count(0):
        ac, bc = bc, ac
    out = [0] * (order + 1)
    vb = _valuation(bc)
    if vb is None:
        return ExactSeries(tuple(out))
    for i, ai in enumerate(ac[: order + 1 - vb]):
        if not ai:
            continue
        lo = i + vb
        out[lo:] = [x + ai * y for x, y in zip(out[lo:], bc[vb : order + 1 - i])]
    return ExactSeries(tuple(out))


def invert(a: ExactSeries) -> ExactSeries:
    """Multiplicative inverse b with mul(a, b) = 1 at a's order.

    Requires a unit constant term (+1 or -1); uses the forward recurrence
    b[n] = -a0 * sum_{i>=1} a[i]*b[n-i], restricted to the nonzero a[i].
    """
    a0 = a.coeffs[0]
    if a0 not in (1, -1):
        raise NonUnitConstantTerm(
            f"constant term must be +1 or -1 to invert, got {a0}"
        )
    order = a.order
    ac = a.coeffs
    nz = [i for i in range(1, order + 1) if ac[i]]
    b = [0] * (order + 1)
    b[0] = a0
    for n in range(1, order + 1):
        s = 0
        for i in nz:
            if i > n:
                break
            s += ac[i] * b[n - i]
        if s:
            b[n] = -a0 * s
    return ExactSeries(tuple(b))


def divide_binomial(a: ExactSeries, x: int, c: int) -> ExactSeries:
    """The quotient a / (1 - c*q^x) at a's order, for x >= 1.

    One forward pass of b[n] += c*b[n-x]: the quotient b satisfies
    b - c*q^x*b = a.  Entries below a's valuation plus x equal a's, so the
    pass starts there; O(order) work for any x and c.
    """
    if x < 1:
        raise ValueError(f"binomial exponent must be >= 1, got {x}")
    b = list(a.coeffs)
    v = _valuation(a.coeffs)
    if v is not None:
        for n in range(v + x, len(b)):
            b[n] += c * b[n - x]
    return ExactSeries(tuple(b))


def substitute_power(a: ExactSeries, d: int) -> ExactSeries:
    """Replace q by q^d, truncating at the original order.

    The coefficient of q^(d*n) is a.coeffs[n] when d*n <= order; exponents
    that are not multiples of d get 0.
    """
    if d < 1:
        raise ValueError(f"substitution power must be >= 1, got {d}")
    if d == 1:
        return a
    return from_terms(zip(range(0, a.order + 1, d), a.coeffs), a.order)


def coeff(a: ExactSeries, n: int) -> int:
    """The stored coefficient of q^n; errors if n is outside 0..order."""
    if n < 0 or n > a.order:
        raise ExponentOutOfOrder(
            f"exponent {n} outside the stored range 0..{a.order}"
        )
    return a.coeffs[n]
