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
* Two series are equal exactly when their coefficient tuples are, orders
  included, and equal series hash alike.  Comparing two series up to the
  shorter order is a verification step, made by identities.verify.
* All values are immutable; every operation is a pure function, so series
  may be freely shared between threads.

This is the package's one arithmetic core: no other module constructs an
ExactSeries.  The others build with five operations: :func:`from_terms`
sums (exponent, coefficient) terms, :func:`weighted_sum` shifted multiples
c*q^e*s given as (e, c, s) triples, :func:`mul` multiplies,
:func:`divide_binomial` divides by a binomial (1 - c*q^x), and
:func:`add_cell` adds the chain DP's cell acc + q^e*s/(1 - c*q^e)^2 in one
pass from the valuation of q^e*s.  Every reciprocal is a run of binomial
divisions; :func:`invert` is only the reference the tests check them by.

One private kernel, :func:`_divide`, divides a coefficient list by
(1 - c*q^x) in about 2*sqrt(length) interpreter steps:
:func:`divide_binomial` calls it once, :func:`add_cell` twice over,
adding the quotient into its accumulator as it goes.

Every builder in series, qtools, families and identities checks its
integer arguments with :func:`_check_int`: a float or an out-of-range value
raises ValueError (InvalidSpec for a family spec) naming the argument as
its signature spells it, e.g. "k must be non-negative, got -1".

Multiplication is schoolbook convolution, O(N^2) coefficient operations;
at the working orders of this package (N <= a few hundred) that is faster
and simpler than any asymptotic trick, and exactness is free because
Python integers never overflow.  :func:`mul` is a :func:`weighted_sum`
over the nonzero terms c*q^i of its sparser operand, so a product costs
N + 1 - i multiply-adds for each of them.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import accumulate, compress, count, islice, repeat
from typing import Iterable, List, Tuple, Type


class NonUnitConstantTerm(ValueError):
    """Raised by invert() when the constant term is not +1 or -1."""


class ExponentOutOfOrder(IndexError):
    """Raised by coeff() when the requested exponent exceeds the order."""


@dataclass(frozen=True)
class ExactSeries:
    """A truncated power series: coeffs[n] is the coefficient of q^n.

    The series is known exactly modulo q^(order+1); len(coeffs) == order+1.
    A plain value: == and hash compare the coefficient tuples, so series of
    different orders are never equal.
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

    def __repr__(self) -> str:
        terms = [f"{c}*q^{n}" for n, c in enumerate(self.coeffs) if c]
        body = " + ".join(terms[:6]) if terms else "0"
        if len(terms) > 6:
            body += " + ..."
        return f"ExactSeries({body} + O(q^{self.order + 1}))"


def _check_int(name: str, value: object, low: int = 0,
               error: Type[ValueError] = ValueError) -> None:
    """Raise error, naming the argument, unless value is an int >= low."""
    if not isinstance(value, int):
        raise error(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise error(f"{name} must be non-negative, got {value}" if low == 0
                    else f"{name} must be >= {low}, got {value}")


def _valuation(coeffs: Tuple[int, ...]) -> int | None:
    """Index of the first nonzero entry of coeffs, or None if all are zero."""
    return next(compress(count(), coeffs), None)


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def monomial(c: int, e: int, order: int) -> ExactSeries:
    """The series c*q^e at the given order (zero if e > order)."""
    _check_int("e", e)
    return from_terms([(e, c)], order)


def one(order: int) -> ExactSeries:
    """The multiplicative unit at the given order."""
    return monomial(1, 0, order)


def zero(order: int) -> ExactSeries:
    """The zero series at the given order."""
    return from_terms((), order)


def from_coeffs(values: Iterable[int]) -> ExactSeries:
    """Build a series directly from a coefficient sequence (index = exponent)."""
    return ExactSeries(tuple(values))


def from_terms(terms: Iterable[Tuple[int, int]], order: int) -> ExactSeries:
    """The sum of c*q^e over the (e, c) pairs in terms, at the given order.

    Repeated exponents add; exponents above the order are dropped, so a
    caller may bound its terms loosely.
    """
    _check_int("order", order)
    coeffs = [0] * (order + 1)
    for e, c in terms:
        if e < 0:
            _check_int("exponent", e)
        if e <= order:
            coeffs[e] += c
    return ExactSeries(tuple(coeffs))


# ---------------------------------------------------------------------------
# Arithmetic
# ---------------------------------------------------------------------------

# x + y and x - y are x + c*y for c = 1 and c = -1, done by map in C.
_SIGNED_ADD = {1: operator.add, -1: operator.sub}


def weighted_sum(terms: Iterable[Tuple[int, int, ExactSeries]], order: int) -> ExactSeries:
    """The sum of c*q^e*s over the (e, c, s) triples in terms.

    q^e*s is exact to q^(e + s.order), so the result stops at the smallest
    such order, or at the given order if that is smaller.  Terms with e
    above the order add nothing; no terms give zero(order).  Each term is
    added from e + valuation(s) on by one map: operator.add for c = 1,
    operator.sub for c = -1, and the products c*y otherwise; a term with
    c = 0 or s = 0 adds nothing but still bounds the order.
    """
    _check_int("order", order)
    out = [0] * (order + 1)
    top = order
    for e, c, s in terms:
        if e < 0:
            _check_int("exponent", e)
        sc = s.coeffs
        top = min(top, e + len(sc) - 1)
        v = _valuation(sc) if c else None
        if v is None:
            continue
        seg = islice(sc, v, None)
        op = _SIGNED_ADD.get(c)
        if op is None:
            seg, op = map(operator.mul, seg, repeat(c)), operator.add
        lo, hi = e + v, e + len(sc)
        out[lo:hi] = map(op, out[lo:hi], seg)
    return ExactSeries(tuple(out[: top + 1]))


def add(a: ExactSeries, b: ExactSeries) -> ExactSeries:
    """Coefficientwise sum at the common (minimum) order."""
    return ExactSeries(tuple(map(operator.add, a.coeffs, b.coeffs)))


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
    _check_int("e", e)
    if e == 0:
        return a
    return ExactSeries((0,) * e + a.coeffs)


def mul(a: ExactSeries, b: ExactSeries) -> ExactSeries:
    """Truncated Cauchy product at the common (minimum) order N.

    The operand with fewer nonzero coefficients in q^0..q^N drives (a on a
    tie): the product is the weighted_sum of c*q^i times the other operand
    over the driver's nonzero terms c*q^i, which makes products with sparse
    factors (monomials, binomials, theta sums) effectively linear.
    """
    order = min(len(a.coeffs), len(b.coeffs)) - 1
    # Both slices hold order + 1 entries, so more zeros means fewer nonzeros.
    if b.coeffs[: order + 1].count(0) > a.coeffs[: order + 1].count(0):
        a, b = b, a
    driver = a.coeffs[: order + 1]
    terms = zip(compress(count(), driver), filter(None, driver), repeat(b))
    return weighted_sum(terms, order)


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


def _divide(out: List[int], start: int, src: List[int], lo: int,
            x: int, c: int, times: int, add: bool) -> None:
    """The binomial-division kernel: src[lo:] / (1 - c*q^x)^times into out.

    With n = len(out) - start, the first n coefficients of the quotient
    of src[lo:], read as a series from q^0, replace out[start:], or are
    added to it when add is true.  src must hold lo + n entries and may
    be out itself.  One division's quotient b satisfies
    b[t] = a[t] + c*b[t-x]: each residue class t = r (mod x) is a
    first-order recurrence, and each block of x entries is the input plus
    c times the block before it.

    The per-coefficient work runs in C iterators, in at most about
    2*sqrt(n) interpreter steps per division.  When x*x < n the x residue
    classes are divided one by one: for c = 1 a division is
    itertools.accumulate, for c = -1 the same between two sign
    alternations (q^x -> -q^x), and any other c passes accumulate a
    callable.  Otherwise each of the n/x blocks is one map over the
    block before it.  The choice depends only on x and n.
    """
    n = len(out) - start
    stop = lo + n
    if x * x < n:
        alternate = c == -1
        step = None if c in _SIGNED_ADD else (lambda y, a: a + c * y)
        for r in range(x):
            col: Iterable[int] = src[lo + r : stop : x]
            if alternate:
                col[1::2] = map(operator.neg, col[1::2])
            for _ in range(times):
                col = accumulate(col, step)
            if alternate:
                col = list(col)
                col[1::2] = map(operator.neg, col[1::2])
            if add:
                col = map(operator.add, out[start + r :: x], col)
            out[start + r :: x] = col
        return
    op = _SIGNED_ADD.get(c)
    block = src[lo : min(lo + x, stop)]
    stages = [block] * times
    for j in range(0, n, x):
        if j:
            block = src[lo + j : min(lo + j + x, stop)]
            for i in range(times):
                block = stages[i] = list(
                    map(op, block, stages[i]) if op else
                    map(operator.add, block, map(operator.mul, stages[i], repeat(c))))
        if add:
            block = map(operator.add, out[start + j : start + j + x], block)
        out[start + j : start + j + x] = block


def divide_binomial(a: ExactSeries, x: int, c: int) -> ExactSeries:
    """The quotient a / (1 - c*q^x) at a's order, for x >= 1.

    One call of the binomial-division kernel _divide on a's coefficients
    from its valuation v on: the quotient equals a below v + x and
    vanishes below v.  O(order) coefficient operations for any x and c.
    """
    _check_int("x", x, 1)
    b = list(a.coeffs)
    v = _valuation(a.coeffs)
    if v is not None:
        _divide(b, v, b, v, x, c, 1, False)
    return ExactSeries(tuple(b))


def add_cell(acc: ExactSeries, s: ExactSeries, e: int, c: int) -> ExactSeries:
    """acc + q^e*s / (1 - c*q^e)^2 in one pass, for e >= 1.

    The order is min(acc.order, s.order + e), as for the composition of
    weighted_sum, two divide_binomial calls and add.  The quotient
    vanishes below t0 = e + valuation(s), so the result equals acc there.
    From t0 on, the kernel _divide divides s twice by (1 - c*q^e) and
    adds the quotient into acc in the same pass over each residue class
    or block: O(order) coefficient operations for any e and c.  s is
    sliced as a list and the sum built as one, with one tuple at the end,
    because short tuple slices are kept on the interpreter's free lists
    and raise peak memory.
    """
    _check_int("e", e, 1)
    ac = acc.coeffs
    order = min(len(ac) - 1, len(s.coeffs) - 1 + e)
    v = _valuation(s.coeffs)
    if v is None or v + e > order:
        return acc if len(ac) == order + 1 else ExactSeries(ac[: order + 1])
    out = list(ac)
    del out[order + 1 :]
    _divide(out, v + e, list(s.coeffs), v, e, c, 2, True)
    return ExactSeries(tuple(out))


def substitute_power(a: ExactSeries, d: int) -> ExactSeries:
    """Replace q by q^d, truncating at the original order.

    The coefficient of q^(d*n) is a.coeffs[n] when d*n <= order; exponents
    that are not multiples of d get 0.
    """
    _check_int("d", d, 1)
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
