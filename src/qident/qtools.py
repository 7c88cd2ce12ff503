"""q-calculus building blocks on top of :mod:`qident.series`.

Pochhammer products (finite and truncated-infinite), Gaussian binomials,
the two-binomial kernel sum, the basic hypergeometric sum with monomial
arguments, lacunary theta sums, and one-sided alternating triangular sums.

Truncation rule for formally infinite objects: a factor or term whose
minimal exponent exceeds the working order N is congruent to 1 (resp. 0)
modulo q^(N+1) and is simply skipped, so every result is exact at order N.

Every series here is built with :mod:`qident.series`: sparse sums through
``from_terms``, sums of shifted multiples of series (products with a
binomial (1 - q^x) included) through ``weighted_sum``, quotients by a
binomial through ``divide_binomial``, other products through ``mul``.
The one other arithmetic is ``_gauss_poly``, which builds exact q-Pascal
polynomials (plain integer tuples, not series).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import cycle
from math import isqrt
from typing import Tuple, Union

from .series import ExactSeries, divide_binomial, from_terms, mul, one, weighted_sum

#: Sentinel for an unbounded length / magnitude bound.  Realized as
#: math.inf so that min(m, N) arithmetic works unchanged for finite and
#: unbounded bounds.
INFINITE: float = math.inf

#: Variant selectors for :func:`alt_triangular_sum`.
HALF = "half"
WHOLE = "whole"


# ---------------------------------------------------------------------------
# Pochhammer products
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PochSpec:
    """A product prod_r (1 - sign*q^(offset + r*step)) over r = 0..length-1.

    sign +1 gives factors (1 - q^x), sign -1 gives (1 + q^x).  length may
    be INFINITE: at order N only the factors with exponent <= N are real,
    the rest are 1 modulo q^(N+1).
    """

    sign: int
    offset: int
    step: int
    length: Union[int, float]

    def __post_init__(self) -> None:
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")
        if self.offset < 1:
            raise ValueError(f"offset must be >= 1, got {self.offset}")
        if self.step < 1:
            raise ValueError(f"step must be >= 1, got {self.step}")
        if self.length != INFINITE and (
            not isinstance(self.length, int) or self.length < 0
        ):
            raise ValueError(
                f"length must be a non-negative integer or INFINITE, got {self.length}"
            )


@lru_cache(maxsize=None)
def pochhammer(spec: PochSpec, order: int) -> ExactSeries:
    """The truncated product described by spec, at the given order.

    length 0 gives the empty product 1.  Factors whose exponent exceeds
    the order contribute nothing modulo q^(order+1) and are skipped, which
    realizes INFINITE length with finitely many factors.
    """
    visible = (order - spec.offset) // spec.step + 1  # factors with x <= order
    p = one(order)
    for r in range(min(spec.length, visible)):
        x = spec.offset + r * spec.step
        p = weighted_sum([(0, 1, p), (x, -spec.sign, p)], order)
    return p


def squared_pochhammer(sign: int, offset: int, step: int,
                       length: Union[int, float], order: int) -> ExactSeries:
    """The square of the PochSpec(sign, offset, step, length) product."""
    p = pochhammer(PochSpec(sign=sign, offset=offset, step=step, length=length), order)
    return mul(p, p)


# ---------------------------------------------------------------------------
# Gaussian binomials
# ---------------------------------------------------------------------------

# The memo table is an lru_cache: safe for concurrent read/insert (worst
# case two threads compute the same entry once each; entries are immutable
# tuples, so sharing is harmless).

@lru_cache(maxsize=None)
def _gauss_poly(m: int, k: int) -> Tuple[int, ...]:
    """Coefficient tuple of the Gaussian binomial [m, k] as a polynomial in q.

    Empty tuple encodes 0 (k < 0, m < 0, or k > m).  Computed by the
    q-Pascal recurrence [m,k] = [m-1,k-1] + q^k*[m-1,k]: pure polynomial
    addition, no division, and the zero cases come out naturally.
    """
    if k < 0 or m < 0 or k > m:
        return ()
    if k == 0:
        return (1,)
    left = _gauss_poly(m - 1, k - 1)
    right = _gauss_poly(m - 1, k)  # shifted by q^k
    degree = max(len(left) - 1, len(right) - 1 + k)
    out = [0] * (degree + 1)
    for i, c in enumerate(left):
        out[i] += c
    for i, c in enumerate(right):
        out[i + k] += c
    return tuple(out)


def gaussian_binomial(m: int, k: int, d: int, order: int) -> ExactSeries:
    """The Gaussian binomial [m, k] in base q^d, truncated at the order.

    Returns the zero series whenever the two-case definition says 0
    (k < 0, m < 0, or k > m).  The polynomial has degree k*(m-k) and
    constant term 1 in the nonzero case.
    """
    if d < 1:
        raise ValueError(f"base power must be >= 1, got {d}")
    return from_terms(zip(range(0, order + 1, d), _gauss_poly(m, k)), order)


# ---------------------------------------------------------------------------
# The two-binomial kernel sum
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def kernel_H(k: int, m: int, d: int, s: int, order: int) -> ExactSeries:
    """sum_j [m-1+j, j] * [m-1+k+j, k+j] * q^(s*j), binomials in base q^d.

    Term j carries the factor q^(s*j), so only j <= order/s contribute at
    the working order.  At m = 0 every term has the vanishing factor
    [-1+j, j] (zero for all j >= 0 under the two-case definition), so the
    result is the zero series for every k.  m must be finite: the
    binomials [m-1+j, j] of an unbounded m are not polynomials.
    """
    if k < 0 or m < 0:
        raise ValueError(f"indices must be non-negative, got k={k}, m={m}")
    if not math.isfinite(m):
        raise ValueError(f"the two-binomial kernel needs a finite bound m, got m={m}")
    if d < 1 or s < 1:
        raise ValueError(f"base and z powers must be >= 1, got d={d}, s={s}")
    terms = ((s * j, 1, mul(gaussian_binomial(m - 1 + j, j, d, order - s * j),
                            gaussian_binomial(m - 1 + k + j, k + j, d, order - s * j)))
             for j in range(order // s + 1))
    return weighted_sum(terms, order)


# ---------------------------------------------------------------------------
# Basic hypergeometric sum with monomial arguments
# ---------------------------------------------------------------------------

def phi2_1(
    a_exp: int, b_exp: int, c_exp: int, d: int, s: int, order: int
) -> ExactSeries:
    """sum_n (A;Q)_n (B;Q)_n / ((Q;Q)_n (C;Q)_n) * q^(s*n)
    with Q = q^d, A = Q^a_exp, B = Q^b_exp, C = Q^c_exp.

    All parameter exponents must be >= 1 so every Pochhammer factor has
    unit constant term; the z-argument q^s must satisfy s >= 1 so that
    term n has valuation >= s*n and the sum truncates at n <= order/s.

    Each term is obtained from the previous one through the exact factor
    ratio: numerator binomials by weighted_sum, denominator binomials by
    divide_binomial, the z-power q^s by a one-term weighted_sum.
    """
    if min(a_exp, b_exp, c_exp) < 1:
        raise ValueError("parameter exponents must be >= 1")
    if d < 1 or s < 1:
        raise ValueError(f"base and z powers must be >= 1, got d={d}, s={s}")

    def terms():
        term = one(order)
        yield 0, 1, term
        for n in range(1, order // s + 1):
            for x in (d * (a_exp + n - 1), d * (b_exp + n - 1)):
                term = weighted_sum([(0, 1, term), (x, -1, term)], order)
            for x in (d * n, d * (c_exp + n - 1)):
                term = divide_binomial(term, x, 1)
            term = weighted_sum([(s, 1, term)], order)
            yield 0, 1, term

    return weighted_sum(terms(), order)


# ---------------------------------------------------------------------------
# Theta sums
# ---------------------------------------------------------------------------

def theta_phi_neg(order: int) -> ExactSeries:
    """1 + 2*sum_{k>=1} (-1)^k q^(k^2): the square-exponent theta sum.

    Equal to the product (q;q)inf / (-q;q)inf; the product form is checked
    against this sum in the tests, not used to build it (the sum has
    O(sqrt(N)) terms and is exact by construction).
    """
    if order < 0:
        raise ValueError(f"order must be non-negative, got {order}")
    squares = [(k * k, 2 * (-1) ** k) for k in range(1, isqrt(order) + 1)]
    return from_terms([(0, 1)] + squares, order)


def theta_psi(order: int) -> ExactSeries:
    """sum_{k>=0} q^(k(k+1)/2): the triangular-exponent theta sum.

    Equal to the product (q^2;q^2)inf / (q;q^2)inf (checked in tests).
    """
    if order < 0:
        raise ValueError(f"order must be non-negative, got {order}")
    # k(k+1)/2 <= order forces k <= sqrt(2*order); from_terms drops the rest.
    triangles = ((k * (k + 1) // 2, 1) for k in range(isqrt(2 * order) + 1))
    return from_terms(triangles, order)


# ---------------------------------------------------------------------------
# One-sided alternating triangular sums
# ---------------------------------------------------------------------------

def alt_triangular_sum(k: int, variant: str, order: int) -> ExactSeries:
    """One-sided alternating sum over shifted triangular exponents.

    HALF:  sum_{j>=k} (-1)^(j-k) * q^(j(j+1)/2 - k(k+1)/2)
    WHOLE: sum_{j>=k} (-1)^(j-k) * q^(j(j+1) - k^2)

    Only finitely many j contribute at any order.  The HALF variant starts
    at 1 - q^(k+1) + q^(2k+3) - ...; the WHOLE variant starts at its j=k
    term q^k (exponent k(k+1) - k^2), so both have valuation <= k.
    """
    if k < 0:
        raise ValueError(f"index must be non-negative, got {k}")
    if variant not in (HALF, WHOLE):
        raise ValueError(f"variant must be {HALF!r} or {WHOLE!r}, got {variant!r}")
    # Term j needs j^2 <= j(j+1) <= 2*order + k(k+1) (HALF) or
    # order + k^2 (WHOLE); from_terms drops the few beyond the order.
    if variant == HALF:
        top = isqrt(2 * order + k * (k + 1))
        exps = ((j * (j + 1) - k * (k + 1)) // 2 for j in range(k, top + 1))
    else:
        top = isqrt(order + k * k)
        exps = (j * (j + 1) - k * k for j in range(k, top + 1))
    return from_terms(zip(exps, cycle((1, -1))), order)
