"""q-calculus building blocks on top of :mod:`qident.series`.

Pochhammer products (finite and truncated-infinite), the terms of a
basic hypergeometric series built from its term ratio, one numerator
factor and one divisor at a time (``hypergeometric_terms``), what is
built on them (Gaussian binomials, each one such term, for every top m
including INFINITE; the two-binomial kernel, whose first binomial is one
of them; 2phi1 with monomial arguments), lacunary theta sums, and the
one-sided alternating triangular sum S_k behind every one-sided theta
sum (``identities`` turns it into the linear-part and odd-part flavours).

Truncation rule for formally infinite objects: a factor or term whose
minimal exponent exceeds the working order N is congruent to 1 (resp. 0)
modulo q^(N+1) and is simply skipped, so every result is exact at order N.

Every series here is built with :mod:`qident.series`: sparse sums through
``from_terms``, sums of shifted multiples of series (products with a
binomial (1 - q^x) included) through ``weighted_sum``, quotients by a
binomial through ``divide_binomial``; the one product of two series is
the square in ``squared_pochhammer``, through ``mul``.  ``_gauss_poly``
keeps its own integer arithmetic, but it is a reference only: no build
path calls it.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from itertools import cycle, islice
from math import isqrt
from typing import Iterable, Iterator, Tuple, Type, Union

from .series import (ExactSeries, _check_int, divide_binomial, from_coeffs, from_terms,
                     mul, one, weighted_sum, zero)

#: Sentinel for an unbounded length / magnitude bound.  Realized as
#: math.inf so that min(m, N) arithmetic works unchanged for finite and
#: unbounded bounds.
INFINITE: float = math.inf


def _check_bound(name: str, value: Union[int, float], low: int = 0,
                 error: Type[ValueError] = ValueError) -> None:
    """Raise error unless value is INFINITE or an int >= low."""
    if value != INFINITE:
        _check_int(name, value, low, error)


def _check_sign(sign: int, error: Type[ValueError] = ValueError) -> None:
    """Raise error unless sign is +1 or -1."""
    if sign not in (1, -1):
        raise error(f"sign must be +1 or -1, got {sign}")


# ---------------------------------------------------------------------------
# Pochhammer products
# ---------------------------------------------------------------------------

# The caches of pochhammer and kernel_H are typed: 1.0 never hits the
# entry of 1, so a float argument always reaches the argument checks.
@lru_cache(maxsize=None, typed=True)
def pochhammer(sign: int, offset: int, step: int, length: Union[int, float],
               order: int) -> ExactSeries:
    """prod_r (1 - sign*q^(offset + r*step)) over r = 0..length-1, at the order.

    sign +1 gives factors (1 - q^x), sign -1 gives (1 + q^x).  length 0
    gives the empty product 1; length may be INFINITE.  Factors whose
    exponent exceeds the order contribute nothing modulo q^(order+1) and
    are skipped, which realizes INFINITE length with finitely many factors.
    """
    _check_sign(sign)
    _check_int("offset", offset, 1)
    _check_int("step", step, 1)
    _check_bound("length", length)
    _check_int("order", order)
    visible = (order - offset) // step + 1  # factors with x <= order
    p = one(order)
    for r in range(min(length, visible)):
        p = weighted_sum([(0, 1, p), (offset + r * step, -sign, p)], order)
    return p


def squared_pochhammer(sign: int, offset: int, step: int,
                       length: Union[int, float], order: int) -> ExactSeries:
    """The square of pochhammer(sign, offset, step, length, order)."""
    p = pochhammer(sign, offset, step, length, order)
    return mul(p, p)


# ---------------------------------------------------------------------------
# Gaussian binomials
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _gauss_poly(m: int, k: int) -> Tuple[int, ...]:
    """Coefficient tuple of the Gaussian binomial [m, k] as a polynomial in q.

    Empty tuple encodes 0 (k < 0, m < 0, or k > m).  Computed by the
    q-Pascal recurrence [m,k] = [m-1,k-1] + q^k*[m-1,k]: pure polynomial
    addition, no division, and the zero cases come out naturally.

    The q-Pascal reference for ``gaussian_binomial``, kept beside it
    because the tests compare against it and the benchmark reads the size
    of its memo.  No build path calls it, so that memo stays empty.
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


def gaussian_binomial(m: Union[int, float], k: int, d: int, order: int) -> ExactSeries:
    """The Gaussian binomial [m, k] in base Q = q^d, truncated at the order.

    Returns the zero series whenever the two-case definition says 0
    (k < 0, m < 0, or k > m).  The polynomial has degree k*(m-k) and
    constant term 1 in the nonzero case.

    With h = min(k, m-k), [m, k] = (Q^(m-h+1); Q)_h / (Q; Q)_h is term h
    of the series of ratio Q (1 - Q^(m-h+n)) / (1 - Q^n), without its
    Q^h.  Built at the order + d*n, term n = min(h, order//d) of
    hypergeometric_terms is exact to the order (for n < h it is
    [m-h+n, n], equal to [m, h] on every Q^j, j <= n), so a huge m or k
    costs no more than the order allows.  m may be INFINITE: every
    numerator factor is then 1, and [INFINITE, k] is 1/(Q; Q)_k.
    """
    if m != INFINITE and not isinstance(m, int):
        _check_int("m", m)
    if not isinstance(k, int):
        _check_int("k", k)
    _check_int("d", d, 1)
    _check_int("order", order)
    if k < 0 or m < 0 or k > m:
        return zero(order)
    h = min(k, m - k)
    n = min(h, order // d)
    wide = order + d * n
    terms = hypergeometric_terms(one(wide), (m - h + 1,), (1,), d, d, wide)
    return next(islice(terms, n, None))


# ---------------------------------------------------------------------------
# The two-binomial kernel sum
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None, typed=True)
def kernel_H(k: int, m: Union[int, float], d: int, s: int, order: int) -> ExactSeries:
    """sum_j [m-1+j, j] * [m-1+k+j, k+j] * q^(s*j), binomials in base Q = q^d.

    Term j is term j-1 times q^s (1 - Q^(m-1+j)) (1 - Q^(m-1+k+j)) /
    ((1 - Q^j) (1 - Q^(k+j))), so the sum is the basic hypergeometric
    series [m-1+k, k]_Q * 2phi1(Q^m, Q^(m+k); Q^(k+1); Q, q^s), summed
    from that term ratio by hypergeometric_terms.  The first binomial is
    gaussian_binomial, itself a term of that generator, so a huge k or m
    costs no more than the order allows.  m may be INFINITE: every factor
    (1 - Q^(m+...)) is then 1, so the binomials become 1/(Q; Q)_j and
    1/(Q; Q)_(k+j).  At m = 0 every binomial [-1+j, j] vanishes: the
    result is zero for every k.
    """
    _check_int("k", k)
    _check_bound("m", m)
    _check_int("d", d, 1)
    _check_int("s", s, 1)
    _check_int("order", order)
    if m == 0:
        return zero(order)
    first = gaussian_binomial(m - 1 + k, k, d, order)
    terms = hypergeometric_terms(first, (m, m + k), (1, k + 1), d, s, order)
    return weighted_sum(((s * j, 1, u) for j, u in enumerate(terms)), order)


# ---------------------------------------------------------------------------
# Basic hypergeometric sums from their term ratio
# ---------------------------------------------------------------------------

def hypergeometric_terms(first: ExactSeries, top: Iterable[float], bottom: Iterable[int],
                         d: int, s: int, order: int) -> Iterator[ExactSeries]:
    """The terms of a basic hypergeometric series in base Q = q^d without
    their z-power: term n of the series is q^(s*n) * u_n, where

        u_0 = first,
        u_n = u_(n-1) * prod_{a in top} (1 - Q^(a+n-1))
                      / prod_{c in bottom} (1 - Q^(c+n-1))

    for n = 1..order//s.  u_n is truncated at q^(order - s*n), all that
    q^(s*n) * u_n can reach, so callers put s*n into the exponent they
    hand weighted_sum.  Parameters in both top and bottom cancel first.
    Each numerator factor is a two-term weighted_sum, as in pochhammer,
    and each divisor a divide_binomial, so no step multiplies two series.
    A numerator factor above u_n's order is 1 there and is skipped, so a
    top parameter may be INFINITE.  Every c in bottom must be >= 1.
    """
    top, bottom = Counter(top), Counter(bottom)
    for c in bottom:
        _check_int("bottom", c, 1)
    top, bottom = list((top - bottom).elements()), list((bottom - top).elements())
    u = first
    yield u
    for n in range(1, order // s + 1):
        cut = order - s * n
        u = from_coeffs(u.coeffs[: cut + 1])
        for x in (d * (a + n - 1) for a in top):
            if x <= cut:
                u = weighted_sum([(0, 1, u), (x, -1, u)], cut)
        for c in bottom:
            u = divide_binomial(u, d * (c + n - 1), 1)
        yield u


def phi2_1(
    a_exp: int, b_exp: int, c_exp: int, d: int, s: int, order: int
) -> ExactSeries:
    """sum_n (A;Q)_n (B;Q)_n / ((Q;Q)_n (C;Q)_n) * q^(s*n)
    with Q = q^d, A = Q^a_exp, B = Q^b_exp, C = Q^c_exp.

    All parameter exponents must be >= 1 so every Pochhammer factor has
    unit constant term; the z-argument q^s must satisfy s >= 1 so that
    term n has valuation >= s*n and the sum truncates at n <= order/s.
    The terms come from hypergeometric_terms with top (a_exp, b_exp) and
    bottom (1, c_exp), without their q^(s*n), which the sum shifts back.
    """
    for name, value in (("a_exp", a_exp), ("b_exp", b_exp), ("c_exp", c_exp),
                        ("d", d), ("s", s)):
        _check_int(name, value, 1)
    terms = hypergeometric_terms(one(order), (a_exp, b_exp), (1, c_exp), d, s, order)
    return weighted_sum(((s * n, 1, u) for n, u in enumerate(terms)), order)


# ---------------------------------------------------------------------------
# Theta sums
# ---------------------------------------------------------------------------

def theta_phi_neg(order: int) -> ExactSeries:
    """1 + 2*sum_{k>=1} (-1)^k q^(k^2): the square-exponent theta sum.

    Equal to the product (q;q)inf / (-q;q)inf; the product form is checked
    against this sum in the tests, not used to build it (the sum has
    O(sqrt(N)) terms and is exact by construction).
    """
    _check_int("order", order)
    squares = [(k * k, 2 * (-1) ** k) for k in range(1, isqrt(order) + 1)]
    return from_terms([(0, 1)] + squares, order)


def theta_psi(order: int) -> ExactSeries:
    """sum_{k>=0} q^(k(k+1)/2): the triangular-exponent theta sum.

    Equal to the product (q^2;q^2)inf / (q;q^2)inf (checked in tests).
    """
    _check_int("order", order)
    # k(k+1)/2 <= order forces k <= sqrt(2*order); from_terms drops the rest.
    triangles = ((k * (k + 1) // 2, 1) for k in range(isqrt(2 * order) + 1))
    return from_terms(triangles, order)


# ---------------------------------------------------------------------------
# One-sided alternating triangular sums
# ---------------------------------------------------------------------------

def alt_triangular_sum(k: int, order: int) -> ExactSeries:
    """S_k = sum_{j>=k} (-1)^(j-k) * q^(T_j - T_k), T_j = j(j+1)/2.

    Only finitely many j contribute at any order.  The sum starts at
    1 - q^(k+1) + q^(2k+3) - ..., so its valuation is 0.
    """
    _check_int("k", k)
    _check_int("order", order)
    # Term j needs j^2 <= j(j+1) <= 2*order + k(k+1); from_terms drops the
    # few beyond the order.
    top = isqrt(2 * order + k * (k + 1))
    exps = ((j * (j + 1) - k * (k + 1)) // 2 for j in range(k, top + 1))
    return from_terms(zip(exps, cycle((1, -1))), order)
