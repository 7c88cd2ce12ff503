"""q-calculus building blocks on top of :mod:`qident.series`.

Pochhammer products, Gaussian binomials, basic hypergeometric sums from
their term ratio (``_ratio_sums``) and what is built on them (the
two-binomial kernel, 2phi1), lacunary theta sums, and the one-sided
alternating triangular sum S_k, whose sparse terms
(``alt_triangular_terms``) every one-sided theta sum is built from.

Truncation rule for formally infinite objects: a factor or term whose
minimal exponent exceeds the working order N is congruent to 1 (resp. 0)
modulo q^(N+1) and is simply skipped, so every result is exact at order N.

Every product or quotient of binomials (1 - c*q^x) and every term-ratio
sum the package builds is one packed series.term_sums: ``_binomial_quotient``
is its one-term case and ``_ratio_sums`` its term-ratio form.  This module
hands series factor lists and a coefficient bound, which each builder
derives from its own factors with series._partition_bound and states in
its docstring, and never touches a packed integer.  So no build path
inverts a series; the one product of two series here is the square in
``squared_pochhammer``.  ``_gauss_poly`` and ``hypergeometric_terms`` are
references no build path calls.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from math import isqrt
from itertools import repeat
from typing import Iterable, Iterator, List, Sequence, Tuple, Type, Union

from .series import (ExactSeries, _check_int, _check_sign, _partition_bound, divide_binomial,
                     from_coeffs, from_terms, mul, term_sums, weighted_sum, zero)

#: Sentinel for an unbounded length / magnitude bound.  Realized as
#: math.inf so that min(m, N) arithmetic works unchanged for finite and
#: unbounded bounds.
INFINITE: float = math.inf


def _check_bound(name: str, value: Union[int, float], low: float = 0,
                 error: Type[ValueError] = ValueError) -> None:
    """Raise error unless value is INFINITE or an int >= low."""
    if value != INFINITE:
        _check_int(name, value, low, error)


# ---------------------------------------------------------------------------
# Pochhammer products
# ---------------------------------------------------------------------------

# The caches of pochhammer, squared_pochhammer and kernel_H are typed: 1.0
# never hits the entry of 1, so a float argument always reaches the
# argument checks.
@lru_cache(maxsize=None, typed=True)
def pochhammer(sign: int, offset: int, step: int, length: Union[int, float],
               order: int) -> ExactSeries:
    """prod_r (1 - sign*q^(offset + r*step)) over r = 0..length-1, at the order.

    sign +1 gives factors (1 - q^x), sign -1 gives (1 + q^x).  length 0
    gives 1, and length may be INFINITE: _factors lists the visible ones.
    One _binomial_quotient with no denominator.
    """
    _check_sign(sign)
    _check_int("offset", offset, 1)
    _check_int("step", step, 1)
    _check_bound("length", length)
    _check_int("order", order)
    return _binomial_quotient(_factors(sign, offset, step, length, order), (), order)


def _factors(sign: int, offset: int, step: int, length: Union[int, float],
             order: int) -> Iterator[Tuple[int, int]]:
    """The (x, sign) pairs of pochhammer's factors with x <= order.

    An offset above the order, INFINITE included, gives no factor."""
    start = min(offset, order + 1)
    return ((x, sign) for x in range(start, min(offset + step * length, order + 1), step))


def _cancel(top: Iterable, bottom: Iterable) -> Tuple[list, list]:
    """top and bottom with the entries they share removed, as often as
    both hold them."""
    top, bottom = Counter(top), Counter(bottom)
    return list((top - bottom).elements()), list((bottom - top).elements())


def _binomial_quotient(top: Iterable[Tuple[int, int]], bottom: Iterable[Tuple[int, int]],
                       order: int) -> ExactSeries:
    """prod_top (1 - c*q^x) / prod_bottom (1 - c*q^x) over (x, c) pairs,
    x >= 1, at the order: the one-term series.term_sums.  Factors in both
    top and bottom cancel first; a factor with x above the order is 1
    there.

    Its width bound is max(1, |c|)^N * p_r(N) (_partition_bound), N the
    order and r the largest number of visible factors with one exponent.
    Each |coefficient| of the quotient is at most that of
    prod_top (1 + |c| q^x) / prod_bottom (1 - |c| q^x): |c|^j at q^(j*x)
    is at most max(1, |c|)^n at q^n, (1 + q^x) <= 1/(1 - q^x)
    coefficientwise, and a product of at most r factors 1/(1 - q^x) per x
    is at most 1/(q;q)_inf^r, whose coefficients p_r never decrease.
    """
    top, bottom = _cancel((f for f in top if f[0] <= order),
                          (f for f in bottom if f[0] <= order))
    big = max([1] + [abs(c) for _, c in top + bottom])
    r = max(Counter(x for x, _ in top + bottom).values(), default=0)
    return term_sums(top, bottom, (), (), 1, (0,), [(1,)],
                     big ** order * _partition_bound(r, order), order)[0]


@lru_cache(maxsize=None, typed=True)
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


def _gauss_factors(m: Union[int, float], k: int, d: int,
                   order: int) -> Tuple[List[Tuple[int, int]], List[Tuple[int, int]]]:
    """The visible numerator and denominator factors of [m, k]_Q, Q = q^d,
    for 0 <= k <= m: with h = min(k, m-k), (Q^(m-h+1); Q)_h / (Q; Q)_h.
    At m = INFINITE no numerator factor reaches the order."""
    h = min(k, m - k)
    return (list(_factors(1, d * (m - h + 1), d, h, order)),
            list(_factors(1, d, d, h, order)))


def gaussian_binomial(m: Union[int, float], k: int, d: int, order: int) -> ExactSeries:
    """The Gaussian binomial [m, k] in base Q = q^d, truncated at the order.

    Returns the zero series whenever the two-case definition says 0
    (k < 0, m < 0, or k > m).  The polynomial has degree k*(m-k) and
    constant term 1 in the nonzero case.

    One _binomial_quotient over the factors of _gauss_factors that reach
    the order, so a huge m or k costs no more than the order allows.  m
    may be INFINITE: [INFINITE, k] is 1/(Q; Q)_k.
    """
    _check_bound("m", m, -INFINITE)  # any integer: below 0 the binomial is 0
    _check_int("k", k, -INFINITE)
    _check_int("d", d, 1)
    _check_int("order", order)
    if k < 0 or m < 0 or k > m:
        return zero(order)
    return _binomial_quotient(*_gauss_factors(m, k, d, order), order)


# ---------------------------------------------------------------------------
# Basic hypergeometric sums from their term ratio
# ---------------------------------------------------------------------------

def _ratio_sums(top: Iterable[float], bottom: Iterable[int], d: int, shifts: Iterable[int],
                weights: Sequence[Iterable[int]], bound: int, order: int,
                first: Tuple[Iterable[Tuple[int, int]], Iterable[Tuple[int, int]]] = ((), ()),
                ) -> List[ExactSeries]:
    """The series.term_sums of a basic hypergeometric series in base
    Q = q^d: u_0 is the quotient of the factors first = (top1, bottom1),
    and u_n = u_(n-1) * prod_{a in top} (1 - Q^(a+n-1)) /
    prod_{c in bottom} (1 - Q^(c+n-1)), so parameter a is the term_sums
    exponent d*(a-1).  Parameters in both top and bottom cancel first,
    and an INFINITE top parameter gives no factor.  The caller derives
    bound from the factors and weights of its own sum.
    """
    top, bottom = _cancel((a for a in top if a != INFINITE), bottom)
    return term_sums(*first, [d * (a - 1) for a in top], [d * (c - 1) for c in bottom], d,
                     shifts, weights, bound, order)


def hypergeometric_terms(first: ExactSeries, top: Iterable[float], bottom: Iterable[int],
                         d: int, s: int, order: int) -> Iterator[ExactSeries]:
    """The terms of a basic hypergeometric series in base Q = q^d without
    their z-power: term n of the series is q^(s*n) * u_n, where

        u_0 = first,
        u_n = u_(n-1) * prod_{a in top} (1 - Q^(a+n-1))
                      / prod_{c in bottom} (1 - Q^(c+n-1))

    for n = 1..order//s, u_n truncated at q^(order - s*n).  Parameters in
    both top and bottom cancel first; a top parameter may be INFINITE, and
    d, s and every parameter must be >= 1.

    The unpacked reference for _ratio_sums, kept because the tests
    compare against it: each numerator factor is a two-term weighted_sum,
    each denominator factor a divide_binomial.  No build path calls it.
    """
    top, bottom = tuple(top), tuple(bottom)  # checked before a Counter merges True into 1
    for a in top:
        _check_bound("top", a, 1)
    for c in bottom:
        _check_int("bottom", c, 1)
    _check_int("d", d, 1)
    _check_int("s", s, 1)
    _check_int("order", order)
    top, bottom = _cancel(top, bottom)
    u = first
    yield u
    for n in range(1, order // s + 1):
        reach = order - s * n
        u = from_coeffs(u.coeffs[: reach + 1])
        for a in top:
            if d * (a + n - 1) <= reach:
                u = weighted_sum([(0, 1, u), (d * (a + n - 1), -1, u)], reach)
        for c in bottom:
            if d * (c + n - 1) <= reach:
                u = divide_binomial(u, d * (c + n - 1), 1)
        yield u


# ---------------------------------------------------------------------------
# The two-binomial kernel sum
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None, typed=True)
def kernel_H(k: int, m: Union[int, float], d: int, s: int, order: int) -> ExactSeries:
    """sum_j [m-1+j, j] * [m-1+k+j, k+j] * q^(s*j), binomials in base Q = q^d.

    Term j is term j-1 times q^s (1 - Q^(m-1+j)) (1 - Q^(m-1+k+j)) /
    ((1 - Q^j) (1 - Q^(k+j))), so the sum is the basic hypergeometric
    series [m-1+k, k]_Q * 2phi1(Q^m, Q^(m+k); Q^(k+1); Q, q^s), one
    _ratio_sums from that term ratio, its first term [m-1+k, k]_Q the
    factors of _gauss_factors.  Every step reads only the factors that
    reach the order, so a huge k or m costs no more than the order
    allows.  m may be INFINITE: every factor (1 - Q^(m+...)) is then 1,
    so the binomials become 1/(Q; Q)_j and 1/(Q; Q)_(k+j).  At m = 0
    every binomial [-1+j, j] vanishes: the result is zero for every k.

    Its width bound is the smaller of two, N the order:
    - for every m, (N+1) * p_2(N // d): [m-1+j, j]_Q <= 1/(Q;Q)_j
      coefficientwise (a partition in a j x (m-1) box has at most j
      parts), and 1/(Q;Q)_j <= 1/(Q;Q)_inf, so the kernel is at most
      sum_j q^(s*j)/(Q;Q)_inf^2, whose coefficients up to q^N sum at most
      N+1 terms of at most p_2(N // d);
    - for m <= N, the kernel's value at q = 1 over the terms that reach
      the order, sum_{j <= N/s} C(m-1+j, j) * C(m-1+k+j, k+j): every
      coefficient is nonnegative.
    """
    _check_int("k", k)
    _check_bound("m", m)
    _check_int("d", d, 1)
    _check_int("s", s, 1)
    _check_int("order", order)
    if m == 0:
        return zero(order)
    bound = (order + 1) * _partition_bound(2, order // d)
    if m <= order:
        a, b, total = 1, math.comb(m - 1 + k, m - 1), 0
        for j in range(order // s + 1):
            if j:
                a, b = a * (m - 1 + j) // j, b * (m - 1 + k + j) // (k + j)
            total += a * b
        bound = min(bound, total)
    return _ratio_sums((m, m + k), (1, k + 1), d, range(0, order + 1, s), [repeat(1)], bound,
                       order, _gauss_factors(m - 1 + k, k, d, order))[0]


def phi2_1(
    a_exp: int, b_exp: int, c_exp: int, d: int, s: int, order: int
) -> ExactSeries:
    """sum_n (A;Q)_n (B;Q)_n / ((Q;Q)_n (C;Q)_n) * q^(s*n)
    with Q = q^d, A = Q^a_exp, B = Q^b_exp, C = Q^c_exp.

    All parameter exponents must be >= 1 so every Pochhammer factor has
    unit constant term; the z-argument q^s must satisfy s >= 1 so that
    term n has valuation >= s*n and the sum truncates at n <= order/s.
    One _ratio_sums with top (a_exp, b_exp) and bottom (1, c_exp).

    Its width bound is (N//s + 1) * p_r(N//d), N the order and r the
    number of parameters left once top and bottom cancel: parameter a
    gives the factors (1 - Q^(a+i)), i < n, one per exponent, so term n
    is at most prod (1 + Q^x) / prod (1 - Q^x) over r such runs, which is
    at most 1/(Q;Q)_inf^r coefficientwise (see _binomial_quotient).
    """
    for name, value in (("a_exp", a_exp), ("b_exp", b_exp), ("c_exp", c_exp),
                        ("d", d), ("s", s)):
        _check_int(name, value, 1)
    _check_int("order", order)
    top, bottom = _cancel((a_exp, b_exp), (1, c_exp))
    bound = (order // s + 1) * _partition_bound(len(top) + len(bottom), order // d)
    return _ratio_sums(top, bottom, d, range(0, order + 1, s), [repeat(1)], bound, order)[0]


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

def alt_triangular_terms(k: int, order: int) -> List[Tuple[int, int]]:
    """The terms (T_j - T_k, (-1)^(j-k)) of S_k = alt_triangular_sum(k)
    with exponent at most the order, T_j = j(j+1)/2, in increasing order.

    The exponents strictly increase with j, so every term is nonzero and
    no two share an exponent; there are O(sqrt(order)) of them.
    """
    _check_int("k", k)
    _check_int("order", order)
    terms = []
    e, j, c = 0, k, 1
    while e <= order:
        terms.append((e, c))
        j += 1
        e += j  # T_j - T_(j-1) = j
        c = -c
    return terms


def alt_triangular_sum(k: int, order: int) -> ExactSeries:
    """S_k = sum_{j>=k} (-1)^(j-k) * q^(T_j - T_k), T_j = j(j+1)/2.

    Only finitely many j contribute at any order: the terms of
    alt_triangular_terms.  The sum starts at 1 - q^(k+1) + q^(2k+3) - ...,
    so its valuation is 0.
    """
    return from_terms(alt_triangular_terms(k, order), order)
