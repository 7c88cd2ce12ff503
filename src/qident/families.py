"""The four nested-divisor series families and their index transforms.

A family series is a sum over chains of part magnitudes lambda_1 .. lambda_k,
each magnitude n contributing the atom q^e/(1 -+ q^e)^2 (e = n for the
linear-parts families, e = 2n-1 for the odd-parts families):

  V (weak chains,   linear parts):  1 <= l1 <= l2 <= ... <= lk <= m
  W (weak chains,   odd parts):     same chain rule, atom exponent 2n-1
  A (strict chains, linear parts):  0 < l1 < l2 < ... < lk   (m unbounded)
  C (strict chains, odd parts):     same, atom exponent 2n-1

The n-th coefficient of the k = 1 V-family with + sign is the divisor sum
sigma(n); higher k generalize that to weighted chain counts.  Sign -1
flips the atom denominators to (1 + q^e)^2, which weights each chain
term by (-1)^(t1+...+tk+k).

The family values S_k are the complete (weak chains) or elementary
(strict chains) symmetric functions of the atoms: the t^k coefficients of
prod_n 1/(1 - t*atom(n)) or prod_n (1 + t*atom(n)).  series.chain_sums
builds S_0..S_top in one packed sweep per atom, at the slot width
series.chain_width(strict, order), a closed form proved to bound every
|S_j[m]|.  Each (family, sign, m, order) keeps one table of S_0..S_top,
read through _rows: family_series takes one row of it, and an index
transform takes all the rows it sums from one call.

A FamilySpec names one family series; it is a named tuple that checks
its fields on construction, through _make and _replace as well.

Two index transforms are provided: the central-binomial combination
sum_j w(j) * F_{j,m} that collapses to a Pochhammer-squared times kernel
product, one dot product of the weights with each coefficient column of
the table, and its inverse, which reconstructs F_{j,m} from the
B_{k,j}-weighted kernel sum.  That sum is j + 1 products of the moments
of the kernel's binomial terms (_b_weighted_kernels), one
qtools.binomial_sums, which proves their slot width, and one kernel_H
per k only above _MOMENT_J.
"""

from __future__ import annotations

import operator
import threading
from collections import namedtuple
from math import comb, factorial, gcd
from typing import Dict, Iterable, List, Tuple, Union

from .qtools import INFINITE, _check_bound, binomial_sums, kernel_H, squared_pochhammer
from .series import (
    ExactSeries,
    _check_int,
    _check_sign,
    chain_sums,
    chain_width,
    from_coeffs,
    from_terms,
    mul,
    weighted_sum,
    zero,
)

FAMILIES = ("A", "C", "V", "W")
_WEAK = ("V", "W")  # chains may repeat magnitudes
_ODD = ("W", "C")  # atom exponent 2n-1 instead of n


class InvalidSpec(ValueError):
    """Raised for malformed family specifications."""


class FamilySpec(namedtuple("FamilySpec", "family sign k m", defaults=(INFINITE,))):
    """Which family, which sign, how many magnitudes, which bound.

    m is a positive integer bound on the largest magnitude, or INFINITE.
    The strict-chain families A and C take only m = INFINITE (no truncated
    form is defined for them).  k = 0 yields the constant series 1 for
    every family.  A named tuple that validates on construction; _make and
    _replace build through the constructor, so no spec skips the checks.
    """

    __slots__ = ()

    def __new__(cls, family: str, sign: int, k: int,
                m: Union[int, float] = INFINITE) -> FamilySpec:
        if family not in FAMILIES:
            raise InvalidSpec(f"family must be one of {FAMILIES}, got {family!r}")
        _check_sign(sign, InvalidSpec)
        _check_int("k", k, 0, InvalidSpec)
        _check_bound("m", m, 1, InvalidSpec)
        if m != INFINITE and family in ("A", "C"):
            raise InvalidSpec(f"family {family} takes only m = INFINITE, got m={m}")
        return super().__new__(cls, family, sign, k, m)

    @classmethod
    def _make(cls, iterable: Iterable[object]) -> FamilySpec:
        return cls(*iterable)


# ---------------------------------------------------------------------------
# Atoms
# ---------------------------------------------------------------------------

def _atom_exponent(family: str, n: int) -> int:
    """The exponent e of the magnitude-n atom: 2n-1 for odd parts, else n."""
    return 2 * n - 1 if family in _ODD else n


def atom(family: str, sign: int, n: int, order: int) -> ExactSeries:
    """The magnitude-n factor q^e / (1 - sign*q^e)^2, e = n or 2n-1.

    Written down from the closed form
    q^e/(1 -+ q^e)^2 = sum_{t>=1} sign^(t+1) * t * q^(e*t)
    (geometric-squared expansion).  The chain sums do not use it:
    series.chain_sums divides by (1 - sign*q^e)^2 inside its packed sweep.
    The tests check this closed form against that kernel's S_1 over the
    one exponent e, against two divisions of q^e by (1 - sign*q^e) and
    against q^e * invert((1 -+ q^e)^2).
    """
    FamilySpec(family, sign, 0)  # validates family and sign
    _check_int("n", n, 1, InvalidSpec)
    e = _atom_exponent(family, n)
    terms = ((e * t, t * sign ** (t + 1)) for t in range(1, order // e + 1))
    return from_terms(terms, order)


# ---------------------------------------------------------------------------
# Family series via packed chain sums
# ---------------------------------------------------------------------------

def _m_eff(family: str, m: Union[int, float], order: int) -> int:
    """Largest magnitude whose atom is visible at the working order.

    An atom of magnitude n has valuation n (linear parts) or 2n-1 (odd
    parts), so magnitudes beyond order (resp. (order+1)/2) contribute
    nothing modulo q^(order+1); INFINITE bounds are realized finitely.
    """
    cap = (order + 1) // 2 if family in _ODD else order
    return int(min(m, cap))


def _min_valuation(family: str, k: int) -> int:
    """Smallest exponent a k-chain can reach.

    Weak chains can sit at magnitude 1 with all multiplicities 1: k (V)
    or k (W, atom exponent 1).  Strict chains must climb: 1+2+...+k (A)
    or 1+3+...+(2k-1) = k^2 (C).
    """
    if family in _WEAK:
        return k
    if family == "A":
        return k * (k + 1) // 2
    return k * k  # C


# Chain-sum tables keyed by (family, sign, m_eff, order): S_0..S_top, top
# the largest row asked for so far, and the width they were built at, kept
# as the benchmark's cache statistics unpack (rows, width) pairs.  The lock
# makes concurrent use safe; the series are immutable.
_TableKey = Tuple[str, int, int, int]
_tables: Dict[_TableKey, Tuple[List[ExactSeries], int]] = {}
_tables_lock = threading.Lock()


def _rows(family: str, sign: int, m: Union[int, float], order: int,
          top: int) -> List[ExactSeries]:
    """The rows S_0 .. S_t, t >= top, of the table of (family, sign, m,
    order), built or rebuilt from scratch to top first if it stops below.

    series.chain_sums builds every row in one packed sweep per atom, with
    slot width series.chain_width(strict, order), a formula in the order
    alone.  The list is the table's own, not a copy; callers only read
    it, and only ask for visible rows (family_series answers the others).
    """
    m_eff = _m_eff(family, m, order)
    key = (family, sign, m_eff, order)
    with _tables_lock:
        entry = _tables.get(key)
        if entry is None or len(entry[0]) <= top:
            exponents = [_atom_exponent(family, n) for n in range(1, m_eff + 1)]
            strict = family not in _WEAK
            width = chain_width(strict, order)
            entry = _tables[key] = (
                chain_sums(exponents, sign, strict, top, order, width), width)
        return entry[0]


def family_series(spec: FamilySpec, order: int) -> ExactSeries:
    """The family series for spec, exact modulo q^(order+1).

    A k-chain has valuation at least _min_valuation(family, k), so when
    that exceeds the order the series is zero there and no table is built.
    """
    _check_int("order", order)
    if _min_valuation(spec.family, spec.k) > order:
        return zero(order)
    return _rows(spec.family, spec.sign, spec.m, order, spec.k)[spec.k]


# ---------------------------------------------------------------------------
# Inverse coefficients B_{k,j}
# ---------------------------------------------------------------------------

def b_coefficient(k: int, j: int) -> int:
    """The integer weight B_{k,j} of the inverse index transform.

    B_{0,0} = 1; B_{k,0} = 2 for k >= 1; B_{k,j} = 0 for k < j; otherwise
    B_{k,j} = 2*C(j+k-1, 2j) + C(j+k-1, 2j-1), which equals the quotient
    form 2k/(k+j) * C(k+j, 2j) (tested for 0 <= j <= k <= 30).
    """
    _check_int("k", k)
    _check_int("j", j)
    if k < j:
        return 0
    if j == 0:
        return 1 if k == 0 else 2
    return 2 * comb(j + k - 1, 2 * j) + comb(j + k - 1, 2 * j - 1)


# ---------------------------------------------------------------------------
# Index transforms
# ---------------------------------------------------------------------------

def binomial_combination(
    family: str, sign: int, k: int, m: Union[int, float], order: int
) -> ExactSeries:
    """sum_{j>=k} (-sign)^(j-k) * C(2j, j-k) * F_{j,m} at the working order.

    The + families take alternating weights (-1)^(j-k) * C(2j, j-k); the
    - families take them unsigned.  F_{j,m} has valuation >= j, so the sum
    truncates at j <= order.  Collapses to the Pochhammer-squared times
    kernel product (a registry identity); only V and W participate.  The
    rows F_{k..order,m} come from one read of the chain-sum table, and
    each coefficient is one dot product of the weights with its column.
    """
    if family not in _WEAK:
        raise InvalidSpec(f"combination is defined for V and W, got {family!r}")
    FamilySpec(family, sign, k, m)  # validates sign/k/m, also for k > order
    _check_int("order", order)
    if k > order:
        return zero(order)
    rows = _rows(family, sign, m, order, order)
    weights = [(-sign) ** (j - k) * comb(2 * j, j - k) for j in range(k, order + 1)]
    columns = zip(*(row.coeffs for row in rows[k : order + 1]))
    return from_coeffs(sum(map(operator.mul, column, weights)) for column in columns)


# The largest j whose reconstruct_family right side is summed from
# moments; above it the B-weighted kernels are summed one by one.  The
# moment products grow with j and the kernels shrink with it: swept at
# j = 0..50 and orders 80, 200 and 400 (BENCH_35.json), the moments were
# faster up to about j = 10 at every order (2-core Xeon, Python 3.11).
_MOMENT_J = 10


def _b_polynomial(j: int) -> Tuple[List[int], int]:
    """(a, D) with D * P(k) = sum_i a_i * k^(2i), where P(k) = B_{|k|,j}
    for every integer k != 0 and P(0) = 2 * B_{0,j}.

    P is 2 for j = 0 and 2k^2 * prod_{t=1..j-1} (k^2 - t^2) / (2j)! for
    j >= 1, an even polynomial that vanishes at k = 0, ..., j-1 and equals
    B_{k,j} = 2k/(k+j) * C(k+j, 2j) from k = j on.  a and D are divided by
    their common divisor.
    """
    if j == 0:
        return [2], 1
    a = [0, 2]  # 2K, K = k^2
    for t in range(1, j):
        a = [x - t * t * y for x, y in zip([0] + a, a + [0])]  # times K - t^2
    g = gcd(factorial(2 * j), *a)
    return [x // g for x in a], factorial(2 * j) // g


def _b_weighted_kernels(sign: int, j: int, m: Union[int, float], d: int,
                        order: int) -> ExactSeries:
    """sum_{k>=j} sign^(k-j) * B_{k,j} * q^k * H_k, H_k the two-binomial
    kernel in base Q = q^d with z = q^2, at the order.

    With x_l = [m-1+l, l]_Q * q^l, q^k * H_k = sum_l x_l * x_(l+k), and
    sign^(k-j) = sign^j * sign^l * sign^(l+k), so with y_l = sign^l * x_l
    the sum is sign^j * sum_{k>=0} B_{k,j} sum_l y_l * y_(l+k).  That is
    half the full double sum of P(b - a) * y_a * y_b over all (a, b), P
    the even polynomial of _b_polynomial, whose diagonal weight P(0)/2 is
    B_{0,j}.  Expanding (b - a)^(2i) binomially gives the moments
    M_r = sum_l l^r * y_l, r <= 2j, one qtools.binomial_sums at offsets
    (0,) over the shifts l, and with D * P(k) = sum_i a_i k^(2i):

      D * sum = sign^j * sum_{u<=j} (-1)^u * M_u * L_u,
      L_u = a_u * C(2u, u)/2 * M_u + sum_{u<i<=j} a_i * C(2i, u) * M_(2i-u),

    the pair (u, 2i-u) standing for both orders.  That is j + 1 products,
    each mul packing at its own width; the sum of them is divided by D
    exactly, and a coefficient that does not divide raises
    ArithmeticError.  For j > _MOMENT_J the kernels are summed directly.
    """
    if j > _MOMENT_J:
        terms = ((k, sign ** (k - j) * b_coefficient(k, j), kernel_H(k, m, d, 2, order - k))
                 for k in range(j, order + 1))
        return weighted_sum(terms, order)
    a, denominator = _b_polynomial(j)
    moments = binomial_sums(sign, m, (0,), d, range(order + 1), 2 * j, order)
    products = []
    for u in range(j + 1):
        partner = [(0, a[i] * comb(2 * i, u) // (2 if i == u else 1), moments[2 * i - u])
                   for i in range(u, j + 1) if a[i]]
        # a lone partner of weight 1 is the moment itself: mul(M, M) packs once
        factor = partner[0][2] if len(partner) == 1 and partner[0][1] == 1 else weighted_sum(
            partner, order)
        products.append((0, sign ** j * (-1) ** u, mul(moments[u], factor)))
    total = weighted_sum(products, order).coeffs
    quotients = [divmod(c, denominator) for c in total]
    bad = next((n for n, (_, r) in enumerate(quotients) if r), None)
    if bad is not None:
        raise ArithmeticError(
            f"the moment sum at q^{bad}, {total[bad]}, is not divisible by {denominator}")
    return from_coeffs(c for c, _ in quotients)


def reconstruct_family(
    family: str, sign: int, j: int, m: Union[int, float], order: int
) -> ExactSeries:
    """F_{j,m} recovered from kernel series with the B_{k,j} weights:

      (sign*q; q^step)_m^2 * sum_{k>=j} sign^(k-j) * B_{k,j} * q^k * H_k

    where H_k is the two-binomial kernel in base q (V) or q^2 (W) with
    z = q^2.  Term k has valuation >= k, so the sum truncates at k <= order.
    Contract: equals family_series for the same spec (a registry identity).
    m may be INFINITE: H_k then sums q^(2l) / ((Q;Q)_l (Q;Q)_(k+l)), Q the
    kernel base, and the prefactor is the infinite product.  The kernel
    sum is _b_weighted_kernels: for j <= _MOMENT_J, j + 1 products of
    moments of the kernel's binomial terms, built by no kernel_H.
    """
    if family not in _WEAK:
        raise InvalidSpec(f"reconstruction is defined for V and W, got {family!r}")
    _check_int("j", j, 0, InvalidSpec)
    FamilySpec(family, sign, j, m)  # validates sign and m
    d = 2 if family in _ODD else 1
    return mul(squared_pochhammer(sign, 1, d, m, order),
               _b_weighted_kernels(sign, j, m, d, order))
