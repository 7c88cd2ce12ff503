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
product, and its inverse, which reconstructs F_{j,m} from the kernel
series with the integer weights B_{k,j}.
"""

from __future__ import annotations

import threading
from collections import namedtuple
from math import comb
from typing import Dict, Iterable, List, Tuple, Union

from .qtools import INFINITE, _check_bound, kernel_H, squared_pochhammer
from .series import (
    ExactSeries,
    _check_int,
    _check_sign,
    chain_sums,
    chain_width,
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
    rows F_{k..order,m} come from one read of the chain-sum table.
    """
    if family not in _WEAK:
        raise InvalidSpec(f"combination is defined for V and W, got {family!r}")
    FamilySpec(family, sign, k, m)  # validates sign/k/m, also for k > order
    _check_int("order", order)
    if k > order:
        return zero(order)
    rows = _rows(family, sign, m, order, order)
    terms = ((0, (-sign) ** (j - k) * comb(2 * j, j - k), rows[j])
             for j in range(k, order + 1))
    return weighted_sum(terms, order)


def reconstruct_family(
    family: str, sign: int, j: int, m: Union[int, float], order: int
) -> ExactSeries:
    """F_{j,m} recovered from kernel series with the B_{k,j} weights:

      (sign*q; q^step)_m^2 * sum_{k>=j} sign^(k-j) * B_{k,j} * q^k * H_k

    where H_k is the two-binomial kernel in base q (V) or q^2 (W) with
    z = q^2.  Term k has valuation >= k, so the sum truncates at k <= order.
    Contract: equals family_series for the same spec (a registry identity).
    m may be INFINITE: H_k then sums q^(2l) / ((Q;Q)_l (Q;Q)_(k+l)), Q the
    kernel base, and the prefactor is the infinite product.
    """
    if family not in _WEAK:
        raise InvalidSpec(f"reconstruction is defined for V and W, got {family!r}")
    _check_int("j", j, 0, InvalidSpec)
    FamilySpec(family, sign, j, m)  # validates sign and m
    d = 2 if family in _ODD else 1
    prefactor = squared_pochhammer(sign, 1, d, m, order)
    terms = ((k, sign ** (k - j) * b_coefficient(k, j), kernel_H(k, m, d, 2, order - k))
             for k in range(j, order + 1))
    return mul(prefactor, weighted_sum(terms, order))
