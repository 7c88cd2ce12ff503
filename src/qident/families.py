"""The four nested-divisor series families and their index transforms.

A family series is a sum over chains of part magnitudes lambda_1 .. lambda_k,
each magnitude n contributing the atom q^e/(1 -+ q^e)^2 (e = n for the
linear-parts families, e = 2n-1 for the odd-parts families):

  V (weak chains,   linear parts):  1 <= l1 <= l2 <= ... <= lk <= m
  W (weak chains,   odd parts):     same chain rule, atom exponent 2n-1
  A (strict chains, linear parts):  0 < l1 < l2 < ... < lk   (m unbounded)
  C (strict chains, odd parts):     same, atom exponent 2n-1

The n-th coefficient of the k = 1 V-family with + sign is the divisor sum
sigma(n); higher k generalize that to weighted chain counts.  The sign
variant -1 flips the atom denominators to (1 + q^e)^2, which weights each
chain term by (-1)^(t1+...+tk+k).

Two index transforms are provided: the central-binomial combination
sum_j w(j) * F_{j,m} that collapses to a Pochhammer-squared times kernel
product, and its inverse, which reconstructs F_{j,m} from the kernel
series with the integer weights B_{k,j}.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from math import comb
from typing import Dict, List, Tuple, Union

from .qtools import INFINITE, kernel_H, squared_pochhammer
from .series import (
    ExactSeries,
    add,
    divide_binomial,
    from_terms,
    mul,
    one,
    weighted_sum,
    zero,
)

FAMILIES = ("A", "C", "V", "W")
_WEAK = ("V", "W")  # chains may repeat magnitudes
_ODD = ("W", "C")  # atom exponent 2n-1 instead of n


class InvalidSpec(ValueError):
    """Raised for malformed family specifications."""


@dataclass(frozen=True)
class FamilySpec:
    """Which family, which sign variant, how many magnitudes, which bound.

    m is a positive integer bound on the largest magnitude, or INFINITE.
    The strict-chain families A and C take only m = INFINITE (no truncated
    variant is defined for them).  k = 0 yields the constant series 1 for
    every family.
    """

    family: str
    sign: int
    k: int
    m: Union[int, float] = INFINITE

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise InvalidSpec(f"family must be one of {FAMILIES}, got {self.family!r}")
        if self.sign not in (1, -1):
            raise InvalidSpec(f"sign must be +1 or -1, got {self.sign}")
        if not isinstance(self.k, int) or self.k < 0:
            raise InvalidSpec(f"k must be a non-negative integer, got {self.k}")
        if self.m != INFINITE:
            if not isinstance(self.m, int) or self.m < 1:
                raise InvalidSpec(
                    f"m must be a positive integer or INFINITE, got {self.m}"
                )
            if self.family in ("A", "C"):
                raise InvalidSpec(
                    f"family {self.family} takes only m = INFINITE, got m={self.m}"
                )


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
    (geometric-squared expansion).  The chain DP does not use it: each of
    its cells divides q^e times the predecessor by (1 - sign*q^e) twice.
    The tests check this closed form against that cell form and against
    q^e * invert((1 -+ q^e)^2).
    """
    if family not in FAMILIES:
        raise InvalidSpec(f"family must be one of {FAMILIES}, got {family!r}")
    if sign not in (1, -1):
        raise InvalidSpec(f"sign must be +1 or -1, got {sign}")
    if n < 1:
        raise InvalidSpec(f"magnitude must be >= 1, got {n}")
    e = _atom_exponent(family, n)
    terms = ((e * t, t * sign ** (t + 1)) for t in range(1, order // e + 1))
    return from_terms(terms, order)


# ---------------------------------------------------------------------------
# Family series via chain dynamic programming
# ---------------------------------------------------------------------------

def _m_eff(family: str, m: Union[int, float], order: int) -> int:
    """Largest magnitude whose atom is visible at the working order.

    An atom of magnitude n has valuation n (linear parts) or 2n-1 (odd
    parts), so magnitudes beyond order (resp. (order+1)/2) contribute
    nothing modulo q^(order+1); INFINITE bounds are realized finitely.
    """
    cap = (order + 1) // 2 if family in _ODD else order
    return int(min(m, cap)) if m != INFINITE else cap


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


# DP tables keyed by (family, sign, m_eff, order); each entry holds the
# series S_k for k = 0..built so far plus the last DP row, so later calls
# extend in k instead of recomputing.  The lock makes concurrent use safe;
# all stored values are immutable ExactSeries.
_TableKey = Tuple[str, int, int, int]
_tables: Dict[_TableKey, Tuple[List[ExactSeries], List[ExactSeries]]] = {}
_tables_lock = threading.Lock()


def _family_prefix(
    family: str, sign: int, m_eff: int, order: int, k_max: int
) -> List[ExactSeries]:
    """S_0 .. S_k_max for the given family at the effective bound.

    Weak chains:   S_i(n) = S_i(n-1) + atom(n) * S_{i-1}(n)
    Strict chains: S_i(n) = S_i(n-1) + atom(n) * S_{i-1}(n-1)

    where S_i(n) sums over chains confined to magnitudes <= n; the family
    value is S_i(m_eff).  The atom product is never multiplied out: the
    cell shifts the predecessor by q^e and divides it twice by
    (1 - sign*q^e) with divide_binomial, O(order) work per cell.  Once the
    minimal chain exponent exceeds the order, all remaining rows are zero
    and are filled without DP work.

    The predecessor is an (i-1)-chain sum, of valuation at least
    v = _min_valuation(family, i-1), so the cell term atom(n) * S_{i-1}
    vanishes modulo q^(order+1) once the atom exponent of n exceeds
    order - v.  Row i therefore stops at the last magnitude visible at
    order - v, and its last cell already equals S_i(m_eff).  The cap
    shrinks as i grows, so the (shorter) last row kept in the table still
    holds every predecessor the next row reads.
    """
    key = (family, sign, m_eff, order)
    with _tables_lock:
        entry = _tables.get(key)
        if entry is None:
            series_by_k = [one(order)]
            last_row = [one(order)] * (m_eff + 1)
            _tables[key] = entry = (series_by_k, last_row)
        series_by_k, last_row = entry
        strict = family not in _WEAK
        while len(series_by_k) <= k_max:
            i = len(series_by_k)
            if _min_valuation(family, i) > order:
                series_by_k.append(zero(order))
                continue
            cap = _m_eff(family, m_eff, order - _min_valuation(family, i - 1))
            row: List[ExactSeries] = [zero(order)]
            for n in range(1, cap + 1):
                e = _atom_exponent(family, n)
                predecessor = last_row[n - 1] if strict else last_row[n]
                shifted = weighted_sum([(e, 1, predecessor)], order)
                cell = divide_binomial(divide_binomial(shifted, e, sign), e, sign)
                row.append(add(row[n - 1], cell))
            series_by_k.append(row[-1])
            last_row = row
            _tables[key] = (series_by_k, last_row)
        return list(series_by_k[: k_max + 1])


def family_series(spec: FamilySpec, order: int) -> ExactSeries:
    """The family series for spec, exact modulo q^(order+1)."""
    if order < 0:
        raise ValueError(f"order must be non-negative, got {order}")
    m_eff = _m_eff(spec.family, spec.m, order)
    return _family_prefix(spec.family, spec.sign, m_eff, order, spec.k)[spec.k]


# ---------------------------------------------------------------------------
# Inverse coefficients B_{k,j}
# ---------------------------------------------------------------------------

def b_coefficient(k: int, j: int) -> int:
    """The integer weight B_{k,j} of the inverse index transform.

    B_{0,0} = 1; B_{k,0} = 2 for k >= 1; B_{k,j} = 0 for k < j; otherwise
    B_{k,j} = 2*C(j+k-1, 2j) + C(j+k-1, 2j-1), which equals the quotient
    form 2k/(k+j) * C(k+j, 2j) (tested for 0 <= j <= k <= 30).
    """
    if k < 0 or j < 0:
        raise ValueError(f"indices must be non-negative, got k={k}, j={j}")
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
    kernel product (a registry identity); only V and W participate.
    """
    if family not in _WEAK:
        raise InvalidSpec(f"combination is defined for V and W, got {family!r}")
    spec0 = FamilySpec(family, sign, k, m)  # validates sign/k/m
    if k > order:
        return zero(order)
    m_eff = _m_eff(family, spec0.m, order)
    table = _family_prefix(family, sign, m_eff, order, order)
    terms = ((0, (-sign) ** (j - k) * comb(2 * j, j - k), table[j])
             for j in range(k, order + 1))
    return weighted_sum(terms, order)


def reconstruct_family(
    family: str, sign: int, j: int, m: int, order: int
) -> ExactSeries:
    """F_{j,m} recovered from kernel series with the B_{k,j} weights:

      (sign*q; q^step)_m^2 * sum_{k>=j} sign^(k-j) * B_{k,j} * q^k * H_k

    where H_k is the two-binomial kernel in base q (V) or q^2 (W) with
    z = q^2.  Term k has valuation >= k, so the sum truncates at k <= order.
    Contract: equals family_series for the same spec (a registry identity).
    Requires a finite bound m; the unbounded reconstructions are covered
    by the triangular-sum forms in the identity registry.
    """
    if family not in _WEAK:
        raise InvalidSpec(f"reconstruction is defined for V and W, got {family!r}")
    if m == INFINITE:
        raise InvalidSpec("reconstruction requires a finite bound m")
    FamilySpec(family, sign, j, m)  # validate
    d = 2 if family in _ODD else 1
    prefactor = squared_pochhammer(sign, 1, d, m, order)
    terms = ((k, sign ** (k - j) * b_coefficient(k, j), kernel_H(k, m, d, 2, order - k))
             for k in range(j, order + 1))
    return mul(prefactor, weighted_sum(terms, order))
