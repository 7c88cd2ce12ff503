"""Coefficientwise verification registry for the series identities.

Every registry entry realizes one checkable statement as two computations
that share as little code as the mathematics allows (the per-entry
``independence`` note documents the two paths) and compares exact integer
coefficients up to a requested order.  A report either holds outright or
carries the first discrepancy — exponent plus both coefficients, exact,
never a tolerance.  Every check reports through ``_first_discrepancy``,
which compares up to the shorter of its two series.

The oracle- and predicate-backed checks compare fewer exponents than the
requested order N: ORACLE_V/ORACLE_W compare q^0..q^15 (``_ORACLE_CAP``),
GF_PP/GF_POD q^0..q^24 (``_GF_CAP``), and POS_V/POS_W compare the
difference predicate on q^0..q^30 (``_EQUIV_CAP``) and nonnegativity on
q^0..q^N.  Every other check compares q^0..q^N.

Formally infinite sums on right-hand sides truncate by valuation: a term
whose minimal exponent exceeds the order is dropped, and each check states
its per-term bound inline.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple, Union

from .families import (
    FamilySpec,
    b_coefficient,
    binomial_combination,
    family_series,
    reconstruct_family,
)
from .oracles import (
    divisor_sigma,
    overpartition_pairs,
    pod_bipartitions,
    triangular,
    v_oracle,
    w_oracle,
)
from .qtools import (
    HALF,
    INFINITE,
    WHOLE,
    PochSpec,
    alt_triangular_sum,
    gaussian_binomial,
    kernel_H,
    pochhammer,
    squared_pochhammer,
    theta_phi_neg,
    theta_psi,
)
from .series import (
    ExactSeries,
    divide_binomial,
    from_coeffs,
    invert,
    mul,
    one,
    shift,
    weighted_sum,
    zero,
)

# Brute-force oracles get expensive quickly, so oracle-backed checks cap the
# exponent range they enumerate; the series sides still run at full order.
_ORACLE_CAP = 15
_GF_CAP = 24
_EQUIV_CAP = 30


class UnknownIdentity(ValueError):
    """Raised when a case names an id absent from the registry."""


class MissingParam(ValueError):
    """Raised when a case's params do not bind exactly the required names."""


# ---------------------------------------------------------------------------
# Report types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Discrepancy:
    """First point where two coefficient streams disagree."""

    exponent: int
    lhs: int
    rhs: int


@dataclass(frozen=True)
class IdentityCase:
    """A registry id, a parameter binding, and a truncation order."""

    id: str
    params: Mapping[str, Union[int, float]]
    order: int


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of one case: holds iff no discrepancy was found."""

    case: IdentityCase
    holds: bool
    first_discrepancy: Optional[Discrepancy]
    elapsed: float


def _first_discrepancy(lhs: ExactSeries, rhs: ExactSeries) -> Optional[Discrepancy]:
    """Earliest exponent at which the two series disagree, up to the
    shorter order, or None if the compared prefixes match."""
    upto = min(lhs.order, rhs.order)
    for n in range(upto + 1):
        if lhs.coeffs[n] != rhs.coeffs[n]:
            return Discrepancy(exponent=n, lhs=lhs.coeffs[n], rhs=rhs.coeffs[n])
    return None


# ---------------------------------------------------------------------------
# Shared right-hand-side building blocks
# ---------------------------------------------------------------------------

def _eta_quotient(sign: int, odd: bool, order: int) -> ExactSeries:
    """(sign q; q^step)_inf^2 / (q^step; q^step)_inf^2 with step 2 for the
    odd-part families and 1 otherwise."""
    step = 2 if odd else 1
    num = squared_pochhammer(sign, 1, step, INFINITE, order)
    den = squared_pochhammer(1, step, step, INFINITE, order)
    return mul(num, invert(den))


def _bracket_half(k: int, order: int) -> ExactSeries:
    """-1 + (1 + q^k) * sum_{j>=k} (-1)^(j-k) q^(T_j - T_k); valuation k."""
    half = alt_triangular_sum(k, HALF, order)
    return weighted_sum([(0, -1, one(order)), (0, 1, half), (k, 1, half)], order)


def _one_sided(k: int, odd: bool, order: int) -> ExactSeries:
    """The one-sided theta sum of index k: the whole-exponent sum for the
    odd-part families, the bracketed half-exponent sum otherwise."""
    return alt_triangular_sum(k, WHOLE, order) if odd else _bracket_half(k, order)


def _inv_poch_table(step: int, count: int, order: int) -> List[ExactSeries]:
    """[1/(q^step; q^step)_i for i = 0..count], built incrementally: entry i
    is entry i-1 divided by (1 - q^x), x = step*i, with divide_binomial.
    Once x exceeds the order that division leaves its argument unchanged
    at this truncation, so the entries stabilize.
    """
    table = [one(order)]
    for i in range(1, count + 1):
        table.append(divide_binomial(table[-1], step * i, 1))
    return table


def _quotient_sum(inv: List[ExactSeries], k: int, order: int) -> ExactSeries:
    """sum_j q^(2j+k) / ((q^step;q^step)_j (q^step;q^step)_{j+k}), read
    from inv = _inv_poch_table(step, order, order).

    The j-th term has valuation 2j + k, so j runs to (order - k) // 2 and
    the sum reads table entries up to (order + k) // 2.
    """
    if k > order:
        return zero(order)
    terms = ((2 * j + k, 1, mul(inv[j], inv[j + k]))
             for j in range((order - k) // 2 + 1))
    return weighted_sum(terms, order)


def _weighted_theta_sum(sign: int, j: int, odd: bool, order: int) -> ExactSeries:
    """sum_{k>=j} sign^(k-j) B_{k,j} * _one_sided(k, odd).

    The one-sided sum of index k has valuation k, so k runs to the order.
    """
    terms = ((0, sign ** (k - j) * b_coefficient(k, j), _one_sided(k, odd, order))
             for k in range(j, order + 1))
    return weighted_sum(terms, order)


# ---------------------------------------------------------------------------
# Checks: kernel product forms for bounded families
# ---------------------------------------------------------------------------

def _kernel_product_check(family: str) -> Callable[..., Optional[Discrepancy]]:
    d = 2 if family == "W" else 1

    def check(order: int, *, sign: int, k: int, m: int) -> Optional[Discrepancy]:
        lhs = binomial_combination(family, sign, k, m, order)
        if k > order:
            rhs = zero(order)
        else:
            sq = squared_pochhammer(sign, 1, d, m, order)
            rhs = mul(sq, shift(kernel_H(k, m, d, 2, order - k), k))
        return _first_discrepancy(lhs, rhs)

    return check


def _reconstruction_check(family: str) -> Callable[..., Optional[Discrepancy]]:
    def check(order: int, *, sign: int, j: int, m: int) -> Optional[Discrepancy]:
        lhs = family_series(FamilySpec(family=family, sign=sign, k=j, m=m), order)
        rhs = reconstruct_family(family, sign, j, m, order)
        return _first_discrepancy(lhs, rhs)

    return check


# ---------------------------------------------------------------------------
# Checks: unbounded families against one-sided theta sums
# ---------------------------------------------------------------------------

def _collapse_check(family: str) -> Callable[..., Optional[Discrepancy]]:
    odd = family == "W"

    def check(order: int, *, sign: int, k: int) -> Optional[Discrepancy]:
        lhs = binomial_combination(family, sign, k, INFINITE, order)
        rhs = mul(_eta_quotient(sign, odd, order), _one_sided(k, odd, order))
        return _first_discrepancy(lhs, rhs)

    return check


def _quotient_sum_check(odd: bool) -> Callable[..., Optional[Discrepancy]]:
    step = 2 if odd else 1

    def check(order: int, *, k: int) -> Optional[Discrepancy]:
        if k < 0:
            raise ValueError(f"index must be non-negative, got {k}")
        lhs = mul(squared_pochhammer(1, step, step, INFINITE, order),
                  _quotient_sum(_inv_poch_table(step, order, order), k, order))
        return _first_discrepancy(lhs, _one_sided(k, odd, order))

    return check


def _unbounded_expansion_check(family: str) -> Callable[..., Optional[Discrepancy]]:
    odd = family == "W"

    def check(order: int, *, sign: int, j: int) -> Optional[Discrepancy]:
        lhs = family_series(FamilySpec(family=family, sign=sign, k=j, m=INFINITE), order)
        rhs = mul(_eta_quotient(sign, odd, order), _weighted_theta_sum(sign, j, odd, order))
        return _first_discrepancy(lhs, rhs)

    return check


# ---------------------------------------------------------------------------
# Checks: theta squares, divisor sums, classical expansions
# ---------------------------------------------------------------------------

def _theta_square_check(odd: bool) -> Callable[..., Optional[Discrepancy]]:
    """The square-exponent theta sum (sign -1 weights) or, for odd, the
    triangular one (sign +1) squared against B_{k,0}-weighted sums."""
    def check(order: int) -> Optional[Discrepancy]:
        theta = theta_psi(order) if odd else theta_phi_neg(order)
        rhs = _weighted_theta_sum(1 if odd else -1, 0, odd, order)
        return _first_discrepancy(mul(theta, theta), rhs)

    return check


def overpartition_pair_series(order: int) -> ExactSeries:
    """Product-quotient generating series for ordered overpartition pairs."""
    return _eta_quotient(-1, False, order)


def pod_bipartition_series(order: int) -> ExactSeries:
    """Product-quotient generating series for ordered bipartitions with
    distinct odd parts and unrestricted even parts in each component."""
    return _eta_quotient(-1, True, order)


def divisor_sum_series(order: int) -> ExactSeries:
    """The weighted Pochhammer-quotient double sum whose n-th coefficient
    is the sum of the divisors of n: sum_k k^2 * _quotient_sum(k) under
    (q;q)_inf^2, all k sharing one inverse-Pochhammer table.

    The k-th quotient sum has valuation k, so k runs to the order.
    """
    inv = _inv_poch_table(1, order, order)
    terms = ((0, k * k, _quotient_sum(inv, k, order)) for k in range(1, order + 1))
    return mul(squared_pochhammer(1, 1, 1, INFINITE, order), weighted_sum(terms, order))


def _check_divisor_sum(order: int) -> Optional[Discrepancy]:
    lhs = from_coeffs([0] + [divisor_sigma(n) for n in range(1, order + 1)])
    return _first_discrepancy(lhs, divisor_sum_series(order))


def _check_cauchy(order: int, *, n: int, s: int) -> Optional[Discrepancy]:
    if n < 1:
        raise ValueError(f"the bounded-product expansion needs n >= 1, got {n}")
    if s < 1:
        raise ValueError(f"exponent stride must be >= 1, got {s}")
    lhs = weighted_sum(((s * k, 1, gaussian_binomial(n - 1 + k, k, 1, order - s * k))
                        for k in range(order // s + 1)), order)
    rhs = invert(pochhammer(PochSpec(sign=1, offset=s, step=1, length=n), order))
    return _first_discrepancy(lhs, rhs)


def _check_euler_alternating(order: int, *, e: int) -> Optional[Discrepancy]:
    if e < 1:
        raise ValueError(f"starting exponent must be >= 1, got {e}")
    lhs = pochhammer(PochSpec(sign=1, offset=e, step=1, length=INFINITE), order)
    jmax = 0
    while (jmax + 1) * jmax // 2 + (jmax + 1) * e <= order:
        jmax += 1
    inv = _inv_poch_table(1, jmax, order)
    rhs = weighted_sum(((j * (j - 1) // 2 + j * e, (-1) ** j, inv[j])
                        for j in range(jmax + 1)), order)
    return _first_discrepancy(lhs, rhs)


def _check_euler_direct(order: int, *, e: int) -> Optional[Discrepancy]:
    if e < 1:
        raise ValueError(f"starting exponent must be >= 1, got {e}")
    inv = _inv_poch_table(1, order // e, order)
    lhs = weighted_sum(((j * e, 1, entry) for j, entry in enumerate(inv)), order)
    rhs = invert(pochhammer(PochSpec(sign=1, offset=e, step=1, length=INFINITE), order))
    return _first_discrepancy(lhs, rhs)


# ---------------------------------------------------------------------------
# Checks: combinatorial oracles and coefficient predicates
# ---------------------------------------------------------------------------

def _check_gf_overpartition_pairs(order: int) -> Optional[Discrepancy]:
    counts = [overpartition_pairs(n) for n in range(min(order, _GF_CAP) + 1)]
    return _first_discrepancy(overpartition_pair_series(order), from_coeffs(counts))


def _check_gf_pod_bipartitions(order: int) -> Optional[Discrepancy]:
    counts = [pod_bipartitions(n) for n in range(min(order, _GF_CAP) + 1)]
    return _first_discrepancy(pod_bipartition_series(order), from_coeffs(counts))


def _check_parity_flip(order: int, *, k: int) -> Optional[Discrepancy]:
    plus = family_series(FamilySpec(family="W", sign=1, k=k, m=INFINITE), order)
    minus = family_series(FamilySpec(family="W", sign=-1, k=k, m=INFINITE), order)
    flipped = [(-1) ** (n + k) * c for n, c in enumerate(plus.coeffs)]
    return _first_discrepancy(minus, from_coeffs(flipped))


def _overpartition_predicate(k: int, n: int) -> int:
    """-pp(n) + sum_{j>=k} (-1)^(j-k) (pp(n - T_j + T_k) + pp(n - T_j + T_{k-1}))
    with pp vanishing on negative arguments and T_{-1} = 0."""
    predicted = -overpartition_pairs(n)
    j = k
    while triangular(j) - triangular(k) <= n:
        term_sign = -1 if (j - k) % 2 else 1
        x1 = n - triangular(j) + triangular(k)
        x2 = n - triangular(j) + triangular(k - 1)
        predicted += term_sign * overpartition_pairs(x1)
        if x2 >= 0:
            predicted += term_sign * overpartition_pairs(x2)
        j += 1
    return predicted


def _bipartition_predicate(k: int, n: int) -> int:
    """sum_{j>=k} (-1)^(j-k) pod2(n - j(j+1) + k^2), negative arguments
    contributing 0.  (The exponent j(j+1) is twice a triangular number;
    the halved variant fails already at k=0, n=1.)"""
    predicted = 0
    j = k
    while j * (j + 1) - k * k <= n:
        term_sign = -1 if (j - k) % 2 else 1
        predicted += term_sign * pod_bipartitions(n - j * (j + 1) + k * k)
        j += 1
    return predicted


def _positivity_check(family: str) -> Callable[..., Optional[Discrepancy]]:
    """Nonnegativity of the signed-product expansion to the full order, plus
    agreement with the family's difference predicate up to q^_EQUIV_CAP.

    The earlier of the two discrepancies is reported; at a tie the
    nonnegativity one (rhs 0) wins.
    """
    odd = family == "W"

    def check(order: int, *, k: int) -> Optional[Discrepancy]:
        prod = mul(_eta_quotient(-1, odd, order), _one_sided(k, odd, order))
        predicate = _bipartition_predicate if odd else _overpartition_predicate
        predicted = [predicate(k, n) for n in range(min(order, _EQUIV_CAP) + 1)]
        found = [d for d in (
            _first_discrepancy(prod, from_coeffs(max(c, 0) for c in prod.coeffs)),
            _first_discrepancy(prod, from_coeffs(predicted)),
        ) if d is not None]
        return min(found, key=lambda d: d.exponent, default=None)

    return check


def _oracle_check(family: str) -> Callable[..., Optional[Discrepancy]]:
    enumerate_fn = v_oracle if family == "V" else w_oracle

    def check(order: int, *, sign: int, k: int,
              m: Union[int, float]) -> Optional[Discrepancy]:
        series = family_series(FamilySpec(family=family, sign=sign, k=k, m=m), order)
        counts = [enumerate_fn(sign, k, m, n) for n in range(min(order, _ORACLE_CAP) + 1)]
        return _first_discrepancy(series, from_coeffs(counts))

    return check


# ---------------------------------------------------------------------------
# The registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegistryEntry:
    """One verifiable statement: required parameter names, the check, the
    default parameter grid for suite runs, and a note documenting how the
    two compared computations stay independent."""

    required: Tuple[str, ...]
    check: Callable[..., Optional[Discrepancy]]
    default_grid: Tuple[Mapping[str, Union[int, float]], ...]
    independence: str


def _grid(**axes: Iterable[Union[int, float]]) -> Tuple[Dict[str, Union[int, float]], ...]:
    keys = tuple(axes)
    return tuple(
        dict(zip(keys, values)) for values in itertools.product(*axes.values())
    )


_SIGNS = (1, -1)

REGISTRY: Dict[str, RegistryEntry] = {
    "T1_V": RegistryEntry(
        required=("sign", "k", "m"),
        check=_kernel_product_check("V"),
        default_grid=_grid(sign=_SIGNS, k=(0, 1, 2), m=(1, 2, 3)),
        independence="LHS: weighted family sums via the chain DP; "
                     "RHS: squared Pochhammer times shifted kernel_H.",
    ),
    "T1_W": RegistryEntry(
        required=("sign", "k", "m"),
        check=_kernel_product_check("W"),
        default_grid=_grid(sign=_SIGNS, k=(0, 1, 2), m=(1, 2, 3)),
        independence="As T1_V with odd parts: base q^2 kernel and "
                     "(sign q; q^2)_m^2 prefactor.",
    ),
    "T2_V": RegistryEntry(
        required=("sign", "j", "m"),
        check=_reconstruction_check("V"),
        default_grid=_grid(sign=_SIGNS, j=(0, 1, 2), m=(1, 2)),
        independence="LHS: single family series from the chain DP; "
                     "RHS: B-weighted kernel_H expansion.",
    ),
    "T2_W": RegistryEntry(
        required=("sign", "j", "m"),
        check=_reconstruction_check("W"),
        default_grid=_grid(sign=_SIGNS, j=(0, 1, 2), m=(1, 2)),
        independence="As T2_V with odd parts.",
    ),
    "T4_V": RegistryEntry(
        required=("sign", "k"),
        check=_collapse_check("V"),
        default_grid=_grid(sign=_SIGNS, k=(0, 1, 2)),
        independence="LHS: weighted family sums at unbounded m; "
                     "RHS: infinite-product quotient times one-sided theta sum.",
    ),
    "T4_W": RegistryEntry(
        required=("sign", "k"),
        check=_collapse_check("W"),
        default_grid=_grid(sign=_SIGNS, k=(0, 1, 2)),
        independence="As T4_V with odd parts and the whole-exponent theta sum.",
    ),
    "L1": RegistryEntry(
        required=("k",),
        check=_quotient_sum_check(odd=False),
        default_grid=_grid(k=(0, 1, 2, 3)),
        independence="LHS: Pochhammer-quotient double product built from "
                     "geometric-series products; RHS: one-sided theta sum, no products.",
    ),
    "L2": RegistryEntry(
        required=("k",),
        check=_quotient_sum_check(odd=True),
        default_grid=_grid(k=(0, 1, 2, 3)),
        independence="As L1 in base q^2.",
    ),
    "TT4_V": RegistryEntry(
        required=("sign", "j"),
        check=_unbounded_expansion_check("V"),
        default_grid=_grid(sign=_SIGNS, j=(0, 1, 2)),
        independence="LHS: single family series from the chain DP; "
                     "RHS: B-weighted one-sided theta sums under the product quotient.",
    ),
    "TT4_W": RegistryEntry(
        required=("sign", "j"),
        check=_unbounded_expansion_check("W"),
        default_grid=_grid(sign=_SIGNS, j=(0, 1, 2)),
        independence="As TT4_V with odd parts.",
    ),
    "THETA_PHI_SQ": RegistryEntry(
        required=(),
        check=_theta_square_check(odd=False),
        default_grid=(dict(),),
        independence="LHS: product of two lacunary theta expansions; "
                     "RHS: B_{k,0}-weighted one-sided sums.",
    ),
    "THETA_PSI_SQ": RegistryEntry(
        required=(),
        check=_theta_square_check(odd=True),
        default_grid=(dict(),),
        independence="LHS: product of two triangular-exponent expansions; "
                     "RHS: B_{k,0}-weighted whole-exponent sums.",
    ),
    "SIGMA_ID": RegistryEntry(
        required=(),
        check=_check_divisor_sum,
        default_grid=(dict(),),
        independence="LHS: divisor sums by trial division; "
                     "RHS: weighted Pochhammer-quotient double sum.",
    ),
    "CAUCHY": RegistryEntry(
        required=("n", "s"),
        check=_check_cauchy,
        default_grid=_grid(n=(1, 2, 3, 4), s=(1, 2)),
        independence="LHS: Gaussian-binomial sum from the q-Pascal recurrence; "
                     "RHS: inverted finite product.",
    ),
    "EULER1": RegistryEntry(
        required=("e",),
        check=_check_euler_alternating,
        default_grid=_grid(e=(1, 2, 3)),
        independence="LHS: direct product expansion; RHS: alternating "
                     "triangular-shifted inverse-Pochhammer sum.",
    ),
    "EULER2": RegistryEntry(
        required=("e",),
        check=_check_euler_direct,
        default_grid=_grid(e=(1, 2)),
        independence="LHS: shifted inverse-Pochhammer sum; RHS: inverted "
                     "infinite product.",
    ),
    "GF_PP": RegistryEntry(
        required=(),
        check=_check_gf_overpartition_pairs,
        default_grid=(dict(),),
        independence="LHS: infinite-product quotient; RHS: weighted "
                     "enumeration of plain partitions, convolved.",
    ),
    "GF_POD": RegistryEntry(
        required=(),
        check=_check_gf_pod_bipartitions,
        default_grid=(dict(),),
        independence="LHS: infinite-product quotient; RHS: filtered "
                     "enumeration of plain partitions, convolved.",
    ),
    "PARITY_W": RegistryEntry(
        required=("k",),
        check=_check_parity_flip,
        default_grid=_grid(k=(0, 1, 2, 3)),
        independence="Both sides use the chain DP, once per sign; the "
                     "compared predicate is the (-1)^(n+k) coefficient flip.",
    ),
    "POS_V": RegistryEntry(
        required=("k",),
        check=_positivity_check("V"),
        default_grid=_grid(k=(0, 1, 2, 3)),
        independence="Series side: product quotient times one-sided theta "
                     "sum; predicate side: signed overpartition-pair counts.",
    ),
    "POS_W": RegistryEntry(
        required=("k",),
        check=_positivity_check("W"),
        default_grid=_grid(k=(0, 1, 2, 3)),
        independence="Series side: odd-part product quotient times "
                     "whole-exponent sum; predicate side: signed bipartition counts.",
    ),
    "ORACLE_V": RegistryEntry(
        required=("sign", "k", "m"),
        check=_oracle_check("V"),
        default_grid=_grid(sign=_SIGNS, k=(0, 2, 3), m=(2, INFINITE)),
        independence="Series side: chain DP; oracle side: explicit recursive "
                     "enumeration of weighted chains.",
    ),
    "ORACLE_W": RegistryEntry(
        required=("sign", "k", "m"),
        check=_oracle_check("W"),
        default_grid=_grid(sign=_SIGNS, k=(0, 2, 3), m=(2, INFINITE)),
        independence="As ORACLE_V with odd parts.",
    ),
}


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------

def verify(case: IdentityCase) -> VerifyReport:
    """Run one registry check and time it.

    Raises UnknownIdentity for an unregistered id and MissingParam when the
    case's params do not bind exactly the names the entry requires.
    """
    entry = REGISTRY.get(case.id)
    if entry is None:
        raise UnknownIdentity(f"unknown identity id: {case.id!r}")
    got, want = set(case.params), set(entry.required)
    if got != want:
        problems = []
        if want - got:
            problems.append(f"missing {sorted(want - got)}")
        if got - want:
            problems.append(f"unexpected {sorted(got - want)}")
        raise MissingParam(
            f"{case.id} binds exactly {sorted(want)}: " + ", ".join(problems)
        )
    if case.order < 0:
        raise ValueError(f"order must be non-negative, got {case.order}")
    start = time.perf_counter()
    disc = entry.check(case.order, **dict(case.params))
    elapsed = time.perf_counter() - start
    return VerifyReport(case=case, holds=disc is None,
                        first_discrepancy=disc, elapsed=elapsed)


def verify_suite(
    order: int = 20,
    grids: Optional[Mapping[str, Iterable[Mapping[str, Union[int, float]]]]] = None,
) -> List[VerifyReport]:
    """Verify every registry id over its parameter grid at one order.

    With grids=None each entry uses its default grid; otherwise each id runs
    the grid given for it (ids absent from the mapping are skipped, and a
    key that names no registry id raises UnknownIdentity before any case
    runs).  Never aborts early: every case contributes a report, in
    registry order.
    """
    for name in grids or ():
        if name not in REGISTRY:
            raise UnknownIdentity(f"unknown identity id: {name!r}")
    reports: List[VerifyReport] = []
    for name, entry in REGISTRY.items():
        grid = entry.default_grid if grids is None else tuple(grids.get(name, ()))
        for params in grid:
            reports.append(verify(IdentityCase(id=name, params=dict(params), order=order)))
    return reports
