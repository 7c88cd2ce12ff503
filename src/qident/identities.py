"""Coefficientwise verification registry for the series identities.

Every registry entry realizes one checkable statement as two computations
that share as little code as the mathematics allows (the per-entry
``independence`` note documents the two paths).  Its check returns the two
series; ``verify`` compares their exact integer coefficients with
``_first_discrepancy``, up to the shorter of the two orders, and nothing
else compares them.  A report either holds outright or carries the first
discrepancy — exponent plus both coefficients, exact, never a tolerance.
The case, report and discrepancy types and the registry entries are named
tuples; an entry's ``required`` parameter names are its check's keyword-only
ones, read from the check's code object.

The brute-force sides compare fewer exponents than the requested order
N, and each reads one count list of ``oracles``, every exponent from one
enumeration: ORACLE_V/ORACLE_W compare ``chain_counts`` on q^0..q^15
(``_ORACLE_CAP``), GF_PP/GF_POD ``pair_counts`` on q^0..q^24
(``_GF_CAP``), and POS_V/POS_W ``pair_counts`` times the one-sided theta
sum on q^0..q^30 (``_EQUIV_CAP``) and nonnegativity on q^0..q^N.  Every
other check compares q^0..q^N.  Every check looks up the
functions it calls in this module's namespace when it runs, not when the
registry is built, so one patched name here reaches every check using it.

Formally infinite sums on right-hand sides truncate by valuation: a term
whose minimal exponent exceeds the order is dropped.  Each sum runs its
index only as far as some term can still reach the order, and
``weighted_sum`` drops the terms in that range whose shift lies above it.
The basic hypergeometric sums (the two-binomial kernel, the Cauchy and
Euler sums) are each one ``qtools.binomial_sums``, each term from the one
before by its term ratio, and the product quotients one
``qtools._binomial_quotient`` each.  The divisor sum is T2_V's right side
at (sign +1, j = 1, m = INFINITE), built by ``reconstruct_family`` from
the moments of its binomial terms.  This module hands those builders
parameters and factors, never a coefficient bound: each builder proves
its own slot width, and only ``series`` packs, steps and unpacks.  The
L1/L2 quotient sums are q^k times ``kernel_H`` at m = INFINITE, the
kernel of T1.

The one-sided theta sums, and the B-weighted sums of them, are one
``from_terms`` each over the O(sqrt(N)) sparse terms of S_k
(``qtools.alt_triangular_terms``), never dense series added together.
The eta quotient ``_eta_quotient`` is the square, by one ``mul``, of one
``_binomial_quotient``, and is cached like ``pochhammer``, so a suite
builds each (sign, parts, order) quotient once.
"""

from __future__ import annotations

import itertools
import operator
import time
from collections import namedtuple
from functools import lru_cache
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from .families import (
    FamilySpec,
    InvalidSpec,
    b_coefficient,
    binomial_combination,
    family_series,
    reconstruct_family,
)
from .oracles import chain_counts, divisor_sigma, pair_counts
from .qtools import (
    INFINITE,
    _binomial_quotient,
    _factors,
    alt_triangular_terms,
    binomial_sums,
    kernel_H,
    pochhammer,
    squared_pochhammer,
    theta_phi_neg,
    theta_psi,
)
from .series import (
    ExactSeries,
    _check_int,
    from_coeffs,
    from_terms,
    mul,
    weighted_sum,
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

Discrepancy = namedtuple("Discrepancy", "exponent lhs rhs")
Discrepancy.__doc__ = """First point where two coefficient streams disagree:
the exponent and both exact coefficients there."""

IdentityCase = namedtuple("IdentityCase", "id params order")
IdentityCase.__doc__ = """A registry id, a parameter binding (a mapping of
names to values), and a truncation order."""

VerifyReport = namedtuple("VerifyReport", "case holds first_discrepancy elapsed")
VerifyReport.__doc__ = """Outcome of one case: holds iff no discrepancy was
found; first_discrepancy is None or a Discrepancy, elapsed is in seconds."""


def _first_discrepancy(lhs: ExactSeries, rhs: ExactSeries) -> Optional[Discrepancy]:
    """Earliest exponent at which the two series disagree, up to the
    shorter order, or None if the compared prefixes match."""
    unequal = map(operator.ne, lhs.coeffs, rhs.coeffs)  # stops at the shorter
    n = next(itertools.compress(itertools.count(), unequal), None)
    if n is None:
        return None
    return Discrepancy(exponent=n, lhs=lhs.coeffs[n], rhs=rhs.coeffs[n])


# A check's two independently computed series, in (lhs, rhs) order.
_Sides = Tuple[ExactSeries, ExactSeries]


# ---------------------------------------------------------------------------
# Shared right-hand-side building blocks
# ---------------------------------------------------------------------------

# Typed like the qtools caches, so a float order always reaches the
# argument checks.
@lru_cache(maxsize=None, typed=True)
def _eta_quotient(sign: int, odd: bool, order: int) -> ExactSeries:
    """(sign q; q^step)_inf^2 / (q^step; q^step)_inf^2, step 2 for the
    odd-part families, else 1: the packed square, by mul, of the one
    _binomial_quotient (sign q; q^step)_inf / (q^step; q^step)_inf, as
    squared_pochhammer squares its product.  The quotient's width bound
    counts each exponent's factors once (r = 2 at sign -1, step 1); the
    square's width is mul's own."""
    _check_int("order", order)
    step = 2 if odd else 1
    quotient = _binomial_quotient(_factors(sign, 1, step, INFINITE, order),
                                  _factors(1, step, step, INFINITE, order), order)
    return mul(quotient, quotient)


def _one_sided_terms(k: int, odd: bool, order: int) -> List[Tuple[int, int]]:
    """The (exponent, coefficient) terms of the one-sided theta sum of
    index k, valuation k, from the terms of
    S_k = alt_triangular_sum(k) = sum_{j>=k} (-1)^(j-k) q^(T_j - T_k).

    Linear parts: -1 + (1 + q^k) * S_k(q).  Odd parts:
    sum_{j>=k} (-1)^(j-k) q^(j(j+1) - k^2) = q^k * S_k(q^2), since
    j(j+1) - k^2 = 2(T_j - T_k) + k, so a term c*q^e of S_k lands at
    q^(2e+k) and S_k is read only to q^((N-k)//2).  Either way there are
    O(sqrt(N)) terms; exponents may repeat or pass the order, which
    from_terms sums and drops.
    """
    if odd:
        return [(2 * e + k, c) for e, c in alt_triangular_terms(k, max(order - k, 0) // 2)]
    half = alt_triangular_terms(k, order)
    return [(0, -1), *half, *((e + k, c) for e, c in half)]


def _one_sided(k: int, odd: bool, order: int) -> ExactSeries:
    """The one-sided theta sum of index k: see _one_sided_terms."""
    return from_terms(_one_sided_terms(k, odd, order), order)


def _weighted_theta_sum(sign: int, j: int, odd: bool, order: int) -> ExactSeries:
    """sum_{k>=j} sign^(k-j) B_{k,j} * _one_sided(k, odd), as one from_terms
    over the weighted terms of every one-sided sum.

    The one-sided sum of index k has valuation k, so k runs to the order.
    """
    terms = []
    for k in range(j, order + 1):
        weight = sign ** (k - j) * b_coefficient(k, j)
        terms += [(e, weight * c) for e, c in _one_sided_terms(k, odd, order)]
    return from_terms(terms, order)


# ---------------------------------------------------------------------------
# Checks: kernel product forms and kernel reconstructions
# ---------------------------------------------------------------------------

def _kernel_product_check(family: str) -> Callable[..., _Sides]:
    d = 2 if family == "W" else 1

    def check(order: int, *, sign: int, k: int,
              m: Union[int, float]) -> _Sides:
        lhs = binomial_combination(family, sign, k, m, order)
        sq = squared_pochhammer(sign, 1, d, m, order)
        kernel = kernel_H(k, m, d, 2, max(order - k, 0))
        return lhs, mul(sq, weighted_sum([(k, 1, kernel)], order))

    return check


def _family_j(family: str, sign: int, j: int, m: Union[int, float], order: int) -> ExactSeries:
    """F_{j,m} for the j-indexed checks, which name a negative j as j, not k."""
    _check_int("j", j, 0, InvalidSpec)
    return family_series(FamilySpec(family=family, sign=sign, k=j, m=m), order)


def _reconstruction_check(family: str) -> Callable[..., _Sides]:
    def check(order: int, *, sign: int, j: int,
              m: Union[int, float]) -> _Sides:
        return (_family_j(family, sign, j, m, order),
                reconstruct_family(family, sign, j, m, order))

    return check


# ---------------------------------------------------------------------------
# Checks: unbounded families against one-sided theta sums
# ---------------------------------------------------------------------------

def _collapse_check(family: str) -> Callable[..., _Sides]:
    odd = family == "W"

    def check(order: int, *, sign: int, k: int) -> _Sides:
        return (binomial_combination(family, sign, k, INFINITE, order),
                mul(_eta_quotient(sign, odd, order), _one_sided(k, odd, order)))

    return check


def _quotient_sum_check(odd: bool) -> Callable[..., _Sides]:
    step = 2 if odd else 1

    def check(order: int, *, k: int) -> _Sides:
        kernel = kernel_H(k, INFINITE, step, 2, max(order - k, 0))
        lhs = mul(squared_pochhammer(1, step, step, INFINITE, order),
                  weighted_sum([(k, 1, kernel)], order))
        return lhs, _one_sided(k, odd, order)

    return check


def _unbounded_expansion_check(family: str) -> Callable[..., _Sides]:
    odd = family == "W"

    def check(order: int, *, sign: int, j: int) -> _Sides:
        return (_family_j(family, sign, j, INFINITE, order),
                mul(_eta_quotient(sign, odd, order), _weighted_theta_sum(sign, j, odd, order)))

    return check


# ---------------------------------------------------------------------------
# Checks: theta squares, divisor sums, classical expansions
# ---------------------------------------------------------------------------

def _theta_square_check(odd: bool) -> Callable[..., _Sides]:
    """The square-exponent theta sum (sign -1 weights) or, for odd, the
    triangular one (sign +1) squared against B_{k,0}-weighted sums."""
    def check(order: int) -> _Sides:
        theta = theta_psi(order) if odd else theta_phi_neg(order)
        rhs = _weighted_theta_sum(1 if odd else -1, 0, odd, order)
        return mul(theta, theta), rhs

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
    is the sum of the divisors of n:
    (q;q)_inf^2 * sum_{k>=1} k^2 sum_{j>=0} q^(2j+k) / ((q;q)_j (q;q)_(j+k)).

    B_{k,1} = k^2, so this is T2_V's right side at sign +1, j = 1 and
    m = INFINITE, and reconstruct_family builds it: with
    x_i = q^i/(q;q)_i the double sum is M0*M2 - M1^2 in the moments
    M_r = sum_i i^r x_i, one qtools.binomial_sums.
    """
    _check_int("order", order)
    return reconstruct_family("V", 1, 1, INFINITE, order)


def _check_divisor_sum(order: int) -> _Sides:
    lhs = from_coeffs([0] + [divisor_sigma(n) for n in range(1, order + 1)])
    return lhs, divisor_sum_series(order)


def _q_binomial_sides(n: Union[int, float], s: int, order: int) -> _Sides:
    """sum_k [n-1+k, k] q^(s*k) and 1/(q^s; q)_n, the sides of the
    q-binomial theorem: the left one binomial_sums at offsets (0,) over
    the shifts s*k, so term k is 1/(q; q)_k at n = INFINITE, the right one
    _binomial_quotient of one over the binomials of (q^s; q)_n.
    """
    _check_int("order", order)
    lhs = binomial_sums(1, n, (0,), 1, range(0, order + 1, s), 0, order)[0]
    return lhs, _binomial_quotient((), _factors(1, s, 1, n, order), order)


def _check_cauchy(order: int, *, n: int, s: int) -> _Sides:
    _check_int("n", n, 1)
    _check_int("s", s, 1)
    return _q_binomial_sides(n, s, order)


def _check_euler_alternating(order: int, *, e: int) -> _Sides:
    """(q^e; q)_inf and sum_j (-1)^j q^(j(j-1)/2 + e*j) / (q; q)_j, the
    right one binomial_sums at sign -1, m = INFINITE and offsets (0,) over
    j <= N, N the order: term j has valuation at least j."""
    _check_int("e", e, 1)
    _check_int("order", order)
    shifts = [j * (j - 1) // 2 + e * j for j in range(order + 1)]
    rhs = binomial_sums(-1, INFINITE, (0,), 1, shifts, 0, order)[0]
    return pochhammer(1, e, 1, INFINITE, order), rhs


def _check_euler_direct(order: int, *, e: int) -> _Sides:
    _check_int("e", e, 1)
    return _q_binomial_sides(INFINITE, e, order)


# ---------------------------------------------------------------------------
# Checks: combinatorial oracles and coefficient predicates
# ---------------------------------------------------------------------------

def _gf_check(odd: bool) -> Callable[..., _Sides]:
    """The overpartition pair series or, for odd, the pod bipartition
    series against its brute-force counts on q^0..q^_GF_CAP."""
    def check(order: int) -> _Sides:
        series = pod_bipartition_series if odd else overpartition_pair_series
        return series(order), from_coeffs(pair_counts(min(order, _GF_CAP), odd))

    return check


def _check_parity_flip(order: int, *, k: int) -> _Sides:
    plus = family_series(FamilySpec(family="W", sign=1, k=k, m=INFINITE), order)
    minus = family_series(FamilySpec(family="W", sign=-1, k=k, m=INFINITE), order)
    flipped = [(-1) ** (n + k) * c for n, c in enumerate(plus.coeffs)]
    return minus, from_coeffs(flipped)


def _positivity_check(family: str) -> Callable[..., _Sides]:
    """Nonnegativity of the signed-product expansion to the full order, plus
    agreement up to q^_EQUIV_CAP with the difference predicate: the
    brute-force counts times the product's own one-sided theta sum.

    One expected series holds both conditions: 0 where the product is
    negative, else the predicate up to q^_EQUIV_CAP and the product's own
    coefficient above it.  The first exponent where the two differ is the
    earlier fault; where both fail at once, the nonnegativity fault (rhs 0)
    is the one reported.
    """
    odd = family == "W"

    def check(order: int, *, k: int) -> _Sides:
        one_sided = _one_sided(k, odd, order)
        prod = mul(_eta_quotient(-1, odd, order), one_sided)
        predicate = mul(from_coeffs(pair_counts(min(order, _EQUIV_CAP), odd)), one_sided)
        return prod, from_coeffs(0 if c < 0 else predicate.coeffs[n] if n <= _EQUIV_CAP else c
                                 for n, c in enumerate(prod.coeffs))

    return check


def _oracle_check(family: str) -> Callable[..., _Sides]:
    """The family series against its chain sums on q^0..q^_ORACLE_CAP,
    every exponent from one enumeration."""
    def check(order: int, *, sign: int, k: int,
              m: Union[int, float]) -> _Sides:
        series = family_series(FamilySpec(family=family, sign=sign, k=k, m=m), order)
        counts = chain_counts(sign, k, m, min(order, _ORACLE_CAP), family == "W")
        return series, from_coeffs(counts)

    return check


# ---------------------------------------------------------------------------
# The registry
# ---------------------------------------------------------------------------

class RegistryEntry(namedtuple("RegistryEntry", "check default_grid independence")):
    """One verifiable statement: the check, the default parameter grid for
    suite runs, and a note documenting how the two compared computations
    stay independent.  The check takes the order and the case's params as
    keywords and returns its two series, (lhs, rhs); it never compares
    them itself."""

    __slots__ = ()

    @property
    def required(self) -> Tuple[str, ...]:
        """The parameter names a case binds: the check's keyword-only ones,
        which the code object lists right after the positional ones."""
        code = self.check.__code__
        start = code.co_argcount
        return code.co_varnames[start:start + code.co_kwonlyargcount]


def _grid(**axes: Iterable[Union[int, float]]) -> Tuple[Dict[str, Union[int, float]], ...]:
    keys = tuple(axes)
    return tuple(
        dict(zip(keys, values)) for values in itertools.product(*axes.values())
    )


_SIGNS = (1, -1)

REGISTRY: Dict[str, RegistryEntry] = {
    "T1_V": RegistryEntry(
        check=_kernel_product_check("V"),
        default_grid=_grid(sign=_SIGNS, k=(0, 1, 2), m=(1, 2, 3)),
        independence="LHS: weighted family sums via the chain DP; "
                     "RHS: squared Pochhammer times shifted kernel_H.",
    ),
    "T1_W": RegistryEntry(
        check=_kernel_product_check("W"),
        default_grid=_grid(sign=_SIGNS, k=(0, 1, 2), m=(1, 2, 3)),
        independence="As T1_V with odd parts: base q^2 kernel and "
                     "(sign q; q^2)_m^2 prefactor.",
    ),
    "T2_V": RegistryEntry(
        check=_reconstruction_check("V"),
        default_grid=_grid(sign=_SIGNS, j=(0, 1, 2), m=(1, 2)),
        independence="LHS: single family series from the chain DP; "
                     "RHS: the B-weighted kernel sum as j + 1 products of the "
                     "moments of the kernel's binomial terms, no kernel_H "
                     "(one kernel_H per k above families._MOMENT_J).",
    ),
    "T2_W": RegistryEntry(
        check=_reconstruction_check("W"),
        default_grid=_grid(sign=_SIGNS, j=(0, 1, 2), m=(1, 2)),
        independence="As T2_V with odd parts: moments in base q^2.",
    ),
    "T4_V": RegistryEntry(
        check=_collapse_check("V"),
        default_grid=_grid(sign=_SIGNS, k=(0, 1, 2)),
        independence="LHS: weighted family sums at unbounded m; "
                     "RHS: infinite-product quotient times one-sided theta sum.",
    ),
    "T4_W": RegistryEntry(
        check=_collapse_check("W"),
        default_grid=_grid(sign=_SIGNS, k=(0, 1, 2)),
        independence="As T4_V with odd parts and the whole-exponent theta sum.",
    ),
    "L1": RegistryEntry(
        check=_quotient_sum_check(odd=False),
        default_grid=_grid(k=(0, 1, 2, 3)),
        independence="LHS: squared infinite product times q^k * kernel_H at "
                     "m = inf, a Pochhammer-quotient sum built term by term with "
                     "packed binomial divisions; RHS: one-sided theta sum, no products.",
    ),
    "L2": RegistryEntry(
        check=_quotient_sum_check(odd=True),
        default_grid=_grid(k=(0, 1, 2, 3)),
        independence="As L1 in base q^2.",
    ),
    "TT4_V": RegistryEntry(
        check=_unbounded_expansion_check("V"),
        default_grid=_grid(sign=_SIGNS, j=(0, 1, 2)),
        independence="LHS: single family series from the chain DP; "
                     "RHS: B-weighted one-sided theta sums under the product quotient.",
    ),
    "TT4_W": RegistryEntry(
        check=_unbounded_expansion_check("W"),
        default_grid=_grid(sign=_SIGNS, j=(0, 1, 2)),
        independence="As TT4_V with odd parts.",
    ),
    "THETA_PHI_SQ": RegistryEntry(
        check=_theta_square_check(odd=False),
        default_grid=(dict(),),
        independence="LHS: product of two lacunary theta expansions; "
                     "RHS: B_{k,0}-weighted one-sided sums.",
    ),
    "THETA_PSI_SQ": RegistryEntry(
        check=_theta_square_check(odd=True),
        default_grid=(dict(),),
        independence="LHS: product of two triangular-exponent expansions; "
                     "RHS: B_{k,0}-weighted whole-exponent sums.",
    ),
    "SIGMA_ID": RegistryEntry(
        check=_check_divisor_sum,
        default_grid=(dict(),),
        independence="LHS: divisor sums by trial division; "
                     "RHS: weighted Pochhammer-quotient double sum, "
                     "summed as M0*M2 - M1^2 by reconstruct_family's "
                     "moment helper at (V, +1, j = 1, m = inf).",
    ),
    "CAUCHY": RegistryEntry(
        check=_check_cauchy,
        default_grid=_grid(n=(1, 2, 3, 4), s=(1, 2)),
        independence="LHS: Gaussian-binomial sum from its term ratio; RHS: one "
                     "divided by each binomial of the finite product; they share "
                     "the packed binomial steps of series, never the identity.",
    ),
    "EULER1": RegistryEntry(
        check=_check_euler_alternating,
        default_grid=_grid(e=(1, 2, 3)),
        independence="LHS: direct product expansion; RHS: alternating "
                     "triangular-shifted inverse-Pochhammer sum.",
    ),
    "EULER2": RegistryEntry(
        check=_check_euler_direct,
        default_grid=_grid(e=(1, 2)),
        independence="CAUCHY at n = inf: LHS: shifted inverse-Pochhammer sum "
                     "from its term ratio; RHS: one divided by each binomial of "
                     "the infinite product; they share the packed binomial steps "
                     "of series, never the identity.",
    ),
    "GF_PP": RegistryEntry(
        check=_gf_check(odd=False),
        default_grid=(dict(),),
        independence="LHS: infinite-product quotient; RHS: partitions "
                     "enumerated part size by part size, each weighted by 2 per "
                     "distinct size, convolved.",
    ),
    "GF_POD": RegistryEntry(
        check=_gf_check(odd=True),
        default_grid=(dict(),),
        independence="LHS: infinite-product quotient; RHS: partitions "
                     "with no repeated odd part, enumerated part size by part "
                     "size, convolved.",
    ),
    "PARITY_W": RegistryEntry(
        check=_check_parity_flip,
        default_grid=_grid(k=(0, 1, 2, 3)),
        independence="Both sides use the chain DP, once per sign; the "
                     "compared predicate is the (-1)^(n+k) coefficient flip.",
    ),
    "POS_V": RegistryEntry(
        check=_positivity_check("V"),
        default_grid=_grid(k=(0, 1, 2, 3)),
        independence="Series side: product quotient times one-sided theta sum; "
                     "predicate side: brute-force pair counts times the same sum; "
                     "compared: the count identity on q^0..q^30, nonnegativity to q^N.",
    ),
    "POS_W": RegistryEntry(
        check=_positivity_check("W"),
        default_grid=_grid(k=(0, 1, 2, 3)),
        independence="As POS_V with odd parts: bipartition counts, whole-exponent sum.",
    ),
    "ORACLE_V": RegistryEntry(
        check=_oracle_check("V"),
        default_grid=_grid(sign=_SIGNS, k=(0, 2, 3), m=(2, INFINITE)),
        independence="Series side: chain DP; oracle side: explicit recursive "
                     "enumeration of weighted chains.",
    ),
    "ORACLE_W": RegistryEntry(
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
    _check_int("order", case.order)
    start = time.perf_counter()
    disc = _first_discrepancy(*entry.check(case.order, **dict(case.params)))
    elapsed = time.perf_counter() - start
    return VerifyReport(case=case, holds=disc is None,
                        first_discrepancy=disc, elapsed=elapsed)


def verify_suite(order: int = 20) -> List[VerifyReport]:
    """Verify every registry id over its default parameter grid at one order.

    Never aborts early: every case contributes a report, in registry order.
    """
    return [verify(IdentityCase(id=name, params=dict(params), order=order))
            for name, entry in REGISTRY.items() for params in entry.default_grid]
