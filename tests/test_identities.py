"""The verification registry: dispatch, parameter binding, discrepancy
reporting, suite aggregation, golden coefficients of the weighted-sum
builders and the positivity sides, and the difference predicates summed
term by term, with the resolved reading of the bipartition one."""

import copy
import hashlib
import inspect
import itertools
import pickle
import sys
import threading
import time

import pytest

import qident
from qident import families, identities, oracles, qtools, series
from qident.families import (
    FAMILIES,
    FamilySpec,
    InvalidSpec,
    _min_valuation,
    b_coefficient,
    binomial_combination,
    family_series,
    reconstruct_family,
)
from qident.identities import (
    REGISTRY,
    Discrepancy,
    IdentityCase,
    MissingParam,
    RegistryEntry,
    UnknownIdentity,
    VerifyReport,
    verify,
    verify_suite,
)
from qident.identities import (
    _check_cauchy,
    _check_euler_alternating,
    _check_euler_direct,
    _eta_quotient,
    _first_discrepancy,
    _one_sided,
    _weighted_theta_sum,
    divisor_sum_series,
)
from qident.oracles import overpartition_pairs, pod_bipartitions, triangular
from qident.qtools import (
    INFINITE,
    kernel_H,
    phi2_1,
    pochhammer,
    squared_pochhammer,
)
from qident.series import add, invert, monomial, mul, one, weighted_sum

# ---------------------------------------------------------------------------
# Registry shape
# ---------------------------------------------------------------------------

EXPECTED_IDS = [
    "T1_V", "T1_W", "T2_V", "T2_W", "T4_V", "T4_W", "L1", "L2",
    "TT4_V", "TT4_W", "THETA_PHI_SQ", "THETA_PSI_SQ", "SIGMA_ID",
    "CAUCHY", "EULER1", "EULER2", "GF_PP", "GF_POD",
    "PARITY_W", "POS_V", "POS_W", "ORACLE_V", "ORACLE_W",
]


def test_registry_lists_every_statement_in_order():
    assert list(REGISTRY) == EXPECTED_IDS


def test_every_entry_documents_independence_and_grid():
    for entry in REGISTRY.values():
        assert entry.independence
        assert len(entry.default_grid) >= 1
        for params in entry.default_grid:
            assert set(params) == set(entry.required)
        sides = entry.check(3, **entry.default_grid[0])
        assert isinstance(sides, tuple) and len(sides) == 2
        assert all(isinstance(side, series.ExactSeries) for side in sides)


def test_required_names_are_the_checks_keyword_only_parameters():
    def check(order, *, sign, k, m):
        return None

    entry = RegistryEntry(check=check, default_grid=(), independence="test-only")
    assert entry.required == ("sign", "k", "m")
    assert REGISTRY["CAUCHY"].required == ("n", "s")
    assert REGISTRY["SIGMA_ID"].required == ()


def test_no_registry_check_holds_a_callable():
    # every check looks up what it calls in identities' namespace when it
    # runs, so one patched name there reaches it; a callable held in a
    # closure cell would keep the value it had when the registry was built
    held = {name: [cell.cell_contents for cell in entry.check.__closure__ or ()
                   if callable(cell.cell_contents)]
            for name, entry in REGISTRY.items()}
    assert {name: cells for name, cells in held.items() if cells} == {}


# ---------------------------------------------------------------------------
# Single-case verification
# ---------------------------------------------------------------------------

REPRESENTATIVE_CASES = [
    ("T1_V", dict(sign=1, k=1, m=3)),
    ("T1_W", dict(sign=-1, k=2, m=2)),
    ("T2_V", dict(sign=-1, j=1, m=2)),
    ("T2_W", dict(sign=1, j=0, m=1)),
    ("T4_V", dict(sign=1, k=0)),
    ("T4_W", dict(sign=-1, k=2)),
    ("L1", dict(k=0)),
    ("L2", dict(k=3)),
    ("TT4_V", dict(sign=-1, j=1)),
    ("TT4_W", dict(sign=1, j=2)),
    ("THETA_PHI_SQ", dict()),
    ("THETA_PSI_SQ", dict()),
    ("SIGMA_ID", dict()),
    ("CAUCHY", dict(n=3, s=2)),
    ("EULER1", dict(e=2)),
    ("EULER2", dict(e=1)),
    ("GF_PP", dict()),
    ("GF_POD", dict()),
    ("PARITY_W", dict(k=2)),
    ("POS_V", dict(k=1)),
    ("POS_W", dict(k=0)),
    ("ORACLE_V", dict(sign=-1, k=2, m=INFINITE)),
    ("ORACLE_W", dict(sign=1, k=3, m=2)),
]


@pytest.mark.parametrize("identity,params", REPRESENTATIVE_CASES)
def test_representative_case_holds(identity, params):
    report = verify(IdentityCase(id=identity, params=params, order=12))
    assert report.holds
    assert report.first_discrepancy is None
    assert report.elapsed >= 0.0
    assert report.case.id == identity


@pytest.mark.parametrize("identity,params", [
    ("T4_V", dict(sign=1, k=1)),
    ("L2", dict(k=2)),
    ("PARITY_W", dict(k=1)),
])
def test_holding_at_high_order_implies_lower_orders(identity, params):
    for order in (18, 9, 3, 0):
        assert verify(IdentityCase(id=identity, params=params, order=order)).holds


def test_divisor_sum_holds_at_high_order():
    # the moment form makes O(N^2) work, so the north-star order stays cheap
    assert verify(IdentityCase(id="SIGMA_ID", params={}, order=400)).holds


@pytest.mark.parametrize("order", (0, 1, 5, 60))
def test_divisor_sum_equals_the_unbounded_t2_right_side(order):
    # B_{k,1} = k^2, so T2_V's right side at (sign +1, j = 1, m = inf) is
    # SIGMA_ID's double sum: its defining kernel sum, one kernel_H per k,
    # on one side, the moment products of divisor_sum_series on the other
    kernels = weighted_sum([(k, k * k, kernel_H(k, INFINITE, 1, 2, order - k))
                            for k in range(1, order + 1)], order)
    reference = mul(squared_pochhammer(1, 1, 1, INFINITE, order), kernels)
    assert reference.coeffs == divisor_sum_series(order).coeffs


def test_unknown_identity():
    with pytest.raises(UnknownIdentity):
        verify(IdentityCase(id="NOPE", params={}, order=5))


def test_params_must_bind_exactly():
    with pytest.raises(MissingParam, match="missing"):
        verify(IdentityCase(id="T1_V", params=dict(sign=1, k=1), order=5))
    with pytest.raises(MissingParam, match="unexpected"):
        verify(IdentityCase(id="L1", params=dict(k=0, m=3), order=5))
    with pytest.raises(MissingParam):
        verify(IdentityCase(id="THETA_PHI_SQ", params=dict(k=0), order=5))


def test_negative_order_rejected():
    with pytest.raises(ValueError):
        verify(IdentityCase(id="L1", params=dict(k=0), order=-1))


# Every public name that takes an order, called with that order and every
# other argument valid, and the builders in _PRIVATE_ORDER_CALLS.
_ORDER_CALLS = [
    ("from_terms", lambda order: qident.from_terms((), order)),
    ("weighted_sum", lambda order: qident.weighted_sum((), order)),
    ("monomial", lambda order: qident.monomial(1, 0, order)),
    ("one", qident.one),
    ("zero", qident.zero),
    ("pochhammer", lambda order: qident.pochhammer(1, 1, 1, 3, order)),
    ("pochhammer", lambda order: qident.pochhammer(1, 1, 1, INFINITE, order)),
    ("gaussian_binomial", lambda order: qident.gaussian_binomial(4, 2, 1, order)),
    ("kernel_H", lambda order: qident.kernel_H(1, 2, 1, 2, order)),
    ("kernel_H", lambda order: qident.kernel_H(1, INFINITE, 2, 2, order)),
    ("kernel_H", lambda order: qident.kernel_H(1, 0, 1, 2, order)),
    ("theta_phi_neg", qident.theta_phi_neg),
    ("theta_psi", qident.theta_psi),
    ("alt_triangular_sum", lambda order: qtools.alt_triangular_sum(0, order)),
    ("family_series", lambda order: qident.family_series(qident.FamilySpec("V", 1, 1, 2), order)),
    ("binomial_combination", lambda order: qident.binomial_combination("V", 1, 0, 2, order)),
    ("reconstruct_family", lambda order: qident.reconstruct_family("V", 1, 0, 2, order)),
    ("verify_suite", qident.verify_suite),
    ("overpartition_pair_series", qident.overpartition_pair_series),
    ("pod_bipartition_series", qident.pod_bipartition_series),
    ("divisor_sum_series", qident.divisor_sum_series),
]

# Unexported builders that _ORDER_CALLS still covers: bench/tracing.py
# times qtools.alt_triangular_sum.
_PRIVATE_ORDER_CALLS = {"alt_triangular_sum"}


def test_order_calls_cover_every_public_builder():
    takes_order = {name for name in qident.__all__
                   if inspect.isfunction(inspect.unwrap(getattr(qident, name)))
                   and "order" in inspect.signature(getattr(qident, name)).parameters}
    assert takes_order == {name for name, _ in _ORDER_CALLS} - _PRIVATE_ORDER_CALLS
    assert not _PRIVATE_ORDER_CALLS & set(qident.__all__)


@pytest.mark.parametrize("name, call", _ORDER_CALLS,
                         ids=[f"{name}-{i}" for i, (name, _) in enumerate(_ORDER_CALLS)])
def test_every_builder_names_a_negative_order(name, call):
    with pytest.raises(ValueError, match="^order must be non-negative, got -1$"):
        call(-1)


def _registry_arg(identity, arg, low, **params):
    """The _INT_ARG_CALLS entry of one registry parameter, verified at order 10."""
    return identity, arg, low, lambda v: verify(IdentityCase(identity, {**params, arg: v}, 10))


# Every checked integer argument of a public builder or registry check, as
# (builder, argument, lowest valid value, call with that argument and every
# other argument valid); the orders come from _ORDER_CALLS.
_INT_ARG_CALLS = [
    ("monomial", "e", 0, lambda v: qident.monomial(1, v, 5)),
    ("substitute_power", "d", 1, lambda v: series.substitute_power(one(5), v)),
    ("pochhammer", "offset", 1, lambda v: qident.pochhammer(1, v, 1, 3, 10)),
    ("pochhammer", "step", 1, lambda v: qident.pochhammer(1, 1, v, 3, 10)),
    ("pochhammer", "length", 0, lambda v: qident.pochhammer(1, 1, 1, v, 10)),
    ("gaussian_binomial", "d", 1, lambda v: qident.gaussian_binomial(4, 2, v, 10)),
    ("kernel_H", "k", 0, lambda v: qident.kernel_H(v, 2, 1, 2, 10)),
    ("kernel_H", "m", 0, lambda v: qident.kernel_H(1, v, 1, 2, 10)),
    ("kernel_H", "d", 1, lambda v: qident.kernel_H(1, 2, v, 2, 10)),
    ("kernel_H", "s", 1, lambda v: qident.kernel_H(1, 2, 1, v, 10)),
    ("alt_triangular_sum", "k", 0, lambda v: qtools.alt_triangular_sum(v, 10)),
    ("FamilySpec", "k", 0, lambda v: qident.FamilySpec("V", 1, v, 2)),
    ("FamilySpec", "m", 1, lambda v: qident.FamilySpec("V", 1, 1, v)),
    ("b_coefficient", "k", 0, lambda v: qident.b_coefficient(v, 0)),
    ("b_coefficient", "j", 0, lambda v: qident.b_coefficient(2, v)),
    ("binomial_combination", "k", 0, lambda v: binomial_combination("V", 1, v, 2, 10)),
    ("binomial_combination", "m", 1, lambda v: binomial_combination("V", 1, 1, v, 10)),
    ("reconstruct_family", "j", 0, lambda v: reconstruct_family("V", 1, v, 2, 5)),
    ("reconstruct_family", "m", 1, lambda v: reconstruct_family("V", 1, 1, v, 5)),
    ("verify", "order", 0, lambda v: verify(IdentityCase("L1", {"k": 1}, v))),
    _registry_arg("T1_V", "k", 0, sign=1, m=2),
    _registry_arg("T1_V", "m", 1, sign=1, k=1),
    _registry_arg("T2_V", "j", 0, sign=1, m=2),
    _registry_arg("T2_V", "m", 1, sign=1, j=1),
    _registry_arg("T4_V", "k", 0, sign=1),
    _registry_arg("L1", "k", 0),
    _registry_arg("L2", "k", 0),
    _registry_arg("TT4_V", "j", 0, sign=1),
    _registry_arg("CAUCHY", "n", 1, s=1),
    _registry_arg("CAUCHY", "s", 1, n=2),
    _registry_arg("EULER1", "e", 1),
    _registry_arg("EULER2", "e", 1),
    _registry_arg("PARITY_W", "k", 0),
    _registry_arg("POS_V", "k", 0),
    _registry_arg("POS_W", "k", 0),
    _registry_arg("ORACLE_V", "k", 0, sign=1, m=2),
    _registry_arg("ORACLE_V", "m", 1, sign=1, k=1),
] + [(name, "order", 0, call) for name, call in _ORDER_CALLS] + [
    ("from_terms", "exponent", 0, lambda v: qident.from_terms([(v, 1)], 3)),
    ("weighted_sum", "exponent", 0, lambda v: qident.weighted_sum([(v, 1, one(3))], 3)),
]


@pytest.mark.parametrize("name, arg, low, call", _INT_ARG_CALLS,
                         ids=[f"{name}-{arg}-{i}" for i, (name, arg, _, _)
                              in enumerate(_INT_ARG_CALLS)])
def test_every_builder_names_a_bad_integer_argument(name, arg, low, call):
    # bool subclasses int, so an isinstance check would let True through
    for bad in (low + 0.5, True, False):
        with pytest.raises(ValueError, match=rf"^{arg} must be an integer, got {bad}$"):
            call(bad)
    rule = "non-negative" if low == 0 else f">= {low}"
    with pytest.raises(ValueError, match=f"^{arg} must be {rule}, got {low - 1}$"):
        call(low - 1)


# Every builder that takes a sign, with the error it raises for a bad one,
# called with that sign and every other argument valid; all of them check
# it with series._check_sign.
_SIGN_CALLS = [
    ("FamilySpec", InvalidSpec, lambda v: qident.FamilySpec("V", v, 2)),
    ("pochhammer", ValueError, lambda v: qident.pochhammer(v, 1, 1, 3, 10)),
    ("squared_pochhammer", ValueError, lambda v: qtools.squared_pochhammer(v, 1, 1, 3, 10)),
    ("chain_sums", ValueError, lambda v: series.chain_sums([1, 2], v, False, 2, 10, 8)),
    ("reconstruct_family", InvalidSpec, lambda v: reconstruct_family("V", v, 1, 2, 8)),
    ("verify", InvalidSpec,
     lambda v: verify(IdentityCase("T2_V", {"sign": v, "j": 1, "m": 2}, 8))),
]


@pytest.mark.parametrize("bad", [2, 1.0, -1.0, True, False])
@pytest.mark.parametrize("name, error, call", _SIGN_CALLS,
                         ids=[name for name, _, _ in _SIGN_CALLS])
def test_every_builder_names_a_bad_sign(name, error, call, bad):
    # 1.0 == True == 1, so a check by membership in (1, -1) would let a
    # float or bool sign through
    with pytest.raises(error, match=rf"^sign must be \+1 or -1, got {bad}$"):
        call(bad)


# ---------------------------------------------------------------------------
# Discrepancy reporting (harness self-test with a perturbed entry)
# ---------------------------------------------------------------------------

def test_perturbed_comparison_reports_first_discrepancy():
    def perturbed_check(order):
        base = _one_sided(1, False, order)
        return base, add(base, monomial(10 ** 30, 7, order))

    REGISTRY["PERTURBED"] = RegistryEntry(
        check=perturbed_check,
        default_grid=(dict(),), independence="test-only mutant",
    )
    try:
        report = verify(IdentityCase(id="PERTURBED", params={}, order=20))
        assert not report.holds
        assert report.first_discrepancy == Discrepancy(
            exponent=7, lhs=0, rhs=10 ** 30)
    finally:
        del REGISTRY["PERTURBED"]


# ---------------------------------------------------------------------------
# Value types: pickle and copy rebuild them, and no path skips validation
# ---------------------------------------------------------------------------

VALUES = [
    series.from_coeffs([3, 0, -(10 ** 40)]),
    FamilySpec("W", -1, 2, 5),
    FamilySpec("A", 1, 3),
    VerifyReport(case=IdentityCase("L1", {"k": 1}, 10), holds=False,
                 first_discrepancy=Discrepancy(exponent=7, lhs=0, rhs=10 ** 30),
                 elapsed=0.25),
]


@pytest.mark.parametrize("clone", [lambda v: pickle.loads(pickle.dumps(v)), copy.copy,
                                   copy.deepcopy], ids=["pickle", "copy", "deepcopy"])
@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_value_types_round_trip_through_pickle_and_copy(value, clone):
    twin = clone(value)
    assert type(twin) is type(value)
    assert twin == value


def test_family_spec_make_and_replace_validate():
    spec = FamilySpec("V", 1, 2)
    assert spec._replace(k=3) == FamilySpec("V", 1, 3)
    with pytest.raises(InvalidSpec):
        spec._replace(sign=3)
    with pytest.raises(InvalidSpec):
        FamilySpec._make(("A", 1, 1, 2))
    assert spec == FamilySpec._make(("V", 1, 2, INFINITE))


def test_first_discrepancy_compares_up_to_the_shorter_order():
    # the oracle- and predicate-capped checks return sides of different
    # orders; only their common prefix is compared
    short, long_ = series.from_coeffs([1, 2]), series.from_coeffs([1, 2, 9])
    assert short != long_
    assert _first_discrepancy(short, long_) is None
    assert _first_discrepancy(long_, short) is None
    assert _first_discrepancy(long_, series.from_coeffs([1, 5])) == Discrepancy(
        exponent=1, lhs=2, rhs=5)


def test_holds_iff_no_discrepancy():
    good = verify(IdentityCase(id="L1", params=dict(k=1), order=10))
    assert good.holds and good.first_discrepancy is None


# ---------------------------------------------------------------------------
# Shared building blocks
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("odd", [False, True])
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("order", [0, 1, 7, 60])
def test_eta_quotient_matches_the_inverted_product(sign, odd, order):
    step = 2 if odd else 1
    num = pochhammer(sign, 1, step, INFINITE, order)
    den = pochhammer(1, step, step, INFINITE, order)
    want = mul(mul(num, num), invert(mul(den, den)))
    assert _eta_quotient(sign, odd, order) == want


@pytest.mark.parametrize("odd", [False, True])
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("j", [0, 1, 2, 5])
@pytest.mark.parametrize("order", [0, 1, 2, 7, 30, 81])
def test_weighted_theta_sum_matches_the_dense_sum(odd, sign, j, order):
    # every one-sided sum built whole, weighted and added series by series
    dense = weighted_sum([(0, sign ** (k - j) * b_coefficient(k, j), _one_sided(k, odd, order))
                          for k in range(j, order + 1)], order)
    assert _weighted_theta_sum(sign, j, odd, order) == dense


def _quotient_sum(step, k, order):
    """The L1/L2 quotient sum sum_j q^(2j+k) / ((Q;Q)_j (Q;Q)_(j+k)),
    Q = q^step, as their checks build it: q^k times kernel_H at m = inf."""
    kernel = kernel_H(k, INFINITE, step, 2, max(order - k, 0))
    return weighted_sum([(k, 1, kernel)], order)


def _quotient_sum_reference(step, k, order):
    """sum_j q^(2j+k) inv_j inv_(j+k), one product per j, where inv_i is
    the inverted product 1/(q^step; q^step)_i."""
    def inv(i):
        return invert(pochhammer(1, step, step, i, order))

    terms = ((2 * j + k, 1, mul(inv(j), inv(j + k))) for j in range((order - k) // 2 + 1))
    return weighted_sum(terms, order)


@pytest.mark.parametrize("step", [1, 2])
@pytest.mark.parametrize("order", [0, 1, 7, 20])
def test_quotient_sum_matches_the_product_sum(step, order):
    for k in (0, 1, 2, 3, 4, order + 1):
        want = _quotient_sum_reference(step, k, order)
        assert _quotient_sum(step, k, order).coeffs == want.coeffs, k


def test_kernel_and_quotient_sums_multiply_no_series(monkeypatch):
    # both are summed from their term ratio: each step is packed binomial
    # products and divisions, never a product of two series; a bounded m
    # with k >= 1 also multiplies the first term by the numerator factors
    # (1 - Q^(m+k-h-1+i)), i = 1..h, h = min(k, m-1) (h = k for the first
    # call, m-1 for the second), one packed product each
    calls = []

    def counting_mul(a, b):
        calls.append((a, b))
        return mul(a, b)

    for module in (series, qtools, identities):
        monkeypatch.setattr(module, "mul", counting_mul)
    kernel_H.cache_clear()
    kernel_H(2, 3, 2, 2, 40)
    kernel_H(3, 2, 1, 1, 40)
    _quotient_sum(2, 1, 40)
    assert calls == []


@pytest.mark.parametrize("identity", ["L1", "L2"])
def test_quotient_sum_of_a_huge_index_stays_cheap(monkeypatch, identity):
    # (1 - Q^i) is 1 at the order once step*i exceeds it, so the first
    # term of k = 10**6 takes no more divisions than that of k = order + 1
    calls = []
    divide = series._divide_packed

    def counting_divide(u, x, c, width, mask, order):
        calls.append(x)
        return divide(u, x, c, width, mask, order)

    monkeypatch.setattr(series, "_divide_packed", counting_divide)
    step = 2 if identity == "L2" else 1
    kernel_H.cache_clear()
    counts = []
    for k in (21, 10 ** 6):
        calls.clear()
        assert verify(IdentityCase(id=identity, params=dict(k=k), order=20)).holds
        kernel_H(k, INFINITE, step, 2, 20)  # the kernel itself, at the whole order
        counts.append(len(calls))
    assert 0 < counts[1] <= counts[0]


@pytest.mark.parametrize("k, m", [(10, 2000), (10 ** 5, 3)])
def test_kernel_product_of_a_huge_bound_or_index_stays_cheap(k, m):
    # the first kernel term [m-1+k, k] takes min(k, m-1) product factors
    # truncated at the order, not a q-Pascal polynomial of degree k*(m-1)
    start = time.perf_counter()
    assert verify(IdentityCase(id="T1_V", params=dict(sign=1, k=k, m=m), order=20)).holds
    assert time.perf_counter() - start < 5.0


# Cold cases over the chain DP, the kernel, the eta quotient, the
# quotient sums, the divisor-sum moments and the pair-count memo.
_THREAD_CASES = [
    IdentityCase("T1_V", dict(sign=-1, k=1, m=2), 40),
    IdentityCase("T2_W", dict(sign=1, j=1, m=2), 40),
    IdentityCase("L1", dict(k=1), 40),
    IdentityCase("SIGMA_ID", {}, 40),
    IdentityCase("TT4_W", dict(sign=-1, j=2), 40),
    IdentityCase("POS_V", dict(k=1), 40),
    IdentityCase("GF_POD", {}, 40),
]


def _clear_every_cache(monkeypatch):
    """Empty every memo and table of the package."""
    for cached in (qtools.pochhammer, qtools.squared_pochhammer, qtools._gauss_poly,
                   qtools.kernel_H, _eta_quotient, oracles.pair_counts):
        cached.cache_clear()
    monkeypatch.setattr(families, "_tables", {})
    monkeypatch.setattr(oracles, "_partitions", [1])


def test_concurrent_cold_verifies_match_one_thread(monkeypatch):
    # series are shared freely between threads: eight threads verifying the
    # same cold cases at once report what one thread reports; a race shows
    # only in some interleavings, so the run is repeated from cold caches
    _clear_every_cache(monkeypatch)
    want = [(r.holds, r.first_discrepancy) for r in map(verify, _THREAD_CASES)]
    assert want == [(True, None)] * len(_THREAD_CASES)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            _clear_every_cache(monkeypatch)
            results = [None] * 8
            start = threading.Barrier(8, timeout=60)

            def worker(slot):
                start.wait()
                results[slot] = [(r.holds, r.first_discrepancy)
                                 for r in map(verify, _THREAD_CASES)]

            threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert results == [want] * 8
    finally:
        sys.setswitchinterval(interval)


# ---------------------------------------------------------------------------
# Golden coefficients of the weighted-sum builders
# ---------------------------------------------------------------------------

GOLDEN_ORDERS = (0, 1, 2, 5, 17, 40)
SIGNS = (1, -1)
# The chain DP at a high order: rows 1, 2, 7 and the last visible one of
# each table, where the binomial divisions run on long coefficient lists.
HIGH_ORDER = 120


def _captured_sides(check, **params):
    """Both series a check returns, for each golden order: the Cauchy and
    Euler sums are built only inside their checks."""
    return [side for order in GOLDEN_ORDERS for side in check(order, **params)]


# Each builder's outputs over GOLDEN_ORDERS and a small parameter grid;
# the SHA-256 of their coefficient tuples pins every coefficient.
GOLDEN_BUILDS = {
    "binomial_combination": lambda: [
        binomial_combination(family, sign, k, m, order)
        for order in GOLDEN_ORDERS for family in ("V", "W") for sign in SIGNS
        for k in (0, 1, 3) for m in (1, 3, INFINITE)],
    "reconstruct_family": lambda: [
        reconstruct_family(family, sign, j, m, order)
        for order in GOLDEN_ORDERS for family in ("V", "W") for sign in SIGNS
        for j in (0, 1, 2) for m in (1, 2, 3)],
    "family_series": lambda: [
        family_series(FamilySpec(family, sign, k, m), order)
        for order in GOLDEN_ORDERS for family in FAMILIES for sign in SIGNS
        for m in ((1, 3, INFINITE) if family in ("V", "W") else (INFINITE,))
        for k in range(order + 1) if _min_valuation(family, k) <= order],
    "family_series_order_120": lambda: [
        family_series(FamilySpec(family, sign, k, m), HIGH_ORDER)
        for family, m in (("V", 3), ("V", INFINITE), ("W", 3), ("W", INFINITE),
                          ("A", INFINITE), ("C", INFINITE))
        for sign in SIGNS
        for k in (1, 2, 7, max(k for k in range(HIGH_ORDER + 1)
                               if _min_valuation(family, k) <= HIGH_ORDER))],
    "kernel_H": lambda: [
        kernel_H(k, m, d, s, order)
        for order in GOLDEN_ORDERS for k in (0, 1, 2) for m in (0, 1, 2)
        for d in (1, 2) for s in (1, 2, 3)],
    "phi2_1": lambda: [
        phi2_1(a, b, c, d, s, order)
        for order in GOLDEN_ORDERS for a, b, c in ((1, 1, 1), (1, 2, 3), (3, 1, 2))
        for d in (1, 2) for s in (1, 2)],
    "pochhammer": lambda: [
        pochhammer(sign, offset, step, length, order)
        for order in GOLDEN_ORDERS for sign in SIGNS for offset in (1, 2, 3)
        for step in (1, 2, 3) for length in (0, 1, 3, 7, INFINITE)],
    "_quotient_sum": lambda: [
        _quotient_sum(step, k, order)
        for order in GOLDEN_ORDERS for step in (1, 2) for k in (0, 1, 2, 3, order + 1)],
    "_weighted_theta_sum": lambda: [
        _weighted_theta_sum(sign, j, odd, order)
        for order in GOLDEN_ORDERS for sign in SIGNS for j in (0, 1, 2)
        for odd in (False, True)],
    "_bracket_half": lambda: [
        _one_sided(k, False, order) for order in GOLDEN_ORDERS for k in (0, 1, 2, 5)],
    "divisor_sum_series": lambda: [divisor_sum_series(order) for order in GOLDEN_ORDERS],
    "cauchy": lambda: [
        side for n in (1, 2, 4) for s in (1, 2, 3)
        for side in _captured_sides(_check_cauchy, n=n, s=s)],
    "euler_alternating": lambda: [
        side for e in (1, 2, 3)
        for side in _captured_sides(_check_euler_alternating, e=e)],
    "euler_direct": lambda: [
        side for e in (1, 2, 3)
        for side in _captured_sides(_check_euler_direct, e=e)],
    "positivity": lambda: [
        side for family in ("V", "W") for k in range(6)
        for side in _captured_sides(REGISTRY[f"POS_{family}"].check, k=k)],
}

GOLDEN_SHA256 = {
    "_bracket_half": "78cae9aa05a52ad85aabb4250d25402e456abe77567e8d75f1a9836439c12643",
    "_quotient_sum": "a0f60d7d45deb3a074ddba4458bc65fb2b0d6391c5c074beb2faf09a08334851",
    "_weighted_theta_sum": "0484bc54696ec0e178401549d1a66bf354e8a6fbe08acb6c5df057502ec79558",
    "binomial_combination": "c2d5d9509bd2ccc88846bdca68ec9375ea8d22e5c77c51dc338fe8115eafed83",
    "cauchy": "153af000d42bd38473f630ca09698396f9d93f366d5cfdd29d2b8756aff9db3c",
    "divisor_sum_series": "b3e15ea83d5950b031c6886b8eccd468cad134f00dd685fdd948cd0d3a700005",
    "euler_alternating": "bdaf4d399f27621ef271fc9828de9551d3deadc24d0437d60062c8915c28bb01",
    "euler_direct": "d12a2ea193cf6d2f0004cbcedb08e550a6c6190e3dc452a80df9eee2f9e75876",
    "family_series": "ecf72f1bbfcf7905e9c83df8b16243914d955b2939313cf01017c379c66307b5",
    "family_series_order_120": "5585c9c5e26d7204da93aad811e7ee7468ff0d9d9c508fd7130ea8ab7f565bb0",
    "kernel_H": "757ba5f23bec6c119804534759bd2b216c14b43161214e9564573fe5f98beb79",
    "phi2_1": "28b2754bf1eb6a93cd7685c66bfcbc8ec643a3a79730d4840d618fa3365c0ead",
    "pochhammer": "3b0c1f2c934a5d76332b553e1fed072e74028e06565c8ddba3759498d48e00e5",
    "positivity": "da8b86fcac290354f4fe83a89d6d37801e2fb7676c166f6bf7536193760dd274",
    "reconstruct_family": "bea1b60e655062c9e1bcf7d56da0fdaaead02097d9daa936db30af97cce2dd12",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_BUILDS))
def test_weighted_sum_builders_match_golden_coefficients(name):
    coeffs = [series.coeffs for series in GOLDEN_BUILDS[name]()]
    assert hashlib.sha256(repr(coeffs).encode()).hexdigest() == GOLDEN_SHA256[name]


# ---------------------------------------------------------------------------
# Suite aggregation
# ---------------------------------------------------------------------------

def test_default_suite_holds_everywhere():
    reports = verify_suite(order=12)
    assert reports and all(r.holds for r in reports)
    seen = [r.case.id for r in reports]
    assert sorted(set(seen), key=EXPECTED_IDS.index) == EXPECTED_IDS
    # reports come out grouped in registry order
    assert seen == sorted(seen, key=EXPECTED_IDS.index)


def test_suite_at_order_zero_reduces_to_constant_terms():
    assert all(r.holds for r in verify_suite(order=0))


# ---------------------------------------------------------------------------
# Wide-grid sweep
# ---------------------------------------------------------------------------

# Every value a registry parameter takes in the sweep, far beyond the default
# grids: m = 4..7, k >= 3 in T1/T4, j above families._MOMENT_J, e >= 4, and
# every caller of qtools.binomial_sums at s = 3, n = 8 and e = 5.  The box
# lives here, not in the registry, so the suite's cases stay as they are.
_WIDE_BOX = dict(sign=(1, -1), k=range(7), j=range(14), m=(1, 2, 3, 4, 5, 7, INFINITE),
                 n=(1, 2, 3, 5, 8), s=(1, 2, 3), e=range(1, 6))
_WIDE_ORDER = 40


def _wide_failures(identity):
    """The params of every case of the entry, over the box axes its
    required names pick, that does not hold at _WIDE_ORDER."""
    names = REGISTRY[identity].required
    cases = (dict(zip(names, values))
             for values in itertools.product(*(_WIDE_BOX[name] for name in names)))
    return [params for params in cases
            if not verify(IdentityCase(identity, params, _WIDE_ORDER)).holds]


@pytest.mark.parametrize("identity", list(REGISTRY))
def test_every_entry_holds_over_the_wide_box(identity):
    # an entry with a parameter the box lacks fails here with a KeyError
    assert _wide_failures(identity) == []


def test_the_wide_sweep_reports_a_broken_binomial_sum(monkeypatch):
    # identities looks binomial_sums up in its own namespace, so the fault
    # reaches the CAUCHY and EULER sums; kernel_H and the T2 moments call
    # it from qtools and families and stay whole
    real = identities.binomial_sums

    def faulty(*args):
        *_, order = args
        return [add(out, monomial(1, order, order)) for out in real(*args)]

    monkeypatch.setattr(identities, "binomial_sums", faulty)
    failed = {identity: len(_wide_failures(identity)) for identity in REGISTRY}
    assert {identity: n for identity, n in failed.items() if n} == {
        "CAUCHY": 15, "EULER1": 5, "EULER2": 5}


# ---------------------------------------------------------------------------
# The two candidate readings of the bipartition difference predicate
# ---------------------------------------------------------------------------

def test_bipartition_predicate_reading_is_the_doubled_exponent():
    """The difference predicate must use exponents j(j+1) - k^2.  The
    halved variant (triangular T_j in place of j(j+1)) already fails at
    k=0, n=1, which pins the resolved reading."""
    order = 20
    k = 0
    series = mul(_eta_quotient(-1, True, order), _one_sided(k, True, order))

    def predicted(n, halved):
        total, j = 0, k
        while True:
            exponent = j * (j + 1) // 2 if halved else j * (j + 1)
            x = n - exponent + k * k
            if x < 0:
                break
            total += (-1) ** (j - k) * pod_bipartitions(x)
            j += 1
        return total

    assert [series.coeffs[n] for n in range(order + 1)] == \
           [predicted(n, halved=False) for n in range(order + 1)]
    assert series.coeffs[1] == 2
    assert predicted(1, halved=True) == 1  # the rejected reading disagrees


def _overpartition_predicate(k, n):
    """-pp(n) + sum_{j>=k} (-1)^(j-k) (pp(n - T_j + T_k) + pp(n - T_j + T_{k-1}))
    with pp vanishing on negative arguments and T_{-1} = 0, summed term by
    term."""
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


def _bipartition_predicate(k, n):
    """sum_{j>=k} (-1)^(j-k) pod2(n - j(j+1) + k^2), negative arguments
    contributing 0, summed term by term."""
    predicted = 0
    j = k
    while j * (j + 1) - k * k <= n:
        term_sign = -1 if (j - k) % 2 else 1
        predicted += term_sign * pod_bipartitions(n - j * (j + 1) + k * k)
        j += 1
    return predicted


@pytest.mark.parametrize("identity, reference", [
    ("POS_V", _overpartition_predicate), ("POS_W", _bipartition_predicate)])
@pytest.mark.parametrize("k", range(6))
def test_positivity_predicate_matches_the_term_by_term_sum(identity, reference, k):
    # every product coefficient is nonnegative, so on q^0..q^30 the
    # expected side is the predicate series, counts times the one-sided sum
    _, expected = REGISTRY[identity].check(30, k=k)
    assert expected.coeffs == tuple(reference(k, n) for n in range(31))


def test_overpartition_predicate_spot_values():
    report = verify(IdentityCase(id="POS_V", params=dict(k=4), order=30))
    assert report.holds
