"""The verification registry: dispatch, parameter binding, discrepancy
reporting, suite aggregation, golden coefficients of the weighted-sum
builders, and the resolved reading of the bipartition difference
predicate."""

import hashlib

import pytest

from qident import identities
from qident.families import binomial_combination, reconstruct_family
from qident.identities import (
    REGISTRY,
    Discrepancy,
    IdentityCase,
    MissingParam,
    RegistryEntry,
    UnknownIdentity,
    verify,
    verify_suite,
)
from qident.identities import (
    _bracket_half,
    _check_cauchy,
    _check_euler_alternating,
    _check_euler_direct,
    _eta_quotient,
    _first_discrepancy,
    _inv_poch_table,
    _quotient_sum,
    _weighted_theta_sum,
    divisor_sum_series,
)
from qident.oracles import pod_bipartitions
from qident.qtools import (
    INFINITE,
    WHOLE,
    PochSpec,
    alt_triangular_sum,
    kernel_H,
    phi2_1,
    pochhammer,
)
from qident.series import add, monomial, mul, one

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


# ---------------------------------------------------------------------------
# Discrepancy reporting (harness self-test with a perturbed entry)
# ---------------------------------------------------------------------------

def test_perturbed_comparison_reports_first_discrepancy():
    def perturbed_check(order):
        base = _bracket_half(1, order)
        wrong = add(base, monomial(10 ** 30, 7, order))
        return _first_discrepancy(base, wrong)

    REGISTRY["PERTURBED"] = RegistryEntry(
        required=(), check=perturbed_check,
        default_grid=(dict(),), independence="test-only mutant",
    )
    try:
        report = verify(IdentityCase(id="PERTURBED", params={}, order=20))
        assert not report.holds
        assert report.first_discrepancy == Discrepancy(
            exponent=7, lhs=0, rhs=10 ** 30)
    finally:
        del REGISTRY["PERTURBED"]


def test_holds_iff_no_discrepancy():
    good = verify(IdentityCase(id="L1", params=dict(k=1), order=10))
    assert good.holds and good.first_discrepancy is None


# ---------------------------------------------------------------------------
# Shared building blocks
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("step", [1, 2])
@pytest.mark.parametrize("order", [0, 1, 7, 20])
def test_inverse_pochhammer_table_inverts_the_products(step, order):
    # count runs past order // step, where the entries stop changing
    count = order // step + 3
    table = _inv_poch_table(step, count, order)
    assert len(table) == count + 1
    for i, entry in enumerate(table):
        product = pochhammer(PochSpec(sign=1, offset=step, step=step, length=i), order)
        assert mul(entry, product) == one(order)


# ---------------------------------------------------------------------------
# Golden coefficients of the weighted-sum builders
# ---------------------------------------------------------------------------

GOLDEN_ORDERS = (0, 1, 2, 5, 17, 40)
SIGNS = (1, -1)


def _captured_sides(check, **params):
    """Both series a check hands to _first_discrepancy, for each golden
    order: the Cauchy and Euler sums live only inside their checks."""
    sides = []

    def recorder(lhs, rhs):
        sides.extend((lhs, rhs))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(identities, "_first_discrepancy", recorder)
        for order in GOLDEN_ORDERS:
            check(order, **params)
    return sides


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
    "kernel_H": lambda: [
        kernel_H(k, m, d, s, order)
        for order in GOLDEN_ORDERS for k in (0, 1, 2) for m in (0, 1, 2)
        for d in (1, 2) for s in (1, 2, 3)],
    "phi2_1": lambda: [
        phi2_1(a, b, c, d, s, order)
        for order in GOLDEN_ORDERS for a, b, c in ((1, 1, 1), (1, 2, 3), (3, 1, 2))
        for d in (1, 2) for s in (1, 2)],
    "pochhammer": lambda: [
        pochhammer(PochSpec(sign=sign, offset=offset, step=step, length=length), order)
        for order in GOLDEN_ORDERS for sign in SIGNS for offset in (1, 2, 3)
        for step in (1, 2, 3) for length in (0, 1, 3, 7, INFINITE)],
    "_quotient_sum": lambda: [
        _quotient_sum(_inv_poch_table(step, order, order), k, order)
        for order in GOLDEN_ORDERS for step in (1, 2) for k in (0, 1, 2, 3, order + 1)],
    "_weighted_theta_sum": lambda: [
        _weighted_theta_sum(sign, j, odd, order)
        for order in GOLDEN_ORDERS for sign in SIGNS for j in (0, 1, 2)
        for odd in (False, True)],
    "_bracket_half": lambda: [
        _bracket_half(k, order) for order in GOLDEN_ORDERS for k in (0, 1, 2, 5)],
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
    "kernel_H": "757ba5f23bec6c119804534759bd2b216c14b43161214e9564573fe5f98beb79",
    "phi2_1": "28b2754bf1eb6a93cd7685c66bfcbc8ec643a3a79730d4840d618fa3365c0ead",
    "pochhammer": "3b0c1f2c934a5d76332b553e1fed072e74028e06565c8ddba3759498d48e00e5",
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


def test_empty_grid_gives_empty_reports():
    assert verify_suite(order=10, grids={}) == []


def test_grid_with_unknown_id_is_rejected():
    with pytest.raises(UnknownIdentity, match="'T4v'"):
        verify_suite(order=4, grids={"L1": [dict(k=0)], "T4v": [dict(sign=1, k=0)]})


def test_explicit_grid_limits_cases():
    reports = verify_suite(order=10, grids={"L1": [dict(k=0), dict(k=2)]})
    assert [r.case.id for r in reports] == ["L1", "L1"]
    assert all(r.holds for r in reports)


# ---------------------------------------------------------------------------
# The two candidate readings of the bipartition difference predicate
# ---------------------------------------------------------------------------

def test_bipartition_predicate_reading_is_the_doubled_exponent():
    """The difference predicate must use exponents j(j+1) - k^2.  The
    halved variant (triangular T_j in place of j(j+1)) already fails at
    k=0, n=1, which pins the resolved reading."""
    order = 20
    k = 0
    series = mul(_eta_quotient(-1, True, order), alt_triangular_sum(k, WHOLE, order))

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


def test_overpartition_predicate_spot_values():
    report = verify(IdentityCase(id="POS_V", params=dict(k=4), order=30))
    assert report.holds
