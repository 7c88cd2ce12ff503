"""The verification registry: dispatch, parameter binding, discrepancy
reporting, suite aggregation, and the resolved reading of the bipartition
difference predicate."""

import pytest

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
    _eta_quotient,
    _first_discrepancy,
    _inv_poch_table,
)
from qident.oracles import pod_bipartitions
from qident.qtools import INFINITE, WHOLE, PochSpec, alt_triangular_sum, pochhammer
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
