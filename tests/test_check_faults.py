"""Failure paths of the oracle-, predicate- and flip-backed checks.

Each test injects one fault into an input the check reads through the
``qident.identities`` module (an oracle count, a predicate count, a divisor
sum, the chain DP, or the one-sided theta sum under the positivity product
and in L1) and pins the exact Discrepancy between the check's two sides at
order 40.
"""

import pytest

import qident.identities as identities
from qident.identities import Discrepancy, IdentityCase, verify
from qident.qtools import INFINITE
from qident.series import add, monomial

ORDER = 40

# Unperturbed coefficients of q^35 in the two positivity products at k = 1.
POS_V_Q35 = 19062995
POS_W_Q35 = 114169


def _first(identity, **params):
    return verify(IdentityCase(id=identity, params=params, order=ORDER)).first_discrepancy


def _bump(monkeypatch, name, at, by=1):
    """Make the count ``name`` off by ``by`` at the single argument ``at``."""
    real = getattr(identities, name)
    monkeypatch.setattr(identities, name, lambda n: real(n) + (by if n == at else 0))


def _fault_one_sided(monkeypatch, at, by):
    """Add ``by*q^at`` to every one-sided theta sum; the positivity product
    (unit-constant quotient times that sum) first changes at q^at by ``by``."""
    real = identities._one_sided

    def faulty(k, odd, order):
        return add(real(k, odd, order), monomial(by, at, order))

    monkeypatch.setattr(identities, "_one_sided", faulty)


# ---------------------------------------------------------------------------
# Generating functions against brute-force counts
# ---------------------------------------------------------------------------

def test_gf_pp_reports_the_faulty_count(monkeypatch):
    _bump(monkeypatch, "overpartition_pairs", 7)
    assert _first("GF_PP") == Discrepancy(exponent=7, lhs=704, rhs=705)


def test_gf_pod_reports_the_faulty_count(monkeypatch):
    _bump(monkeypatch, "pod_bipartitions", 9)
    assert _first("GF_POD") == Discrepancy(exponent=9, lhs=104, rhs=105)


def test_gf_fault_beyond_the_cap_goes_unseen(monkeypatch):
    _bump(monkeypatch, "overpartition_pairs", 25)
    assert _first("GF_PP") is None


# ---------------------------------------------------------------------------
# Divisor sums by trial division against the moment form
# ---------------------------------------------------------------------------

def test_sigma_reports_the_faulty_divisor_sum(monkeypatch):
    _bump(monkeypatch, "divisor_sigma", 12)
    assert _first("SIGMA_ID") == Discrepancy(exponent=12, lhs=29, rhs=28)


# ---------------------------------------------------------------------------
# Chain DP against direct enumeration
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family, name, params, at, expected", [
    ("V", "v_oracle", dict(sign=1, k=2, m=INFINITE), 5, Discrepancy(5, 29, 30)),
    ("W", "w_oracle", dict(sign=-1, k=2, m=3), 9, Discrepancy(9, -140, -139)),
])
def test_oracle_check_reports_the_faulty_enumeration(monkeypatch, family, name,
                                                     params, at, expected):
    real = getattr(identities, name)
    monkeypatch.setattr(identities, name,
                        lambda sign, k, m, n: real(sign, k, m, n) + (n == at))
    assert _first(f"ORACLE_{family}", **params) == expected


def test_oracle_fault_beyond_the_cap_goes_unseen(monkeypatch):
    real = identities.v_oracle
    monkeypatch.setattr(identities, "v_oracle",
                        lambda sign, k, m, n: real(sign, k, m, n) + (n == 16))
    assert _first("ORACLE_V", sign=1, k=2, m=2) is None


# ---------------------------------------------------------------------------
# The parity flip
# ---------------------------------------------------------------------------

def test_parity_flip_reports_the_minus_series_first(monkeypatch):
    real = identities.family_series

    def faulty(spec, order):
        series = real(spec, order)
        return add(series, monomial(1, 6, order)) if spec.sign == -1 else series

    monkeypatch.setattr(identities, "family_series", faulty)
    assert _first("PARITY_W", k=2) == Discrepancy(exponent=6, lhs=41, rhs=40)


# ---------------------------------------------------------------------------
# Positivity: nonnegativity to the order, the predicate to q^30
# ---------------------------------------------------------------------------

def test_pos_v_reports_the_faulty_predicate(monkeypatch):
    # pp(7) enters the predicate at n = 8 through the T_{k-1} term
    _bump(monkeypatch, "overpartition_pairs", 7)
    assert _first("POS_V", k=1) == Discrepancy(exponent=8, lhs=228, rhs=229)


def test_pos_w_reports_the_faulty_predicate(monkeypatch):
    _bump(monkeypatch, "pod_bipartitions", 9)
    assert _first("POS_W", k=1) == Discrepancy(exponent=10, lhs=86, rhs=87)


@pytest.mark.parametrize("identity, q35", [("POS_V", POS_V_Q35), ("POS_W", POS_W_Q35)])
def test_pos_reports_a_negative_coefficient_beyond_the_predicate_cap(
        monkeypatch, identity, q35):
    _fault_one_sided(monkeypatch, 35, -5 - q35)
    assert _first(identity, k=1) == Discrepancy(exponent=35, lhs=-5, rhs=0)


@pytest.mark.parametrize("identity, lhs", [
    ("POS_V", -999999997960), ("POS_W", -999999999820)])
def test_pos_tie_goes_to_nonnegativity(monkeypatch, identity, lhs):
    # at q^12 the coefficient is both negative and off the predicate
    _fault_one_sided(monkeypatch, 12, -10 ** 12)
    assert _first(identity, k=1) == Discrepancy(exponent=12, lhs=lhs, rhs=0)


def test_pos_reports_the_earlier_of_its_two_discrepancies(monkeypatch):
    _bump(monkeypatch, "overpartition_pairs", 7)
    _fault_one_sided(monkeypatch, 35, -10 ** 12)
    assert _first("POS_V", k=1) == Discrepancy(exponent=8, lhs=228, rhs=229)


def test_a_nonnegative_one_sided_fault_shows_in_l1_not_in_pos(monkeypatch):
    # POS multiplies the counts and the quotient by the same one-sided sum,
    # so a fault there that keeps the product nonnegative is invisible to
    # POS; L1 compares that sum against the kernel_H quotient sum
    _fault_one_sided(monkeypatch, 12, 1)
    assert _first("L1", k=1) == Discrepancy(exponent=12, lhs=0, rhs=1)
    assert _first("POS_V", k=1) is None
