"""Family series: chain DP against closed atom forms, valuations, parity,
inverse-weight coefficients, and the two reconstruction directions."""

import threading
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qident import families
from qident.families import (
    FamilySpec,
    InvalidSpec,
    atom,
    b_coefficient,
    binomial_combination,
    family_series,
    reconstruct_family,
)
from qident.oracles import b_extraction, triangular, v_oracle, w_oracle
from qident.qtools import INFINITE
from qident.series import (
    add,
    divide_binomial,
    invert,
    monomial,
    mul,
    one,
    scale,
    weighted_sum,
    zero,
)

# ---------------------------------------------------------------------------
# Spec validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kwargs", [
    dict(family="X", sign=1, k=0),
    dict(family="V", sign=0, k=0),
    dict(family="V", sign=1, k=-1),
    dict(family="V", sign=1, k=0, m=0),
    dict(family="V", sign=1, k=0, m=2.5),
    dict(family="A", sign=1, k=1, m=3),
    dict(family="C", sign=-1, k=1, m=3),
])
def test_family_spec_rejects_bad_fields(kwargs):
    with pytest.raises(InvalidSpec):
        FamilySpec(**kwargs)


def test_strict_families_accept_unbounded_magnitudes():
    FamilySpec(family="A", sign=1, k=2)
    FamilySpec(family="C", sign=-1, k=2, m=INFINITE)


# ---------------------------------------------------------------------------
# Atoms
# ---------------------------------------------------------------------------

def test_atom_values():
    assert atom("V", 1, 2, 7).coeffs == (0, 0, 1, 0, 2, 0, 3, 0)
    assert atom("V", -1, 2, 7).coeffs == (0, 0, 1, 0, -2, 0, 3, 0)
    assert atom("W", 1, 2, 8).coeffs == (0, 0, 0, 1, 0, 0, 2, 0, 0)
    assert atom("A", 1, 1, 4).coeffs == (0, 1, 2, 3, 4)


@pytest.mark.parametrize("family,exponent", [("V", 3), ("A", 3), ("W", 5), ("C", 5)])
@pytest.mark.parametrize("sign", (1, -1))
def test_atom_matches_rational_closed_form(family, exponent, sign):
    # sum_{t>=1} sign^(t+1) t q^(et) = q^e / (1 - sign q^e)^2
    order = 24
    factor = add(one(order), monomial(-sign, exponent, order))
    closed = mul(monomial(1, exponent, order), invert(mul(factor, factor)))
    assert atom(family, sign, 3, order) == closed
    # The chain DP's cell form: q^e divided twice by (1 - sign q^e).
    q_e = weighted_sum([(exponent, 1, one(order))], order)
    cell = divide_binomial(divide_binomial(q_e, exponent, sign), exponent, sign)
    assert atom(family, sign, 3, order).coeffs == cell.coeffs


def test_atom_validates_index():
    with pytest.raises(InvalidSpec):
        atom("V", 1, 0, 5)


# ---------------------------------------------------------------------------
# Family series: reference prefixes and valuations
# ---------------------------------------------------------------------------

def test_reference_prefixes():
    grid = {
        (1, "V"): (0, 0, 0, 1, 7, 27, 77),
        (-1, "V"): (0, 0, 0, 1, -5, 19, -51),
        (1, "W"): (0, 0, 0, 1, 6, 22, 60),
        (-1, "W"): (0, 0, 0, 1, -6, 22, -60),
    }
    for (sign, family), expected in grid.items():
        series = family_series(FamilySpec(family=family, sign=sign, k=3, m=INFINITE), 6)
        assert series.coeffs == expected


def test_strict_family_prefixes():
    a1 = family_series(FamilySpec(family="A", sign=1, k=1), 12)
    assert a1.coeffs == (0, 1, 3, 4, 7, 6, 12, 8, 15, 13, 18, 12, 28)
    c1 = family_series(FamilySpec(family="C", sign=1, k=1), 12)
    assert c1.coeffs == (0, 1, 2, 4, 4, 6, 8, 8, 8, 13, 12, 12, 16)


def test_zero_chain_is_unit():
    for family in ("A", "C", "V", "W"):
        assert family_series(FamilySpec(family=family, sign=1, k=0), 9) == one(9)


@pytest.mark.parametrize("k", range(7))
def test_weak_family_valuations(k):
    order = 30
    for family in ("V", "W"):
        series = family_series(FamilySpec(family=family, sign=1, k=k, m=INFINITE), order)
        assert (series.valuation() or 0) == k
        assert series.coeffs[k] == 1


@pytest.mark.parametrize("k", range(5))
def test_strict_family_valuations(k):
    order = 30
    a = family_series(FamilySpec(family="A", sign=1, k=k), order)
    assert (a.valuation() or 0) == triangular(k)
    c = family_series(FamilySpec(family="C", sign=1, k=k), order)
    assert (c.valuation() or 0) == k * k


def test_strict_chains_are_subset_of_weak_ones():
    order = 20
    for k in range(4):
        weak = family_series(FamilySpec(family="V", sign=1, k=k, m=INFINITE), order)
        strict = family_series(FamilySpec(family="A", sign=1, k=k), order)
        assert all(s <= w for s, w in zip(strict.coeffs, weak.coeffs))


@pytest.mark.parametrize("k", range(5))
def test_parity_flip_between_signs(k):
    order = 25
    plus = family_series(FamilySpec(family="W", sign=1, k=k, m=INFINITE), order)
    minus = family_series(FamilySpec(family="W", sign=-1, k=k, m=INFINITE), order)
    assert all(minus.coeffs[n] == (-1) ** (n + k) * plus.coeffs[n]
               for n in range(order + 1))


@settings(max_examples=40)
@given(st.sampled_from("VW"), st.integers(0, 4), st.integers(0, 18))
def test_minus_coefficients_bounded_by_plus(family, k, n):
    order = 18
    plus = family_series(FamilySpec(family=family, sign=1, k=k, m=INFINITE), order)
    minus = family_series(FamilySpec(family=family, sign=-1, k=k, m=INFINITE), order)
    assert plus.coeffs[n] >= 0
    assert abs(minus.coeffs[n]) <= plus.coeffs[n]


def test_magnitude_bound_beyond_order_is_immaterial():
    order = 16
    for family in ("V", "W"):
        unbounded = family_series(FamilySpec(family=family, sign=-1, k=2, m=INFINITE), order)
        capped = family_series(FamilySpec(family=family, sign=-1, k=2, m=order + 5), order)
        tight = family_series(FamilySpec(family=family, sign=-1, k=2, m=order), order)
        assert unbounded == capped == tight


def test_bounded_magnitudes_reduce_counts():
    order = 10
    bounded = family_series(FamilySpec(family="V", sign=1, k=2, m=1), order)
    # with a single magnitude the chain is (1,1) with multiplicities t1, t2:
    # coefficient of q^n counts ordered factorizations t1 + t2 = n weighted t1*t2
    expected = [0] * (order + 1)
    for t1 in range(1, order):
        for t2 in range(1, order - t1 + 1):
            expected[t1 + t2] += t1 * t2
    assert bounded.coeffs == tuple(expected)


# ---------------------------------------------------------------------------
# Chain DP tables
# ---------------------------------------------------------------------------

ALL_FAMILIES = pytest.mark.parametrize("family", ("V", "W", "A", "C"))
BOTH_SIGNS = pytest.mark.parametrize("sign", (1, -1))


def _table_coeffs(family, sign, order):
    """The cached (series_by_k, last_row) entry at m = INFINITE as coefficient
    tuples."""
    key = (family, sign, families._m_eff(family, INFINITE, order), order)
    series_by_k, last_row = families._tables[key]
    return [s.coeffs for s in series_by_k], [s.coeffs for s in last_row]


@ALL_FAMILIES
@BOTH_SIGNS
def test_extended_table_matches_fresh_build(monkeypatch, family, sign):
    order = 24
    monkeypatch.setattr(families, "_tables", {})
    for k in (2, 7, order):
        family_series(FamilySpec(family=family, sign=sign, k=k), order)
    extended = _table_coeffs(family, sign, order)
    families._tables.clear()
    family_series(FamilySpec(family=family, sign=sign, k=order), order)
    assert extended == _table_coeffs(family, sign, order)


def _strict_chain_sum(sign, k, n, odd_parts):
    """Coefficient of q^n in the A (or, with odd_parts, C) family: chains
    l_1 < ... < l_k with multiplicities t_i >= 1, weighted
    sign^(t_1+...+t_k+k) * t_1*...*t_k."""
    def walk(k, lo, rem):
        if k == 0:
            return 1 if rem == 0 else 0
        total = 0
        for lam in range(lo, rem + 1):
            part = 2 * lam - 1 if odd_parts else lam
            for t in range(1, rem // part + 1):
                total += sign ** (t + 1) * t * walk(k - 1, lam + 1, rem - part * t)
        return total
    return walk(k, 1, n)


@pytest.mark.parametrize("family,m", [("V", INFINITE), ("V", 3), ("W", INFINITE),
                                      ("W", 3), ("A", INFINITE), ("C", INFINITE)])
@BOTH_SIGNS
def test_dp_rows_match_chain_enumeration(family, m, sign):
    order = 12
    for k in range(4):
        series = family_series(FamilySpec(family=family, sign=sign, k=k, m=m), order)
        if family == "V":
            expected = [v_oracle(sign, k, m, n) for n in range(order + 1)]
        elif family == "W":
            expected = [w_oracle(sign, k, m, n) for n in range(order + 1)]
        else:
            expected = [_strict_chain_sum(sign, k, n, family == "C")
                        for n in range(order + 1)]
        assert series.coeffs == tuple(expected), (family, m, sign, k)


@pytest.mark.parametrize("family,cells", [("V", 820), ("W", 420), ("A", 236), ("C", 94)])
@BOTH_SIGNS
def test_cold_dp_skips_cells_beyond_the_order(monkeypatch, family, cells, sign):
    # A cell atom(n) * S_{i-1} with e(n) + _min_valuation(i-1) > order is
    # zero at the truncation and must not be computed; every computed cell
    # divides by (1 - sign*q^e) twice (1640/840/472/188 divisions).
    calls = []

    def counting_divide_binomial(a, x, c):
        calls.append(None)
        return divide_binomial(a, x, c)

    monkeypatch.setattr(families, "_tables", {})
    monkeypatch.setattr(families, "divide_binomial", counting_divide_binomial)
    family_series(FamilySpec(family=family, sign=sign, k=40), 40)
    assert len(calls) == 2 * cells


# ---------------------------------------------------------------------------
# Inverse-weight coefficients
# ---------------------------------------------------------------------------

def test_b_coefficient_reference_values():
    assert b_coefficient(0, 0) == 1
    assert [b_coefficient(k, 0) for k in range(1, 6)] == [2, 2, 2, 2, 2]
    assert [b_coefficient(k, 1) for k in range(6)] == [0, 1, 4, 9, 16, 25]
    assert b_coefficient(2, 3) == 0


def test_b_coefficient_matches_extraction_oracle():
    for k in range(12):
        for j in range(12):
            assert b_coefficient(k, j) == b_extraction(k, j)


def test_b_coefficient_rejects_negative_indices():
    with pytest.raises(ValueError):
        b_coefficient(-1, 0)
    with pytest.raises(ValueError):
        b_coefficient(0, -1)


# ---------------------------------------------------------------------------
# Weighted combinations and reconstruction
# ---------------------------------------------------------------------------

def test_binomial_combination_matches_manual_sum():
    order = 14
    for family, sign, k, m in [("V", 1, 1, 2), ("W", -1, 0, 3), ("V", -1, 2, INFINITE)]:
        acc = zero(order)
        for j in range(k, order + 1):
            weight = (-sign) ** (j - k) * comb(2 * j, j - k)
            acc = add(acc, scale(weight, family_series(
                FamilySpec(family=family, sign=sign, k=j, m=m), order)))
        assert binomial_combination(family, sign, k, m, order) == acc


def test_binomial_combination_rejects_strict_families():
    with pytest.raises(InvalidSpec):
        binomial_combination("A", 1, 0, INFINITE, 8)


def test_binomial_combination_beyond_order_is_zero():
    assert binomial_combination("V", 1, 9, 2, 8).is_zero()


@pytest.mark.parametrize("family", ("V", "W"))
@pytest.mark.parametrize("sign", (1, -1))
def test_reconstruction_round_trip(family, sign):
    order = 15
    for j, m in [(0, 1), (1, 2), (2, 3)]:
        direct = family_series(FamilySpec(family=family, sign=sign, k=j, m=m), order)
        rebuilt = reconstruct_family(family, sign, j, m, order)
        assert direct == rebuilt


def test_reconstruction_requires_finite_bound():
    with pytest.raises(InvalidSpec):
        reconstruct_family("V", 1, 0, INFINITE, 8)
    with pytest.raises(InvalidSpec):
        reconstruct_family("A", 1, 0, 3, 8)


# ---------------------------------------------------------------------------
# Concurrency
# ---------------------------------------------------------------------------

def test_family_tables_are_thread_safe():
    order = 40
    spec = FamilySpec(family="V", sign=1, k=5, m=INFINITE)
    expected = family_series(spec, order)
    results = [None] * 8

    def worker(slot):
        results[slot] = family_series(spec, order)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r == expected for r in results)
