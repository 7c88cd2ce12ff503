"""Family series: chain DP against closed atom forms, valuations, parity,
inverse-weight coefficients, and the two reconstruction directions."""

import sys
import threading
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qident import families, series
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
    chain_sums,
    chain_width,
    invert,
    monomial,
    mul,
    one,
    scale,
    weighted_sum,
    zero,
)


def _valuation(s):
    """Smallest exponent with a nonzero coefficient, or None if s is zero."""
    return next((n for n, c in enumerate(s.coeffs) if c), None)


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
    # The cell form: q^e divided twice by (1 - sign q^e).
    q_e = weighted_sum([(exponent, 1, one(order))], order)
    cell = mul(mul(q_e, invert(factor)), invert(factor))
    assert atom(family, sign, 3, order).coeffs == cell.coeffs
    # The chain-sum kernel over this one exponent: S_1 is the atom itself.
    sums = chain_sums([exponent], sign, False, 1, order, chain_width(False, order))
    assert sums[1] == atom(family, sign, 3, order)


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
        assert (_valuation(series) or 0) == k
        assert series.coeffs[k] == 1


@pytest.mark.parametrize("k", range(5))
def test_strict_family_valuations(k):
    order = 30
    a = family_series(FamilySpec(family="A", sign=1, k=k), order)
    assert (_valuation(a) or 0) == triangular(k)
    c = family_series(FamilySpec(family="C", sign=1, k=k), order)
    assert (_valuation(c) or 0) == k * k


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
    """The cached (series_by_k, width) entry at m = INFINITE, with the
    series as coefficient tuples."""
    key = (family, sign, families._m_eff(family, INFINITE, order), order)
    series_by_k, width = families._tables[key]
    return [s.coeffs for s in series_by_k], width


def _last_visible_row(family, order):
    """The largest k whose k-chains can reach q^order: order for V and W,
    6 (A) and 4 (C) at order 24, 8 (A) and 6 (C) at order 40."""
    return max(k for k in range(order + 1) if families._min_valuation(family, k) <= order)


@ALL_FAMILIES
@BOTH_SIGNS
def test_extended_table_matches_fresh_build(monkeypatch, family, sign):
    # each larger k rebuilds the table to that k with the key's width
    order = 24
    last = _last_visible_row(family, order)
    monkeypatch.setattr(families, "_tables", {})
    for k in (2, min(7, last - 1), last):
        family_series(FamilySpec(family=family, sign=sign, k=k), order)
    extended = _table_coeffs(family, sign, order)
    assert len(extended[0]) == last + 1
    families._tables.clear()
    family_series(FamilySpec(family=family, sign=sign, k=last), order)
    assert extended == _table_coeffs(family, sign, order)


@ALL_FAMILIES
def test_smaller_k_reads_the_table_without_a_rebuild(monkeypatch, family):
    order = 24
    last = _last_visible_row(family, order)
    key = (family, -1, families._m_eff(family, INFINITE, order), order)
    monkeypatch.setattr(families, "_tables", {})
    top = family_series(FamilySpec(family=family, sign=-1, k=last), order)
    entry = families._tables[key]
    assert family_series(FamilySpec(family=family, sign=-1, k=1), order) is entry[0][1]
    assert families._tables[key] is entry and entry[0][last] is top


def test_invisible_chain_rows_build_no_table_rows(monkeypatch):
    # V_k has valuation k, so at order 20 every k > 20 is zero there and
    # must not fill the (V, 1, 20, 20) table with zero rows up to k
    monkeypatch.setattr(families, "_tables", {})
    assert family_series(FamilySpec("V", 1, 10 ** 5), 20).coeffs == zero(20).coeffs
    series_by_k, _ = families._tables.get(("V", 1, 20, 20), ([], 0))
    assert len(series_by_k) <= 21


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


def _count_sweeps(monkeypatch):
    """Empty the tables and record the width of every _chain_sweep call."""
    widths = []
    sweep = series._chain_sweep

    def counting_sweep(exponents, c, strict, width, mask, order):
        widths.append(width)
        return sweep(exponents, c, strict, width, mask, order)

    monkeypatch.setattr(families, "_tables", {})
    monkeypatch.setattr(series, "_chain_sweep", counting_sweep)
    return widths


@pytest.mark.parametrize("family", ("V", "W"))
@pytest.mark.parametrize("m", (3, INFINITE))
@BOTH_SIGNS
def test_cold_binomial_combination_sweeps_once(monkeypatch, family, m, sign):
    # binomial_combination reads F_{j,m} for j = k..order in one _rows call,
    # which builds the table once to top = order in one value sweep, at the
    # closed-form width: no width sweep runs first
    widths = _count_sweeps(monkeypatch)
    binomial_combination(family, sign, 1, m, 40)
    assert widths == [chain_width(False, 40)]


def test_each_sign_builds_its_table_in_one_sweep(monkeypatch):
    widths = _count_sweeps(monkeypatch)
    for sign in (-1, 1):
        family_series(FamilySpec(family="W", sign=sign, k=3), 30)
    assert widths == [chain_width(False, 30)] * 2


class _KeyLog(dict):
    """A table dict that records the key of every read and write."""

    def __init__(self):
        super().__init__()
        self.keys = []

    def get(self, key, default=None):
        self.keys.append(key)
        return super().get(key, default)

    def __getitem__(self, key):
        self.keys.append(key)
        return super().__getitem__(key)

    def __setitem__(self, key, value):
        self.keys.append(key)
        super().__setitem__(key, value)


@ALL_FAMILIES
def test_rows_touch_only_their_own_table(monkeypatch, family):
    # no table borrows anything from another key, its other-sign twin
    # included: each sign reads and writes its own entry alone
    monkeypatch.setattr(families, "_tables", _KeyLog())
    order = 20
    for sign, k in ((1, 2), (-1, 2), (-1, 3), (1, 1)):
        families._tables.keys.clear()
        family_series(FamilySpec(family=family, sign=sign, k=k), order)
        key = (family, sign, families._m_eff(family, INFINITE, order), order)
        assert set(families._tables.keys) == {key}


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
    assert binomial_combination("V", 1, 9, 2, 8) == zero(8)


@pytest.mark.parametrize("family", ("V", "W"))
@pytest.mark.parametrize("sign", (1, -1))
def test_reconstruction_round_trip(family, sign):
    order = 15
    for j, m in [(0, 1), (1, 2), (2, 3), (0, INFINITE), (2, INFINITE)]:
        direct = family_series(FamilySpec(family=family, sign=sign, k=j, m=m), order)
        rebuilt = reconstruct_family(family, sign, j, m, order)
        assert direct == rebuilt


def test_reconstruction_rejects_strict_families():
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


@pytest.mark.parametrize("family", ("V", "C"))
def test_concurrent_rebuilds_match_fresh_builds(monkeypatch, family):
    # eight threads ask one cold key for k = 2, 7 (5 for C, whose last
    # visible row at order 40 is 6) and the last visible row at once, so
    # some requests rebuild a table that others have just built; a ninth
    # reads every row of the cold (V, -1, 40, 40) table for a binomial
    # combination, beside them for V and on a key of its own for C
    order = 40
    last = _last_visible_row(family, order)
    ks = [(2, min(7, last - 1), last)[i % 3] for i in range(8)]
    monkeypatch.setattr(families, "_tables", {})
    fresh = {}
    for k in sorted(set(ks)):
        families._tables.clear()
        fresh[k] = family_series(FamilySpec(family=family, sign=-1, k=k), order)
    fresh_table = _table_coeffs(family, -1, order)  # built to k = last
    families._tables.clear()
    fresh_combination = binomial_combination("V", -1, 1, INFINITE, order)
    families._tables.clear()
    results = [None] * 9
    start = threading.Barrier(9, timeout=60)

    def worker(slot):
        start.wait()
        if slot == 8:
            results[slot] = binomial_combination("V", -1, 1, INFINITE, order)
        else:
            results[slot] = family_series(FamilySpec(family=family, sign=-1, k=ks[slot]),
                                          order)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(9)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [fresh[k] for k in ks] + [fresh_combination]
    assert _table_coeffs(family, -1, order) == fresh_table
