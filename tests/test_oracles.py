"""Brute-force ground truth: partition enumeration, weighted chain sums,
overpartition/bipartition counts, divisor sums, and the coefficient
extraction behind the inverse weights."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qident.identities import _ORACLE_CAP
from qident.oracles import (
    CHAIN_ORACLE_CAP,
    PAIR_COUNT_CAP,
    DomainError,
    b_extraction,
    divisor_sigma,
    overpartition_pairs,
    partition_count,
    partitions,
    pod_bipartitions,
    triangular,
    v_oracle,
    w_oracle,
)
from qident.qtools import INFINITE

# ---------------------------------------------------------------------------
# Plain partitions
# ---------------------------------------------------------------------------

def test_partitions_of_zero_and_small_n():
    assert list(partitions(0)) == [[]]
    parts4 = [list(p) for p in partitions(4)]
    assert len(parts4) == 5
    assert all(sum(p) == 4 for p in parts4)
    assert all(p == sorted(p) for p in parts4)
    assert sorted(parts4) == [[1, 1, 1, 1], [1, 1, 2], [1, 3], [2, 2], [4]]


def test_partitions_rejects_negative():
    with pytest.raises(DomainError):
        list(partitions(-1))


@pytest.mark.parametrize("n", range(0, 26))
def test_partition_count_matches_enumeration(n):
    assert partition_count(n) == sum(1 for _ in partitions(n))


def test_partition_count_classics():
    assert partition_count(50) == 204226
    assert partition_count(100) == 190569292
    assert partition_count(-3) == 0


# ---------------------------------------------------------------------------
# Weighted chain sums
# ---------------------------------------------------------------------------

def test_reference_chain_values():
    assert v_oracle(1, 3, INFINITE, 5) == 27
    assert v_oracle(-1, 3, INFINITE, 5) == 19
    assert w_oracle(1, 3, INFINITE, 5) == 22
    assert w_oracle(-1, 3, INFINITE, 5) == 22


def test_single_magnitude_odd_chain():
    # one odd part magnitude: sum over odd d | n of n/d
    assert [w_oracle(1, 1, INFINITE, n) for n in range(8)] == [0, 1, 2, 4, 4, 6, 8, 8]


def test_empty_chain():
    assert v_oracle(1, 0, INFINITE, 0) == 1
    assert v_oracle(-1, 0, 3, 0) == 1
    assert v_oracle(1, 0, INFINITE, 4) == 0
    assert w_oracle(1, 0, INFINITE, 2) == 0


def test_chain_below_minimal_weight_is_zero():
    # k magnitudes need at least k (linear) since every part is >= 1
    assert v_oracle(1, 4, INFINITE, 3) == 0
    assert w_oracle(-1, 3, INFINITE, 2) == 0


def test_bounded_magnitudes():
    # m=1 pins both magnitudes at 1: weight sum over t1 + t2 = n of t1*t2
    for n in range(2, 9):
        expected = sum(t1 * (n - t1) for t1 in range(1, n))
        assert v_oracle(1, 2, 1, n) == expected


def test_chain_oracle_validates_arguments():
    with pytest.raises(DomainError):
        v_oracle(0, 1, INFINITE, 3)
    with pytest.raises(DomainError):
        v_oracle(1, -1, INFINITE, 3)
    with pytest.raises(DomainError):
        w_oracle(1, 1, INFINITE, -2)


def test_chain_oracles_reject_targets_above_the_cap():
    assert CHAIN_ORACLE_CAP == 24
    # ORACLE_V/ORACLE_W enumerate q^0.._ORACLE_CAP and must stay below it.
    assert CHAIN_ORACLE_CAP >= _ORACLE_CAP
    for oracle in (v_oracle, w_oracle):
        assert oracle(1, 2, INFINITE, CHAIN_ORACLE_CAP) > 0
        with pytest.raises(DomainError, match="above 24"):
            oracle(1, 2, INFINITE, CHAIN_ORACLE_CAP + 1)


# ---------------------------------------------------------------------------
# Overpartition pairs and restricted bipartitions
# ---------------------------------------------------------------------------

def test_overpartition_pair_prefix():
    assert [overpartition_pairs(n) for n in range(6)] == [1, 4, 12, 32, 76, 168]


def test_pod_bipartition_prefix():
    assert [pod_bipartitions(n) for n in range(9)] == [1, 2, 3, 6, 11, 18, 28, 44, 69]


def test_pair_counts_reject_negative():
    with pytest.raises(DomainError):
        overpartition_pairs(-1)
    with pytest.raises(DomainError):
        pod_bipartitions(-1)


def test_pair_counts_reject_targets_above_the_cap():
    assert PAIR_COUNT_CAP == 50
    with pytest.raises(DomainError):
        overpartition_pairs(PAIR_COUNT_CAP + 1)
    with pytest.raises(DomainError):
        pod_bipartitions(PAIR_COUNT_CAP + 1)


@given(st.integers(0, 14))
def test_overpartition_pairs_strictly_increase(n):
    # appending a plain part 1 to the first component is injective
    assert overpartition_pairs(n + 1) > overpartition_pairs(n)


@given(st.integers(0, 14))
def test_pod_bipartitions_increase_by_even_step(n):
    # appending an even part 2 to the first component is injective
    assert pod_bipartitions(n + 2) > pod_bipartitions(n)


# ---------------------------------------------------------------------------
# Divisor sums and triangular numbers
# ---------------------------------------------------------------------------

def test_divisor_sigma_values():
    assert divisor_sigma(1) == 1
    assert divisor_sigma(6) == 12
    assert divisor_sigma(12) == 28
    assert [divisor_sigma(p) for p in (2, 3, 5, 7, 11)] == [3, 4, 6, 8, 12]


def test_divisor_sigma_rejects_nonpositive():
    with pytest.raises(DomainError):
        divisor_sigma(0)
    with pytest.raises(DomainError):
        divisor_sigma(-6)


@given(st.integers(1, 400))
def test_divisor_sigma_matches_naive_sum(n):
    assert divisor_sigma(n) == sum(d for d in range(1, n + 1) if n % d == 0)


def test_triangular_values():
    assert [triangular(n) for n in range(-1, 6)] == [0, 0, 1, 3, 6, 10, 15]
    with pytest.raises(DomainError):
        triangular(-2)


# ---------------------------------------------------------------------------
# Inverse-weight extraction
# ---------------------------------------------------------------------------

def test_b_extraction_reference_values():
    assert b_extraction(0, 0) == 1
    assert [b_extraction(k, 0) for k in range(1, 5)] == [2, 2, 2, 2]
    assert [b_extraction(k, 1) for k in range(5)] == [0, 1, 4, 9, 16]
    assert b_extraction(1, 2) == 0


def test_b_extraction_rejects_negative_indices():
    with pytest.raises(DomainError):
        b_extraction(-1, 0)
    with pytest.raises(DomainError):
        b_extraction(0, -1)
