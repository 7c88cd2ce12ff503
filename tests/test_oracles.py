"""Brute-force ground truth: partition enumeration, weighted chain sums,
overpartition/bipartition counts, divisor sums, and the coefficient
extraction behind the inverse weights.  The plain partition generator
lives here, as the reference the pair counts' recursion is checked
against."""

import sys
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qident import oracles
from qident.identities import _ORACLE_CAP
from qident.oracles import (
    CHAIN_ORACLE_CAP,
    PAIR_COUNT_CAP,
    DomainError,
    _overpartition_single,
    _pod_single,
    b_extraction,
    divisor_sigma,
    overpartition_pairs,
    partition_count,
    pod_bipartitions,
    triangular,
    v_oracle,
    w_oracle,
)
from qident.qtools import INFINITE, pochhammer
from qident.series import invert

# ---------------------------------------------------------------------------
# Plain partitions
# ---------------------------------------------------------------------------

def partitions(n):
    """Yield every partition of n as an ascending list of parts.

    Kelleher-O'Sullivan accelerated ascending composition generator;
    yields the empty list for n = 0.
    """
    if n < 0:
        raise DomainError(f"cannot partition a negative integer: {n}")
    if n == 0:
        yield []
        return
    a = [0] * (n + 1)
    k = 1
    y = n - 1
    while k != 0:
        x = a[k - 1] + 1
        k -= 1
        while 2 * x <= y:
            a[k] = x
            y -= x
            k += 1
        ell = k + 1
        while x <= y:
            a[k] = x
            a[ell] = y
            yield a[: k + 2]
            x += 1
            y -= 1
        a[k] = x + y
        y = x + y - 1
        yield a[: k + 1]


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


def test_partition_count_classics(monkeypatch):
    # from an empty table, n = 1500 is built bottom up, with no recursion,
    # and p(0..1500) are the coefficients of 1/(q;q)_inf
    monkeypatch.setattr(oracles, "_partitions", [1])
    deep = partition_count(1500)
    inverse = invert(pochhammer(1, 1, 1, INFINITE, 1500))
    assert inverse.coeffs == tuple(map(partition_count, range(1501)))
    assert deep == inverse.coeffs[1500]
    assert partition_count(1000) == 24061467864032622473692149727991
    assert partition_count(50) == 204226
    assert partition_count(100) == 190569292
    assert partition_count(-3) == 0
    for bad in (2.5, 5.0, True):
        with pytest.raises(DomainError, match=f"^n must be an integer, got {bad!r}$"):
            partition_count(bad)


def test_partition_count_is_safe_to_share_between_threads(monkeypatch):
    # the table is extended on a copy and published whole: eight threads
    # growing it from p(0) alone, each through every eighth n up to 600,
    # read the values one thread computes; a race shows only in some
    # interleavings, so the run is repeated from the bare table
    monkeypatch.setattr(oracles, "_partitions", [1])
    want = [partition_count(n) for n in range(601)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            monkeypatch.setattr(oracles, "_partitions", [1])
            results = [None] * 8
            start = threading.Barrier(8, timeout=60)

            def worker(slot):
                start.wait()
                results[slot] = [partition_count(n) for n in range(slot, 601, 8)]

            threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert results == [want[slot::8] for slot in range(8)]
            # the last table published may be a shorter one, never a wrong one
            table = oracles._partitions
            assert table == want[: len(table)]
    finally:
        sys.setswitchinterval(interval)


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
    for oracle, args in [
        (v_oracle, (0, 1, INFINITE, 3)),
        (v_oracle, (1, -1, INFINITE, 3)),
        (w_oracle, (1, 1, INFINITE, -2)),
        # a float or a bool is no integer, even where it equals one
        (v_oracle, (1, 2.0, INFINITE, 5)),
        (v_oracle, (1.0, 2, INFINITE, 5)),
        (v_oracle, (True, 2, INFINITE, 5)),
        (v_oracle, (1, 2, INFINITE, 5.0)),
        # m is an int >= 1 or INFINITE, as FamilySpec takes it
        (w_oracle, (1, 2, 2.5, 7)),
        (v_oracle, (1, 2, True, 5)),
        (v_oracle, (1, 2, 0, 5)),
        (v_oracle, (1, 2, -3, 5)),
        (v_oracle, (1, 2, -INFINITE, 5)),
    ]:
        with pytest.raises(DomainError):
            oracle(*args)


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


def test_single_counts_match_the_filtered_partitions():
    # the reference enumerates every plain partition and filters it: an
    # overpartition overlines any subset of the distinct part sizes, and
    # a pod partition repeats no odd part
    for n in range(41):
        overpartitions = pods = 0
        for p in partitions(n):
            overpartitions += 1 << len(set(p))
            odd = [x for x in p if x % 2 == 1]
            pods += len(odd) == len(set(odd))
        assert _overpartition_single(n) == overpartitions, n
        assert _pod_single(n) == pods, n


def test_pair_counts_reject_negative():
    # and any target that is no int: a float or a bool
    for n in (-1, 3.0, True):
        with pytest.raises(DomainError):
            overpartition_pairs(n)
        with pytest.raises(DomainError):
            pod_bipartitions(n)


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
    for n in (0, -6, 6.0, True):
        with pytest.raises(DomainError, match=f"^divisor sum needs a positive integer, got {n}$"):
            divisor_sigma(n)


@given(st.integers(1, 400))
def test_divisor_sigma_matches_naive_sum(n):
    assert divisor_sigma(n) == sum(d for d in range(1, n + 1) if n % d == 0)


def test_triangular_values():
    assert [triangular(n) for n in range(-1, 6)] == [0, 0, 1, 3, 6, 10, 15]
    for n in (-2, 1.5, True):
        with pytest.raises(DomainError):
            triangular(n)


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
    with pytest.raises(DomainError):
        b_extraction(1.0, 0)
    with pytest.raises(DomainError):
        b_extraction(0, True)
