"""Independent brute-force enumerations used as ground truth.

Nothing in this module touches series arithmetic: every function counts
or sums over explicitly enumerated combinatorial objects (chains of part
magnitudes with multiplicities, plain partitions, divisors), so the
results are an independent check on the generating-function machinery.

The chain oracles enumerate terms (lambda_1 <= ... <= lambda_k with
multiplicities t_1..t_k >= 1) directly from the defining sums; terms with
any t_i = 0 would carry weight 0, so restricting to t_i >= 1 is an
optimization, not a semantic choice.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, List, Union

from .qtools import INFINITE


class DomainError(ValueError):
    """Raised when an argument is outside a function's domain."""


# ---------------------------------------------------------------------------
# Plain partitions
# ---------------------------------------------------------------------------

def partitions(n: int) -> Iterator[List[int]]:
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


@lru_cache(maxsize=None)
def partition_count(n: int) -> int:
    """p(n) by the pentagonal-number recurrence (fast enough for n ~ 10^3).

    p(n) = sum_{g>=1} (-1)^(g+1) * [p(n - g(3g-1)/2) + p(n - g(3g+1)/2)].
    """
    if n < 0:
        return 0
    if n == 0:
        return 1
    total = 0
    g = 1
    while True:
        p1 = g * (3 * g - 1) // 2
        if p1 > n:
            break
        sign = 1 if g % 2 == 1 else -1
        total += sign * partition_count(n - p1)
        p2 = g * (3 * g + 1) // 2
        if p2 <= n:
            total += sign * partition_count(n - p2)
        g += 1
    return total


# ---------------------------------------------------------------------------
# Weighted chain oracles
# ---------------------------------------------------------------------------

#: Largest target n the chain sums accept.  Their cost peaks at k near
#: n/2 and grows about 3.5x every 2 steps: at n = 24 the slowest k takes
#: about 3.0 s (v_oracle, k = 12) and 2.3 s (w_oracle, k = 13), at n = 26
#: about 10.5 s and 8.8 s (Python 3.11, Xeon).  Larger n raise DomainError
#: instead of running for minutes.  The ORACLE_V/ORACLE_W checks enumerate
#: only up to q^15, below the cap.
CHAIN_ORACLE_CAP = 24


def _chain_sum(
    sign: int, k: int, m: Union[int, float], n: int, odd_parts: bool
) -> int:
    """Signed weighted count over chains lambda_1 <= ... <= lambda_k <= m.

    Each position i carries a part lambda_i (odd_parts: the actual part is
    2*lambda_i - 1) with multiplicity t_i >= 1; the chain contributes
    sign^(t_1+...+t_k+k) * t_1*...*t_k when the parts weighted by their
    multiplicities sum to n.
    """
    if sign not in (1, -1):
        raise DomainError(f"sign must be +1 or -1, got {sign}")
    if k < 0:
        raise DomainError(f"k must be non-negative, got {k}")
    if n < 0:
        raise DomainError(f"target must be non-negative, got {n}")
    if n > CHAIN_ORACLE_CAP:
        raise DomainError(
            f"target {n} is above {CHAIN_ORACLE_CAP}, the largest n the "
            "brute-force chain sums enumerate"
        )
    if k == 0:
        return 1 if n == 0 else 0

    total = 0

    def recurse(pos: int, lo: int, rem: int, prod: int, t_sum: int) -> None:
        nonlocal total
        positions_left = k - pos  # including this one
        lam = lo
        while True:
            part = 2 * lam - 1 if odd_parts else lam
            # this magnitude once, plus at least `part` for each later slot
            # (later magnitudes are >= lam, so their parts are >= part)
            if part * positions_left > rem:
                break
            if m != INFINITE and lam > m:
                break
            t = 1
            while part * t + part * (positions_left - 1) <= rem:
                used = rem - part * t
                if pos == k - 1:
                    if used == 0:
                        total += sign ** (t_sum + t + k) * prod * t
                else:
                    recurse(pos + 1, lam, used, prod * t, t_sum + t)
                t += 1
            lam += 1

    recurse(0, 1, n, 1, 0)
    return total


def v_oracle(sign: int, k: int, m: Union[int, float], n: int) -> int:
    """The linear-parts chain sum: weighted count over weak chains of
    k magnitudes <= m with part*multiplicity totals equal to n, for
    0 <= n <= CHAIN_ORACLE_CAP."""
    return _chain_sum(sign, k, m, n, odd_parts=False)


def w_oracle(sign: int, k: int, m: Union[int, float], n: int) -> int:
    """The odd-parts chain sum: as v_oracle but position i contributes the
    part 2*lambda_i - 1."""
    return _chain_sum(sign, k, m, n, odd_parts=True)


# ---------------------------------------------------------------------------
# Overpartition pairs and distinct-odd-part bipartitions
# ---------------------------------------------------------------------------

#: Largest n the pair counts accept.  Both enumerate every partition of
#: every size up to n, and their cost grows about 3x every 5 steps: at
#: n = 40 / 50 overpartition_pairs takes about 0.3 / 0.8 s and
#: pod_bipartitions 0.3 / 1.7 s (Python 3.11, Xeon), so n = 70 would take
#: minutes.  Larger n raise DomainError instead of hanging.
PAIR_COUNT_CAP = 50


def _check_pair_target(n: int) -> None:
    """Reject a pair-count target outside 0..PAIR_COUNT_CAP."""
    if n < 0:
        raise DomainError(f"target must be non-negative, got {n}")
    if n > PAIR_COUNT_CAP:
        raise DomainError(
            f"target {n} is above {PAIR_COUNT_CAP}, the largest n the "
            "brute-force pair counts enumerate"
        )


@lru_cache(maxsize=None)
def _overpartition_single(n: int) -> int:
    """Number of overpartitions of n: each plain partition counts with
    weight 2^(number of distinct part sizes) - the overlined subset of
    part sizes is free."""
    total = 0
    for p in partitions(n):
        total += 1 << len(set(p))
    return total


def overpartition_pairs(n: int) -> int:
    """Number of ordered pairs of overpartitions with sizes summing to n,
    for 0 <= n <= PAIR_COUNT_CAP."""
    _check_pair_target(n)
    return sum(_overpartition_single(j) * _overpartition_single(n - j) for j in range(n + 1))


@lru_cache(maxsize=None)
def _pod_single(n: int) -> int:
    """Number of partitions of n with no repeated odd part (even parts free)."""
    total = 0
    for p in partitions(n):
        odd = [x for x in p if x % 2 == 1]
        if len(odd) == len(set(odd)):
            total += 1
    return total


def pod_bipartitions(n: int) -> int:
    """Number of ordered bipartitions of n, each component with distinct
    odd parts and unrestricted even parts, for 0 <= n <= PAIR_COUNT_CAP."""
    _check_pair_target(n)
    return sum(_pod_single(j) * _pod_single(n - j) for j in range(n + 1))


# ---------------------------------------------------------------------------
# Arithmetic helpers
# ---------------------------------------------------------------------------

def divisor_sigma(n: int) -> int:
    """Sum of the divisors of n, by trial division up to sqrt(n)."""
    if n <= 0:
        raise DomainError(f"divisor sum needs a positive integer, got {n}")
    total = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            total += d
            if d != n // d:
                total += n // d
        d += 1
    return total


def triangular(n: int) -> int:
    """The triangular number n(n+1)/2.

    Accepts n >= -1: the n = -1 value is 0 (the natural value of the
    formula), which the k = 0 edge of the positivity predicates needs.
    """
    if n < -1:
        raise DomainError(f"triangular index must be >= -1, got {n}")
    return n * (n + 1) // 2


def b_extraction(k: int, j: int) -> int:
    """Coefficient of z^(2j) in (2 + z)*(1 + z)^(j+k-1), by literal
    convolution of coefficient lists.

    The (k, j) = (0, 0) cell has exponent -1 and is fixed by direct
    inspection to 1; every other cell is a plain polynomial coefficient
    (0 whenever 2j exceeds the degree j+k, which covers k < j).
    """
    if k < 0 or j < 0:
        raise DomainError(f"indices must be non-negative, got k={k}, j={j}")
    if k == 0 and j == 0:
        return 1
    power = [1]
    for _ in range(j + k - 1):
        power = [
            (power[i] if i < len(power) else 0)
            + (power[i - 1] if 0 <= i - 1 < len(power) else 0)
            for i in range(len(power) + 1)
        ]
    poly = [2 * c for c in power] + [0]
    for i, c in enumerate(power):
        poly[i + 1] += c
    return poly[2 * j] if 2 * j < len(poly) else 0
