"""Independent brute-force enumerations used as ground truth.

Nothing in this module touches series arithmetic: every function counts
or sums over explicitly enumerated combinatorial objects (chains of part
magnitudes with multiplicities, partitions built part size by part size,
divisors), so the results are an independent check on the
generating-function machinery.

The chain oracles enumerate terms (lambda_1 <= ... <= lambda_k with
multiplicities t_1..t_k >= 1) directly from the defining sums; terms with
any t_i = 0 would carry weight 0, so restricting to t_i >= 1 is an
optimization, not a semantic choice.  The pair counts enumerate each
partition they count once, choosing the multiplicity of each part size
from the largest size down, so a partition that the count excludes is
never built.
It imports nothing from the engine, so it checks its own arguments, with
its own ``_check_int``, and raises DomainError: an argument must be an
int (a float or a bool is rejected) in the function's range.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Union


class DomainError(ValueError):
    """Raised when an argument is outside a function's domain."""


def _check_int(name: str, value: object, low: float = 0) -> None:
    """Raise DomainError, naming the argument, unless value is an int >= low
    (a bool is rejected): the twin of series._check_int."""
    if type(value) is not int:
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise DomainError(f"{name} must be non-negative, got {value}" if low == 0
                          else f"{name} must be >= {low}, got {value}")


def _check_target(n: object, cap: int, counted: str) -> None:
    """Raise DomainError unless 0 <= n <= cap, the largest target whose
    brute-force count is quick."""
    _check_int("target", n)
    if n > cap:
        raise DomainError(
            f"target {n} is above {cap}, the largest n the brute-force {counted} enumerate")


# ---------------------------------------------------------------------------
# Plain partitions
# ---------------------------------------------------------------------------

#: p(0), p(1), ... as far as any call of partition_count has needed them.
_partitions = [1]


def partition_count(n: int) -> int:
    """p(n) by the pentagonal-number recurrence, 0 for n < 0.

    p(t) = sum_{g>=1} (-1)^(g+1) * [p(t - g(3g-1)/2) + p(t - g(3g+1)/2)].
    p(0..n) are built bottom up, without recursion, and kept: a call
    costs O(n^1.5) additions the first time it reaches past the kept
    table.  The table is extended on a copy and published whole, so a
    concurrent call sees the old table or the new one.
    """
    global _partitions
    _check_int("n", n, -math.inf)
    p = _partitions
    if n >= len(p):
        p = p.copy()
        for t in range(len(p), n + 1):
            total, g, first = 0, 1, 1  # first = g(3g-1)/2
            while first <= t:
                pair = p[t - first] + (p[t - first - g] if first + g <= t else 0)
                total += pair if g % 2 else -pair
                g += 1
                first += 3 * g - 2
            p.append(total)
        _partitions = p
    return p[n] if n >= 0 else 0


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
    """Signed weighted count over chains lambda_1 <= ... <= lambda_k <= m (m may be inf).

    Each position i carries a part lambda_i (odd_parts: the actual part is
    2*lambda_i - 1) with multiplicity t_i >= 1; the chain contributes
    sign^(t_1+...+t_k+k) * t_1*...*t_k when the parts weighted by their
    multiplicities sum to n.
    """
    if type(sign) is not int or sign not in (1, -1):
        raise DomainError(f"sign must be +1 or -1, got {sign!r}")
    _check_int("k", k)
    if m != math.inf:
        _check_int("m", m, 1)
    _check_target(n, CHAIN_ORACLE_CAP, "chain sums")
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
            if lam > m:
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

#: Largest n the pair counts accept.  Both enumerate every partition they
#: count of every size up to n, and their cost grows about 2.4x every 5
#: steps near the cap: at n = 40 / 50 overpartition_pairs takes about
#: 0.05 / 0.3 s and pod_bipartitions 0.03 / 0.16 s (Python 3.11, Xeon),
#: and the same enumeration to n = 70 takes about 8 s and 3 s.  Larger n
#: raise DomainError instead of running for seconds.
PAIR_COUNT_CAP = 50


def _ordered_pairs(single: Callable[[int], int], n: int) -> int:
    """sum_j single(j) * single(n - j): the ordered pairs of objects counted
    by single with sizes summing to n, for 0 <= n <= PAIR_COUNT_CAP."""
    _check_target(n, PAIR_COUNT_CAP, "pair counts")
    return sum(single(j) * single(n - j) for j in range(n + 1))


def _weighted_partitions(n: int, odd_once: bool, weight: int) -> int:
    """Sum of weight^(number of distinct part sizes) over the partitions of
    n, only those with no repeated odd part when odd_once.

    A recursion over part sizes, largest first: place(rem, below, w) picks
    the multiplicity of each size 2 <= size < below that fits in rem and
    recurses on what is left with the sizes below it, w carrying the weight
    of the sizes already used.  Each counted partition is one leaf, one
    addition to the total; the parts 1 that end a partition are counted
    where they would be placed, without a further call.
    """
    if n == 0:
        return 1
    total = 0
    many_ones = not odd_once  # whether a part 1 may repeat

    def place(rem: int, below: int, w: int) -> None:
        nonlocal total
        w *= weight
        if many_ones or rem == 1:  # all of rem in parts 1
            total += w
        for size in range(min(rem, below - 1), 1, -1):
            most = 1 if odd_once and size % 2 else rem // size
            for left in range(rem - size, rem - most * size - 1, -size):
                if left == 0:
                    total += w
                elif size > 2:
                    place(left, size, w)
                elif many_ones or left == 1:  # the rest in parts 1
                    total += w * weight

    place(n, n + 1, 1)
    return total


@lru_cache(maxsize=None)
def _overpartition_single(n: int) -> int:
    """Number of overpartitions of n: each plain partition counts with
    weight 2^(number of distinct part sizes) - the overlined subset of
    part sizes is free."""
    return _weighted_partitions(n, odd_once=False, weight=2)


def overpartition_pairs(n: int) -> int:
    """Number of ordered pairs of overpartitions with sizes summing to n,
    for 0 <= n <= PAIR_COUNT_CAP."""
    return _ordered_pairs(_overpartition_single, n)


@lru_cache(maxsize=None)
def _pod_single(n: int) -> int:
    """Number of partitions of n with no repeated odd part (even parts free)."""
    return _weighted_partitions(n, odd_once=True, weight=1)


def pod_bipartitions(n: int) -> int:
    """Number of ordered bipartitions of n, each component with distinct
    odd parts and unrestricted even parts, for 0 <= n <= PAIR_COUNT_CAP."""
    return _ordered_pairs(_pod_single, n)


# ---------------------------------------------------------------------------
# Arithmetic helpers
# ---------------------------------------------------------------------------

def divisor_sigma(n: int) -> int:
    """Sum of the divisors of n, by trial division up to sqrt(n)."""
    if type(n) is not int or n < 1:
        raise DomainError(f"divisor sum needs a positive integer, got {n!r}")
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
    _check_int("triangular index", n, -1)
    return n * (n + 1) // 2


def b_extraction(k: int, j: int) -> int:
    """Coefficient of z^(2j) in (2 + z)*(1 + z)^(j+k-1), by literal
    convolution of coefficient lists.

    The (k, j) = (0, 0) cell has exponent -1 and is fixed by direct
    inspection to 1; every other cell is a plain polynomial coefficient
    (0 whenever 2j exceeds the degree j+k, which covers k < j).
    """
    _check_int("k", k)
    _check_int("j", j)
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
