"""Independent brute-force enumerations used as ground truth.

Nothing in this module touches series arithmetic: every function counts
or sums over explicitly enumerated combinatorial objects (chains of part
magnitudes with multiplicities, partitions built part size by part size,
divisors), so the results are an independent check on the
generating-function machinery.

The chain sums and the pair counts are each one enumeration that returns
the counts of every n <= upto, and the per-n functions v_oracle,
w_oracle, overpartition_pairs and pod_bipartitions read one entry of
that list.  The chain sums enumerate terms (lambda_1 <= ... <= lambda_k with
multiplicities t_1..t_k >= 1) directly from the defining sums; terms with
any t_i = 0 would carry weight 0, so restricting to t_i >= 1 is an
optimization, not a semantic choice.  The pair counts walk every
partition of every size up to upto once, choosing the multiplicity of
each part size from the largest size down, so a partition that the count
excludes is never built; pair_counts keeps the lists it returns.
It imports nothing from the engine (a test parses its imports), so it
checks its own arguments, with its own ``_check_int``, and raises
DomainError: an argument must be an int (a float or a bool is rejected)
in the function's range.
"""

from __future__ import annotations

import math
import threading
from functools import lru_cache
from typing import List, Tuple, Union


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

#: p(0), p(1), ... as far as any call of partition_count has needed them;
#: the lock makes publishing a longer table one step with its check.
_partitions = [1]
_partitions_lock = threading.Lock()


def partition_count(n: int) -> int:
    """p(n) by the pentagonal-number recurrence, 0 for n < 0.

    p(t) = sum_{g>=1} (-1)^(g+1) * [p(t - g(3g-1)/2) + p(t - g(3g+1)/2)].
    p(0..n) are built bottom up, without recursion, and kept: a call
    costs O(n^1.5) additions the first time it reaches past the kept
    table.  The table is extended on a copy and published whole, and only
    if it is longer than the one published meanwhile, so a concurrent
    call sees the old table or a longer one, and the table never shrinks.
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
        with _partitions_lock:
            if len(p) > len(_partitions):
                _partitions = p
    return p[n] if n >= 0 else 0


# ---------------------------------------------------------------------------
# Weighted chain sums
# ---------------------------------------------------------------------------

#: Largest target n the chain sums accept.  The one pass of chain_counts
#: to n costs most at k near n/2 and grows about 4.5x every 2 steps: at
#: n = 24 the slowest k takes about 2.6 s (linear parts, k = 12) and 1.9 s
#: (odd parts, k = 13), at n = 26 about 11.7 s and 9.8 s (k = 13 both;
#: Python 3.11, 2-core Xeon).  At n = 22, k = 12 it takes 0.66 s against
#: 0.75 s for the chains of n = 22 alone.  Larger n raise DomainError
#: instead of running for minutes.  The ORACLE_V/ORACLE_W checks enumerate
#: only up to q^15, below the cap.
CHAIN_ORACLE_CAP = 24


def _check_chain(sign: object, k: object, m: object, n: object) -> None:
    """Raise DomainError unless the chain sums take (sign, k, m) and the
    target n."""
    if type(sign) is not int or sign not in (1, -1):
        raise DomainError(f"sign must be +1 or -1, got {sign!r}")
    _check_int("k", k)
    if m != math.inf:
        _check_int("m", m, 1)
    _check_target(n, CHAIN_ORACLE_CAP, "chain sums")


def chain_counts(sign: int, k: int, m: Union[int, float], upto: int,
                 odd_parts: bool) -> List[int]:
    """Signed weighted counts over chains lambda_1 <= ... <= lambda_k <= m
    (m may be inf) at every n = 0..upto, upto <= CHAIN_ORACLE_CAP, from one
    enumeration.

    Each position i carries a part lambda_i (odd_parts: the actual part is
    2*lambda_i - 1) with multiplicity t_i >= 1; the chain contributes
    sign^(t_1+...+t_k+k) * t_1*...*t_k at the n its parts weighted by
    their multiplicities sum to.  Every chain with n <= upto is built once,
    a position at a time, and a prefix stops as soon as the later
    positions, each at least its part once, would pass upto.
    """
    _check_chain(sign, k, m, upto)
    totals = [0] * (upto + 1)
    if k == 0:
        totals[0] = 1
        return totals

    def recurse(pos: int, lo: int, used: int, prod: int, t_sum: int) -> None:
        later = k - pos - 1  # positions after this one
        lam = lo
        while lam <= m:
            part = 2 * lam - 1 if odd_parts else lam
            t = 1
            while used + part * (t + later) <= upto:
                if later:
                    recurse(pos + 1, lam, used + part * t, prod * t, t_sum + t)
                else:
                    totals[used + part * t] += sign ** (t_sum + t + k) * prod * t
                t += 1
            if t == 1:  # not even once: no larger part fits either
                break
            lam += 1

    recurse(0, 1, 0, 1, 0)
    return totals


def v_oracle(sign: int, k: int, m: Union[int, float], n: int) -> int:
    """The linear-parts chain sum at n, 0 <= n <= CHAIN_ORACLE_CAP: the
    last entry of chain_counts up to n."""
    return chain_counts(sign, k, m, n, False)[n]


def w_oracle(sign: int, k: int, m: Union[int, float], n: int) -> int:
    """The odd-parts chain sum at n: as v_oracle but position i contributes
    the part 2*lambda_i - 1."""
    return chain_counts(sign, k, m, n, True)[n]


# ---------------------------------------------------------------------------
# Overpartition pairs and distinct-odd-part bipartitions
# ---------------------------------------------------------------------------

#: Largest n the pair counts accept.  One walk builds every partition of
#: every size up to n, so its cost grows with p(n), about 3.5x every 10
#: steps: pair_counts to n = 50 takes about 0.08 s for overpartitions and
#: 0.03 s with odd_parts, to n = 70 about 1.1 s and 0.4 s (Python 3.11,
#: 2-core Xeon).  Larger n raise DomainError instead of running for
#: seconds.
PAIR_COUNT_CAP = 50


def _single_counts(upto: int, odd_parts: bool) -> List[int]:
    """The overpartitions of every n = 0..upto or, for odd_parts, the
    partitions with no repeated odd part (even parts free), from one walk.

    An overpartition is a plain partition weighted by 2^(number of
    distinct part sizes), the overlined subset of sizes being free.
    place(used, below, w) stands at a partition of used into sizes >= 2,
    each below the last one placed, of weight w: it adds w at used, adds
    the runs of parts 1 that may end it, and places each multiplicity of
    each smaller size that fits in upto.  A run of parts 1 repeats 1
    freely, so it adds its weight to every n > used, as one entry of a
    difference list; for odd_parts only the run of one part 1 is allowed,
    one addition.  A partition of parts 2 ends the walk but for its parts
    1, so it is counted where it is placed, without a further call.
    """
    weight = 1 if odd_parts else 2
    totals = [0] * (upto + 2)
    ones = [0] * (upto + 2)  # difference list of the free runs of parts 1
    runs = totals if odd_parts else ones

    def place(used: int, below: int, w: int) -> None:
        totals[used] += w
        w *= weight  # one more distinct part size
        runs[used + 1] += w
        room = upto - used
        for size in range(min(room, below - 1), 1, -1):
            most = 1 if odd_parts and size % 2 else room // size
            for total in range(used + size, used + most * size + 1, size):
                if size > 2:
                    place(total, size, w)
                else:
                    totals[total] += w
                    runs[total + 1] += w * weight

    place(0, upto + 1, 1)
    run = 0
    for n in range(upto + 1):
        run += ones[n]
        totals[n] += run
    return totals[: upto + 1]


@lru_cache(maxsize=None, typed=True)
def pair_counts(upto: int, odd_parts: bool) -> Tuple[int, ...]:
    """The ordered pairs of overpartitions or, for odd_parts, of partitions
    with distinct odd parts, with sizes summing to each n = 0..upto,
    0 <= upto <= PAIR_COUNT_CAP: the self-convolution of _single_counts.

    The POS cases of each kind read the same list, each case on its own,
    so it is kept.  The cache is typed, as the qtools caches are: True or 3.0 never hits
    the entry of 1 or 3 and always reaches the argument checks.  The
    checks admit only an int 0 <= upto <= PAIR_COUNT_CAP and a bool
    odd_parts, so the cache holds at most 2 * (PAIR_COUNT_CAP + 1) entries.
    """
    _check_target(upto, PAIR_COUNT_CAP, "pair counts")
    if type(odd_parts) is not bool:
        raise DomainError(f"odd_parts must be a bool, got {odd_parts!r}")
    single = _single_counts(upto, odd_parts)
    return tuple(sum(single[j] * single[n - j] for j in range(n + 1))
                 for n in range(upto + 1))


def overpartition_pairs(n: int) -> int:
    """Number of ordered pairs of overpartitions with sizes summing to n,
    for 0 <= n <= PAIR_COUNT_CAP."""
    return pair_counts(n, False)[n]


def pod_bipartitions(n: int) -> int:
    """Number of ordered bipartitions of n, each component with distinct
    odd parts and unrestricted even parts, for 0 <= n <= PAIR_COUNT_CAP."""
    return pair_counts(n, True)[n]


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
