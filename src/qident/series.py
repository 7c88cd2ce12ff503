"""Dense truncated power series in q over exact integers.

Every value in this package is an :class:`ExactSeries`: an immutable
slotted object holding one tuple of arbitrary-precision integer
coefficients, index n holding the coefficient of q^n, known exactly
modulo q^(N+1) where N is the *order*.  There is no
floating point anywhere; convergence conditions ("|q| < 1") are replaced
by formal truncated arithmetic.

Conventions
-----------
* A series of order N stores exactly N+1 coefficients, explicit zeros
  included.
* Operations on operands of different orders silently truncate to the
  smaller order (identity checks naturally mix series built at different
  provisional orders).
* Two series are equal exactly when their coefficient tuples are, orders
  included, and equal series hash alike; a series never equals a bare
  tuple.  Comparing two series up to the shorter order is a verification
  step, made by identities.verify.
* All values are immutable: setting or deleting an attribute of a series
  raises AttributeError, and pickle and copy rebuild a series through its
  constructor.  Every operation is a pure function, so series may be
  freely shared between threads.

This is the package's one arithmetic core: no other module constructs an
ExactSeries.  The others build with :func:`from_terms` ((exponent,
coefficient) terms), :func:`weighted_sum` (shifted multiples c*q^e*s as
(e, c, s) triples), :func:`mul`, and :func:`term_sums` and
:func:`chain_sums` (the chain sums S_j of the families module), below.
:func:`divide_binomial` (one binomial division, by the private kernel
:func:`_divide`) and :func:`invert` are the unpacked references the tests
check the packed steps by; no build path calls them.

The packed format is one integer per series: a series of order N at
q = 2^W, sum_i c_i * 2^(W*i) mod 2^(W*(N+1)).  Only this module touches
packed integers: every product, quotient and term-ratio sum of binomials
(1 - c*q^x) is one :func:`term_sums`, which takes factor lists and a
bound on every final |coefficient| and returns its sums unpacked.
Inside, :func:`binomial_steps` and its kernels take a few big-int
operations per factor.  Evaluating at q = 2^W maps the ideal (q^(N+1))
into (2^(W*(N+1))), so it is a ring homomorphism: only the final
coefficients must fit a signed W-bit slot, and intermediate values may
overflow.  W is :func:`packed_width` of the bound, the smallest multiple
of 8 at least one bit longer; each caller derives its bound from its own
factors, most with the partition majorant :func:`_partition_bound`.

:func:`chain_sums` packs the other axis: every chain length j <= top
into one integer per exponent m, B[m] = sum_j S_j[m] * 2^(W*j) truncated
mod 2^(W*(top+1)), so an atom is one pass of O(1) integer operations per
m whatever top is.  Its W is :func:`chain_width`, a closed form in
(strict, order) proved to bound every |S_j[m]|.  :func:`unpack` and
:func:`chain_sums` read packed integers through one decode, :func:`_reader`.

Every builder in series, qtools, families and identities checks its
integer arguments with :func:`_check_int`, and a sign with
:func:`_check_sign`: a float, a bool or an out-of-range value raises
ValueError (InvalidSpec for a family spec) naming the argument as its
signature spells it, e.g. "k must be non-negative, got -1".

:func:`mul` is schoolbook convolution, exact because Python integers
never overflow: a :func:`weighted_sum` over the nonzero terms c*q^i of
its sparser operand, N + 1 - i multiply-adds for each of them.  A
product with a sparse factor (a monomial, a binomial, a theta sum) is
effectively linear; a dense product costs (N+1)(N+2)/2 multiply-adds.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from itertools import accumulate, compress, count, repeat, zip_longest
from typing import Callable, Iterable, List, Sequence, Tuple, Type


class NonUnitConstantTerm(ValueError):
    """Raised by invert() when the constant term is not +1 or -1."""


class ExponentOutOfOrder(IndexError):
    """Raised by coeff() when the requested exponent exceeds the order."""


class ExactSeries:
    """A truncated power series: coeffs[n] is the coefficient of q^n.

    The series is known exactly modulo q^(order+1); len(coeffs) == order+1.
    A plain immutable value: == and hash compare the coefficient tuples, so
    series of different orders are never equal, and a series never equals
    anything that is not a series (a bare tuple included).
    """

    __slots__ = ("coeffs",)
    coeffs: Tuple[int, ...]

    def __init__(self, coeffs: Iterable[int]) -> None:
        coeffs = tuple(coeffs)  # a tuple passes through as itself
        if not coeffs:
            raise ValueError("a series stores at least the constant term")
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"ExactSeries is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"ExactSeries is immutable: cannot delete {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not ExactSeries:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.coeffs,))

    def __reduce__(self) -> Tuple[type, Tuple[Tuple[int, ...]]]:
        # pickle and copy rebuild through the constructor; the default
        # protocol would restore the slot with the __setattr__ above.
        return ExactSeries, (self.coeffs,)

    @property
    def order(self) -> int:
        """Largest exponent with a stored coefficient."""
        return len(self.coeffs) - 1

    def __repr__(self) -> str:
        terms = [f"{c}*q^{n}" for n, c in enumerate(self.coeffs) if c]
        body = " + ".join(terms[:6]) if terms else "0"
        if len(terms) > 6:
            body += " + ..."
        return f"ExactSeries({body} + O(q^{self.order + 1}))"


def _check_int(name: str, value: object, low: float = 0,
               error: Type[ValueError] = ValueError) -> None:
    """Raise error, naming the argument, unless value is an int >= low
    (a bool is rejected)."""
    if type(value) is not int:
        raise error(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise error(f"{name} must be non-negative, got {value}" if low == 0
                    else f"{name} must be >= {low}, got {value}")


def _check_sign(sign: object, error: Type[ValueError] = ValueError) -> None:
    """Raise error unless sign is the int +1 or -1 (1.0 and True are rejected)."""
    if type(sign) is not int or sign not in (1, -1):
        raise error(f"sign must be +1 or -1, got {sign!r}")


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def monomial(c: int, e: int, order: int) -> ExactSeries:
    """The series c*q^e at the given order (zero if e > order)."""
    _check_int("e", e)
    return from_terms([(e, c)], order)


def one(order: int) -> ExactSeries:
    """The multiplicative unit at the given order."""
    return monomial(1, 0, order)


def zero(order: int) -> ExactSeries:
    """The zero series at the given order."""
    return from_terms((), order)


def from_coeffs(values: Iterable[int]) -> ExactSeries:
    """Build a series directly from a coefficient sequence (index = exponent)."""
    return ExactSeries(tuple(values))


def from_terms(terms: Iterable[Tuple[int, int]], order: int) -> ExactSeries:
    """The sum of c*q^e over the (e, c) pairs in terms, at the given order.

    Repeated exponents add; exponents above the order are dropped, so a
    caller may bound its terms loosely.
    """
    _check_int("order", order)
    coeffs = [0] * (order + 1)
    for e, c in terms:
        if e < 0:
            _check_int("exponent", e)
        if e <= order:
            coeffs[e] += c
    return ExactSeries(tuple(coeffs))


# ---------------------------------------------------------------------------
# Arithmetic
# ---------------------------------------------------------------------------

# x + y and x - y are x + c*y for c = 1 and c = -1, done by map in C.
_SIGNED_ADD = {1: operator.add, -1: operator.sub}


def weighted_sum(terms: Iterable[Tuple[int, int, ExactSeries]], order: int) -> ExactSeries:
    """The sum of c*q^e*s over the (e, c, s) triples in terms.

    q^e*s is exact to q^(e + s.order), so the result stops at the smallest
    such order, or at the given order if that is smaller.  Terms with e
    above the order add nothing; no terms give zero(order).  Each term is
    added whole, from q^e on, by one map: operator.add for c = 1,
    operator.sub for c = -1, and the products c*y otherwise; a term with
    c = 0 adds nothing but still bounds the order.
    """
    _check_int("order", order)
    out = [0] * (order + 1)
    top = order
    for e, c, s in terms:
        if e < 0:
            _check_int("exponent", e)
        sc = s.coeffs
        hi = e + len(sc)
        top = min(top, hi - 1)
        if not c:
            continue
        op = _SIGNED_ADD.get(c)
        if op is None:
            sc, op = map(operator.mul, sc, repeat(c)), operator.add
        out[e:hi] = map(op, out[e:hi], sc)
    return ExactSeries(tuple(out[: top + 1]))


def add(a: ExactSeries, b: ExactSeries) -> ExactSeries:
    """Coefficientwise sum at the common (minimum) order."""
    return ExactSeries(tuple(map(operator.add, a.coeffs, b.coeffs)))


def scale(c: int, a: ExactSeries) -> ExactSeries:
    """The scalar multiple c*a."""
    if c == 1:
        return a
    return ExactSeries(tuple(c * x for x in a.coeffs))


def shift(a: ExactSeries, e: int) -> ExactSeries:
    """Multiply by q^e.  The result has order a.order + e.

    If a is exact mod q^(N+1) then q^e * a is exact mod q^(N+e+1), so the
    order legitimately grows: no information is invented.
    """
    _check_int("e", e)
    if e == 0:
        return a
    return ExactSeries((0,) * e + a.coeffs)


def mul(a: ExactSeries, b: ExactSeries) -> ExactSeries:
    """Truncated Cauchy product at the common (minimum) order N.

    The operand with fewer nonzero coefficients in q^0..q^N drives (a on a
    tie): the product is the weighted_sum of c*q^i times the other operand
    over the driver's nonzero terms c*q^i, which makes products with sparse
    factors (monomials, binomials, theta sums) effectively linear.
    """
    order = min(len(a.coeffs), len(b.coeffs)) - 1
    # Both slices hold order + 1 entries, so more zeros means fewer nonzeros.
    if b.coeffs[: order + 1].count(0) > a.coeffs[: order + 1].count(0):
        a, b = b, a
    driver = a.coeffs[: order + 1]
    terms = zip(compress(count(), driver), filter(None, driver), repeat(b))
    return weighted_sum(terms, order)


def invert(a: ExactSeries) -> ExactSeries:
    """Multiplicative inverse b with mul(a, b) = 1 at a's order.

    Requires a unit constant term (+1 or -1); uses the forward recurrence
    b[n] = -a0 * sum_{i>=1} a[i]*b[n-i], restricted to the nonzero a[i].
    """
    a0 = a.coeffs[0]
    if a0 not in (1, -1):
        raise NonUnitConstantTerm(
            f"constant term must be +1 or -1 to invert, got {a0}"
        )
    order = a.order
    ac = a.coeffs
    nz = [i for i in range(1, order + 1) if ac[i]]
    b = [0] * (order + 1)
    b[0] = a0
    for n in range(1, order + 1):
        s = 0
        for i in nz:
            if i > n:
                break
            s += ac[i] * b[n - i]
        if s:
            b[n] = -a0 * s
    return ExactSeries(tuple(b))


def _divide(b: List[int], x: int, c: int) -> None:
    """The unpacked binomial-division kernel: b / (1 - c*q^x) in place.

    The quotient's coefficients satisfy b[t] = a[t] + c*b[t-x]: each
    residue class t = r (mod x) is a first-order recurrence, and each
    block of x entries is the input plus c times the block before it.

    The per-coefficient work runs in C iterators.  For c = 1 with
    x*x < len(b), the x residue classes are divided one by one, each by
    itertools.accumulate.  Otherwise each of the len(b)/x blocks is one
    map over the block before it, exact for any x and c; for c = 1 and
    x*x >= len(b) that is at most about sqrt(len(b)) interpreter steps.
    """
    if c == 1 and x * x < len(b):
        for r in range(x):
            b[r::x] = accumulate(b[r::x])
        return
    op = _SIGNED_ADD.get(c)
    block = b[:x]
    for j in range(x, len(b), x):
        block = b[j : j + x] = list(
            map(op, b[j : j + x], block) if op else
            map(operator.add, b[j : j + x], map(operator.mul, block, repeat(c))))


def divide_binomial(a: ExactSeries, x: int, c: int) -> ExactSeries:
    """The quotient a / (1 - c*q^x) at a's order, for x >= 1 and any int c.

    One call of the binomial-division kernel _divide on a's coefficients:
    the quotient equals a below q^x.  O(order) coefficient operations for
    any x and c.  The unpacked reference for binomial_steps: the tests
    and qtools.hypergeometric_terms call it, no build path does.
    """
    _check_int("x", x, 1)
    b = list(a.coeffs)
    _divide(b, x, c)
    return ExactSeries(tuple(b))


# ---------------------------------------------------------------------------
# Packed series: one integer per series, q -> 2^W
# ---------------------------------------------------------------------------

def packed_width(bound: int) -> int:
    """The slot width W for coefficients of absolute value at most bound:
    the smallest multiple of 8 at least one bit longer than bound, so each
    coefficient fits a signed W-bit slot."""
    return (bound.bit_length() + 8) // 8 * 8


def _partition_bound(r: int, n: int) -> int:
    """An integer at least p_r(n), the coefficient of q^n in 1/(q;q)_inf^r,
    for r, n >= 0; it grows with n, so it bounds p_r on 0..n too.

    With x = e^(-t), t > 0: p_r(n) x^n <= prod_k (1 - x^k)^(-r) <=
    e^(r*pi^2/(6t)), a sum of -log(1 - e^(-k*t)) decreasing in k being at
    most its integral.  t = pi*sqrt(r/(6n)) gives e^(pi*sqrt(2rn/3)),
    rounded up to a power of 2 with a bit to spare for the float; 2 at r*n = 0.
    """
    return 1 << (math.ceil(math.pi * math.sqrt(2 * r * n / 3) / math.log(2)) + 1)


def _bias(width: int, count: int) -> int:
    """2^(width-1) in each of count width-bit slots."""
    return int.from_bytes((1 << (width - 1)).to_bytes(width // 8, "little") * count, "little")


def _reader(width: int, count: int) -> Callable[[int, int], List[int]]:
    """The package's one decode: read(u, n) is the first n of the count
    signed width-bit slots of u mod 2^(width*count), for width a multiple
    of 8.

    Adding 2^(width-1) to every slot makes them all nonnegative, so the
    bytes of u split into slots without carries: one to_bytes, then one
    int.from_bytes per slot read."""
    size, half = width // 8, 1 << (width - 1)
    mask, bias = (1 << width * count) - 1, _bias(width, count)
    slots = list(map(slice, range(0, size * count, size),
                     range(size, size * (count + 1), size)))

    def read(u: int, n: int) -> List[int]:
        raw = ((u + bias) & mask).to_bytes(size * count, "little")
        return list(map(operator.sub, map(int.from_bytes, map(raw.__getitem__, slots[:n]),
                                          repeat("little")), repeat(half)))

    return read


def unpack(u: int, width: int, order: int) -> ExactSeries:
    """The series of order order whose coefficients are the signed
    width-bit slots of u mod 2^(width*(order+1)).  Exact when every
    coefficient of the series that u packs is below 2^(width-1) in
    absolute value."""
    return ExactSeries(tuple(_reader(width, order + 1)(u, order + 1)))


def _times_packed(u: int, x: int, c: int, width: int, mask: int) -> int:
    """u * (1 - c*q^x) at q = 2^width, mod mask + 1: u - c*(u << width*x)."""
    op = _SIGNED_ADD.get(-c)
    t = u << width * x
    return (op(u, t) if op else u - c * t) & mask


def _divide_packed(u: int, x: int, c: int, width: int, mask: int, order: int) -> int:
    """The packed binomial-division kernel: u / (1 - c*q^x) at q = 2^width,
    mod mask + 1 = 2^(width*(order+1)).

    1/(1 - c*q^x) = prod_i (1 + c^(2^i)*q^(x*2^i)) mod q^(order+1), over
    the i with x*2^i <= order, so the quotient is log2(order/x) + 1
    doubling steps u += c^(2^i) * (u << width*x*2^i), three big-int
    operations each."""
    step = x
    while step <= order:
        op = _SIGNED_ADD.get(c)
        t = u << width * step
        u = (op(u, t) if op else u + c * t) & mask
        c *= c
        step += step
    return u


def binomial_steps(u: int, top: Iterable[Tuple[int, int]], bottom: Iterable[Tuple[int, int]],
                   width: int, order: int) -> int:
    """u * prod_top (1 - c*q^x) / prod_bottom (1 - c*q^x) over (x, c) pairs,
    x >= 1, at q = 2^width, mod 2^(width*(order+1)).

    A numerator factor is one _times_packed, a denominator one
    _divide_packed; a factor with x above the order is 1 there and is
    skipped.  q -> 2^width maps the ideal (q^(order+1)) into
    (2^(width*(order+1))), so this is the image of the exact truncated
    quotient: it unpacks exactly when every final coefficient fits a
    signed slot, whatever the intermediate values were.
    """
    mask = (1 << width * (order + 1)) - 1
    u &= mask
    for x, c in top:
        if x <= order:
            u = _times_packed(u, x, c, width, mask)
    for x, c in bottom:
        if x <= order:
            u = _divide_packed(u, x, c, width, mask, order)
    return u


def term_sums(top: Iterable[Tuple[int, int]], bottom: Iterable[Tuple[int, int]],
              tops: Sequence[int], bottoms: Sequence[int], d: int, shifts: Iterable[int],
              weights: Sequence[Iterable[int]], bound: int, order: int) -> List[ExactSeries]:
    """For each weight sequence w in weights, sum_n w_n * q^(e_n) * u_n
    over the shifts e_0 <= e_1 <= ... that reach the order, where

        u_0 = prod_top (1 - c*q^x) / prod_bottom (1 - c*q^x) over (x, c) pairs,
        u_n = u_(n-1) * prod_{x in tops} (1 - q^(x + d*n))
                      / prod_{x in bottoms} (1 - q^(x + d*n)),

    packed at q = 2^W, W = packed_width(bound), bound at least every
    |coefficient| of every sum.  A binomial quotient is the one-term case,
    shifts (0,) and weights [(1,)].  u_0 is one binomial_steps; u_n is
    kept mod q^(order - e_n + 1), all that q^(e_n) * u_n reaches, with
    the kernels of binomial_steps called inline, and is added whole, as
    acc += w_n * (u_n << W*e_n).  Each sum is unpacked once.
    """
    width = packed_width(bound)
    u = binomial_steps(1, top, bottom, width, order)
    sums = [0] * len(weights)
    for n, (e, *ws) in enumerate(zip(shifts, *weights)):
        if e > order:
            break
        if n:
            reach = order - e
            mask = (1 << width * (reach + 1)) - 1
            u &= mask
            for x in tops:
                if x + d * n <= reach:
                    u = _times_packed(u, x + d * n, 1, width, mask)
            for x in bottoms:
                if x + d * n <= reach:
                    u = _divide_packed(u, x + d * n, 1, width, mask, reach)
        t = u << width * e
        for i, w in enumerate(ws):
            op = _SIGNED_ADD.get(w)
            sums[i] = op(sums[i], t) if op else sums[i] + w * t
    return [unpack(acc, width, order) for acc in sums]


# ---------------------------------------------------------------------------
# Chain sums: every chain length packed into one integer per exponent
# ---------------------------------------------------------------------------

# The residues mod e that one map chain of _chain_sweep takes together.
# Fewer, larger chunks cost fewer interpreter steps, and a chunk's H and G
# are all the big integers a pass holds besides B.  At 32 the sweep ran as
# fast as with H and G kept for whole passes (V and W at orders 150 to 360,
# 2-core Xeon, Python 3.11), and its peak memory for W at order 180 was
# 0.6 MB lower.
_CHUNK = 32


def _chain_sweep(exponents: List[int], c: int, strict: bool, width: int,
                 mask: int, order: int) -> List[int]:
    """B[0..order] for prod_e 1/(1 - t*a_e) (weak) or prod_e (1 + t*a_e)
    (strict), a_e = q^e/(1 - c*q^e)^2, c = +-1, t = 2^width, mod mask + 1
    (mask = -1 keeps every value whole).

    One pass per exponent e adds G = t*a_e*P into B, where P is the
    product after the pass (weak) or before it (strict).  G is two
    first-order divisions by (1 - c*q^e):
    H[m] = t*P[m-e] + c*H[m-e] and G[m] = H[m] + c*G[m-e], where P[m-e]
    is B[m-e] after the pass (weak) or that minus G[m-e] (strict).  A
    pass splits the residues mod e into chunks of at most _CHUNK and walks
    each chunk up the blocks of e exponents m.  A chunk reads only its
    copy in the block below, so it is one chain of maps in C, and the pass
    keeps H and G of that one copy.  Only G is reduced mod mask + 1: H and
    B stay within a few bits of one slot above it.
    """
    op = _SIGNED_ADD[c]
    acc = [1] + [0] * order
    for e in exponents:
        for start in range(e, 2 * e, _CHUNK):
            n = min(_CHUNK, 2 * e - start)
            h = g = [0] * n
            for lo in range(start, order + 1, e):
                p = acc[lo - e : lo - e + n]
                if strict:
                    p = map(operator.sub, p, g)
                h = list(map(op, map(operator.lshift, p, repeat(width)), h))
                g = list(map(operator.and_, map(op, h, g), repeat(mask)))
                acc[lo : lo + n] = map(operator.add, acc[lo : lo + n], g)
    return acc


def _visible(exponents: Iterable[int], order: int) -> List[int]:
    """The exponents that reach q^0..q^order, checked, distinct and
    ascending: chain_width bounds chains of distinct atoms only."""
    seen = set()
    for e in exponents:
        _check_int("exponent", e, 1)
        if e in seen:
            raise ValueError(f"exponents must be distinct, got {e} twice")
        seen.add(e)
    return sorted(e for e in seen if e <= order)


def chain_width(strict: bool, order: int) -> int:
    """The slot width for chain_sums over distinct exponents at the order N:
    packed_width(3 * L_2N), L the Lucas numbers, for weak chains, and
    packed_width(_partition_bound(2, N)) for strict ones.

    Proof: |S_j^(+-)[m]| <= sum_j S_j^+[m], the q^m coefficient of
    prod_e 1/(1 - a_e) (weak) or prod_e (1 + a_e) (strict) at sign +1, as
    the two signs' atoms differ only in signs; the bounds below grow with
    m.  Weak: 1/(1 - a_e) = 1 + sum_{t>=1} F_2t q^(e*t), F_2t <= phi^2t
    (phi the golden ratio), each e one part size, so the sum is at most
    sum_{l |- m} phi^(2*len(l)) <= phi^2m/(x;x)_inf, x = phi^-2 (l less its
    first column has size m - len(l)), and 1/(x;x)_inf <= exp(x/(1-x)^2)
    = e < 3, as (1 - x)^2 = x; phi^2N < L_2N.  Strict: 1 + a_e (q^(e*t)
    coefficients t) <= 1/(1 - q^e)^2 (t + 1), so the sum is <= p_2(N).
    """
    _check_int("order", order)
    lucas, after = 2, 3  # L_2n and L_2n+2, from n = 0
    for _ in range(order):
        lucas, after = after, 3 * after - lucas
    return packed_width(_partition_bound(2, order) if strict else 3 * lucas)


def chain_sums(exponents: Iterable[int], sign: int, strict: bool, top: int,
               order: int, width: int) -> List[ExactSeries]:
    """S_0 .. S_top: the coefficients of t^j in prod_e 1/(1 - t*a_e)
    (strict false) or prod_e (1 + t*a_e) (strict true), a_e the atom
    q^e/(1 - sign*q^e)^2, over distinct exponents e >= 1 (a repeated one
    raises ValueError), at the order.

    S_j is the complete (weak) or elementary (strict) symmetric function
    of degree j in the atoms.  All j <= top share one integer per
    exponent m, B[m] = sum_j S_j[m] * 2^(width*j) mod 2^(width*(top+1)),
    so dividing by (1 - sign*q^e)^2 is one pass of O(1) integer
    operations per m, whatever top is.  width must be a multiple of 8 in
    which every S_j[m] fits a signed slot, as chain_width(strict, order)
    does; then the result is exact.

    Each B[m] is decoded once, by the package's one decode (_reader),
    which reads only the slots that can be nonzero: no j-chain reaches
    below reach[j], j times the smallest exponent (weak) or the sum of
    the j smallest (strict).
    """
    _check_sign(sign)
    _check_int("top", top)
    _check_int("order", order)
    _check_int("width", width, 8)
    if width % 8:
        raise ValueError(f"width must be a multiple of 8, got {width}")
    low = _visible(exponents, order)
    steps = low[:top] if strict else low[:1] * top
    reach = list(accumulate(steps, initial=0))
    mask = (1 << width * (top + 1)) - 1
    read = _reader(width, top + 1)
    rows = []
    packed = _chain_sweep(low, sign, strict, width, mask, order)
    for m in range(order + 1):
        b, packed[m] = packed[m], None  # each B[m] is freed once decoded
        rows.append(read(b, bisect_right(reach, m)))
    series = [ExactSeries(col) for col in zip_longest(*rows, fillvalue=0)]
    return series + [zero(order)] * (top + 1 - len(series))


def substitute_power(a: ExactSeries, d: int) -> ExactSeries:
    """Replace q by q^d, truncating at the original order.

    The coefficient of q^(d*n) is a.coeffs[n] when d*n <= order; exponents
    that are not multiples of d get 0.
    """
    _check_int("d", d, 1)
    if d == 1:
        return a
    return from_terms(zip(range(0, a.order + 1, d), a.coeffs), a.order)


def coeff(a: ExactSeries, n: int) -> int:
    """The stored coefficient of q^n; errors if n is outside 0..order."""
    if n < 0 or n > a.order:
        raise ExponentOutOfOrder(
            f"exponent {n} outside the stored range 0..{a.order}"
        )
    return a.coeffs[n]
