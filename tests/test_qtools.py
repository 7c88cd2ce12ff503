"""q-Pochhammer products, Gaussian binomials, the double-binomial kernel,
basic hypergeometric evaluation, theta sums, and the one-sided triangular
sum with the two one-sided theta sums built on it."""

import operator
import tracemalloc
from itertools import accumulate, count, cycle, repeat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qident import series
from qident.identities import (IdentityCase, _check_euler_alternating, _eta_quotient,
                               _one_sided, _q_binomial_sides, divisor_sum_series, verify)
from qident.oracles import partition_count
from qident.qtools import (
    INFINITE,
    _binomial_quotient,
    _distinct_bound,
    _factors,
    _gauss_poly,
    _partition_bound,
    alt_triangular_sum,
    gaussian_binomial,
    kernel_H,
    phi2_1,
    pochhammer,
    squared_pochhammer,
    theta_phi_neg,
    theta_psi,
)
from qident.series import (from_coeffs, from_terms, invert, mul, one, substitute_power,
                           term_sums, unpack, weighted_sum, zero)


def _pascal(m, k, d, order):
    """[m, k] in base q^d at the order, from the q-Pascal reference."""
    return from_terms(zip(range(0, order + 1, d), _gauss_poly(m, k)), order)


def _valuation(s):
    """Smallest exponent with a nonzero coefficient, or None if s is zero."""
    return next((n for n, c in enumerate(s.coeffs) if c), None)


# ---------------------------------------------------------------------------
# Pochhammer argument validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kwargs", [
    dict(sign=0, offset=1, step=1, length=1),
    dict(sign=2, offset=1, step=1, length=1),
    dict(sign=1, offset=0, step=1, length=1),
    dict(sign=1, offset=1, step=0, length=1),
    dict(sign=1, offset=1, step=1, length=-1),
    dict(sign=1, offset=1, step=1, length=2.5),
])
def test_poch_spec_rejects_bad_fields(kwargs):
    with pytest.raises(ValueError):
        pochhammer(**kwargs, order=4)


# ---------------------------------------------------------------------------
# Pochhammer products
# ---------------------------------------------------------------------------

def test_finite_products():
    # (1-q)(1-q^2)(1-q^3)
    p = pochhammer(1, 1, 1, 3, 6)
    assert p.coeffs == (1, -1, -1, 0, 1, 1, -1)
    # (1+q)(1+q^2)
    p = pochhammer(-1, 1, 1, 2, 3)
    assert p.coeffs == (1, 1, 1, 1)
    # zero factors = empty product
    assert pochhammer(1, 1, 1, 0, 4) == one(4)


def test_infinite_product_pentagonal_prefix():
    p = pochhammer(1, 1, 1, INFINITE, 15)
    assert p.coeffs == (1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1, 0, 0, -1)


def test_infinite_product_matches_long_finite_one():
    infinite = pochhammer(1, 1, 1, INFINITE, 12)
    finite = pochhammer(1, 1, 1, 40, 12)
    assert infinite == finite


def test_even_base_product_is_substitution():
    even = pochhammer(1, 2, 2, INFINITE, 16)
    plain = pochhammer(1, 1, 1, INFINITE, 16)
    substituted = substitute_power(plain, 2)
    assert substituted.order == 16
    assert even == substituted


def _in_place_product(sign, offset, step, length, order):
    """Reference: multiply a coefficient list in place by each factor
    (1 - sign*q^x), highest exponent first."""
    coeffs = [1] + [0] * order
    r = 0
    while length == INFINITE or r < length:
        x = offset + r * step
        if x > order:
            break
        for n in range(order, x - 1, -1):
            coeffs[n] -= sign * coeffs[n - x]
        r += 1
    return tuple(coeffs)


@given(
    st.sampled_from((1, -1)),
    st.integers(1, 3),
    st.integers(1, 3),
    st.one_of(st.integers(0, 6), st.just(INFINITE)),
    st.integers(0, 30),
)
def test_pochhammer_matches_in_place_product(sign, offset, step, length, order):
    assert pochhammer(sign, offset, step, length, order).coeffs == _in_place_product(
        sign, offset, step, length, order)


def test_pochhammer_results_are_cached():
    assert pochhammer(-1, 1, 2, INFINITE, 10) is pochhammer(-1, 1, 2, INFINITE, 10)


@pytest.mark.parametrize("builder, args", [
    (squared_pochhammer, (-1, 1, 2, INFINITE, 10)),
    (_eta_quotient, (-1, True, 10)),
])
def test_squared_products_are_cached(builder, args):
    assert builder(*args) is builder(*args)


# ---------------------------------------------------------------------------
# The binomial-quotient builder
# ---------------------------------------------------------------------------

def _binomial_product(factors, order):
    """prod (1 - c*q^x) over the (x, c) pairs, one explicit mul per factor."""
    p = one(order)
    for x, c in factors:
        p = mul(p, from_terms([(0, 1), (x, -c)], order))
    return p


QUOTIENT_ORDER = 12
# c = -1, 1, 2 at the smallest exponent, at the order and just above it
QUOTIENT_GRID = [(x, c) for c in (-1, 1, 2)
                 for x in (1, QUOTIENT_ORDER, QUOTIENT_ORDER + 1)]


# A seed sum_e c*q^e times the quotient is the term_sums of its terms, as
# shifts e and weights c, with no per-term factors; one (shift 0, weight
# 1) is the binomial quotient itself.
@pytest.mark.parametrize("seed", [
    one(QUOTIENT_ORDER),
    from_terms([(3, 5), (4, -2), (11, 7)], QUOTIENT_ORDER),  # valuation 3
    from_terms([(2, 1), (9, -4), (15, 3)], QUOTIENT_ORDER + 5),  # a shift above the order
], ids=["one", "valuation-3", "longer"])
@pytest.mark.parametrize("top, bottom", [
    ((), ()),
    *(((f,), ()) for f in QUOTIENT_GRID),
    *(((), (f,)) for f in QUOTIENT_GRID),
    (QUOTIENT_GRID, ()),
    ((), QUOTIENT_GRID),
    (QUOTIENT_GRID[:5], QUOTIENT_GRID[4:] + [(2, 1), (2, 1)]),
])
def test_binomial_quotient_matches_products_and_inverses(seed, top, bottom):
    want = mul(mul(seed, _binomial_product(top, QUOTIENT_ORDER)),
               invert(_binomial_product(bottom, QUOTIENT_ORDER)))
    if seed == one(QUOTIENT_ORDER):
        got = _binomial_quotient(top, bottom, QUOTIENT_ORDER)
    else:
        # the tightest bound the contract allows: the slots fit want alone
        shifts, weights = zip(*((e, c) for e, c in enumerate(seed.coeffs) if c))
        got, = term_sums(top, bottom, (), (), 1, shifts, [weights], max(map(abs, want.coeffs)),
                         QUOTIENT_ORDER)
    assert got.order == QUOTIENT_ORDER
    assert got == want


@pytest.mark.parametrize("args, xs", [
    ((1, 3, 2, INFINITE, 10), [3, 5, 7, 9]),
    ((-1, 2, 3, 2, 100), [2, 5]),
    ((1, 1, 1, 0, 10), []),
    ((1, 11, 1, INFINITE, 10), []),
    ((1, 1, 5, INFINITE, 11), [1, 6, 11]),
])
def test_factors_lists_the_visible_pochhammer_factors(args, xs):
    assert list(_factors(*args)) == [(x, args[0]) for x in xs]


# ---------------------------------------------------------------------------
# Gaussian binomials
# ---------------------------------------------------------------------------

def test_gaussian_binomial_classic_value():
    assert gaussian_binomial(4, 2, 1, 4).coeffs == (1, 1, 2, 1, 1)


def test_gaussian_binomial_out_of_range_is_zero():
    assert gaussian_binomial(3, 5, 1, 4) == zero(4)
    assert gaussian_binomial(3, -1, 1, 4) == zero(4)
    assert gaussian_binomial(-2, 1, 1, 4) == zero(4)
    assert gaussian_binomial(-1, 0, 2, 0) == zero(0)
    assert gaussian_binomial(INFINITE, -1, 1, 4) == zero(4)


@pytest.mark.parametrize("m, k, message", [(2.5, 1, "m must be an integer, got 2.5"),
                                            (3, 1.5, "k must be an integer, got 1.5"),
                                            (INFINITE, 1.5, "k must be an integer, got 1.5"),
                                            (INFINITE, INFINITE, "k must be an integer, got inf"),
                                            (True, 1, "m must be an integer, got True"),
                                            (4, True, "k must be an integer, got True")])
def test_gaussian_binomial_names_a_non_integer_m_or_k(m, k, message):
    # any integer m, k is valid (out of range gives zero), and so is an
    # unbounded m; any other float, or a bool, is not
    with pytest.raises(ValueError, match=f"^{message}$"):
        gaussian_binomial(m, k, 1, 10)


def test_gaussian_binomial_edge_columns():
    for m in range(6):
        assert gaussian_binomial(m, 0, 1, 5) == one(5)
        assert gaussian_binomial(m, m, 1, 5) == one(5)


@pytest.mark.parametrize("m", range(9))
def test_gaussian_binomial_symmetry(m):
    order = m * m
    for k in range(m + 1):
        assert gaussian_binomial(m, k, 1, order) == gaussian_binomial(m, m - k, 1, order)


@pytest.mark.parametrize("m", range(1, 9))
def test_gaussian_binomial_pascal_recurrence(m):
    # [m, k] = [m-1, k-1] + q^k [m-1, k]
    from qident.series import add, shift
    order = m * m
    for k in range(m + 1):
        lhs = gaussian_binomial(m, k, 1, order)
        rhs = add(gaussian_binomial(m - 1, k - 1, 1, order),
                  shift(gaussian_binomial(m - 1, k, 1, order), k))
        assert lhs == rhs


def test_gaussian_binomial_stride_is_substitution():
    strided = gaussian_binomial(5, 2, 3, 18)
    substituted = substitute_power(gaussian_binomial(5, 2, 1, 18), 3)
    assert substituted.order == 18
    assert strided == substituted


@given(st.integers(0, 8), st.integers(0, 8))
def test_gaussian_binomial_degree_and_unit_constant(m, k):
    if k > m:
        return
    poly = gaussian_binomial(m, k, 1, m * m + 1)
    assert poly.coeffs[0] == 1
    degree = max((i for i, c in enumerate(poly.coeffs) if c), default=0)
    assert degree == k * (m - k)


@pytest.mark.parametrize("m, k", [(1500, 1), (1300, 1299)])
def test_gaussian_binomial_from_a_cold_cache_stays_shallow(m, k):
    # [m, k] with min(k, m - k) = 1 is one product by (1 - q^m) and one
    # division by (1 - q): no recursion at all, and the q-Pascal memo is
    # never filled
    _gauss_poly.cache_clear()
    try:
        assert gaussian_binomial(m, k, 1, m).coeffs == (1,) * m + (0,)
        assert _gauss_poly.cache_info().currsize == 0
    finally:
        _gauss_poly.cache_clear()


@pytest.mark.parametrize("d", (1, 2))
def test_gaussian_binomial_of_a_huge_box_reads_only_the_visible_factors(d):
    # every partition of n <= 40 fits the k x (m - k) box, so [m, k] in
    # base q^d counts the partitions of n/d; its numerator factors lie far
    # above the order, and h = 5*10**14 costs only the 40 // d visible ones
    series = gaussian_binomial(10 ** 15, 5 * 10 ** 14, d, 40)
    assert series.coeffs == tuple(0 if n % d else partition_count(n // d)
                                  for n in range(41))


def test_gaussian_binomial_matches_the_whole_polynomial_on_a_grid():
    # dropping the factors above the order changes no visible coefficient
    # of the whole q-Pascal polynomial
    for m in range(15):
        for k in range(-1, m + 2):
            for d in range(1, 4):
                for order in range(41):
                    assert gaussian_binomial(m, k, d, order) == _pascal(m, k, d, order), (
                        m, k, d, order)


@pytest.mark.parametrize("d", (1, 2, 3))
def test_gaussian_binomial_at_an_unbounded_top_is_the_limit_of_large_tops(d):
    # [M, k]_Q = 1/(Q; Q)_k mod Q^(M-k+1), so once M - k exceeds order // d
    # a finite top agrees with the unbounded one
    order = 24
    for k in range(8):
        want = gaussian_binomial(INFINITE, k, d, order)
        assert want == invert(pochhammer(1, d, d, k, order)), k
        for top in (k + order // d + 1, k + order // d + 5, 10 ** 6):
            assert gaussian_binomial(top, k, d, order) == want, (k, top)


def test_cauchy_builds_only_the_binomials_the_order_can_see():
    # the left side comes from its term ratio, not from whole polynomials
    _gauss_poly.cache_clear()
    try:
        assert verify(IdentityCase("CAUCHY", {"n": 60, "s": 1}, 10)).holds
        assert _gauss_poly.cache_info().currsize == 0
    finally:
        _gauss_poly.cache_clear()


def test_cauchy_at_a_large_n_stays_small_from_a_cold_cache():
    # built from q-Pascal polynomials, [n - 1 + k, k] for k <= 100 would
    # fill thousands of memo entries; the term-ratio sum holds
    # order // s + 1 terms of at most order + 1 coefficients
    _gauss_poly.cache_clear()
    pochhammer.cache_clear()
    tracemalloc.start()
    try:
        assert verify(IdentityCase("CAUCHY", {"n": 1000, "s": 1}, 100)).holds
        peak = tracemalloc.get_traced_memory()[1]
        assert _gauss_poly.cache_info().currsize == 0
    finally:
        tracemalloc.stop()
        _gauss_poly.cache_clear()
    assert peak < 20 * 2 ** 20


# ---------------------------------------------------------------------------
# Kernel and its hypergeometric form
# ---------------------------------------------------------------------------

def test_kernel_reference_value():
    assert kernel_H(1, 2, 1, 2, 4).coeffs == (1, 1, 1, 2, 3)


def test_kernel_vanishes_at_empty_bound():
    for k in range(4):
        assert kernel_H(k, 0, 1, 2, 8) == zero(8)
        assert kernel_H(k, 0, 2, 2, 8) == zero(8)


def test_kernel_validates_arguments():
    with pytest.raises(ValueError):
        kernel_H(-1, 2, 1, 2, 4)
    with pytest.raises(ValueError):
        kernel_H(1, 2, 0, 2, 4)
    with pytest.raises(ValueError):
        kernel_H(1, 2, 1, 0, 4)


@pytest.mark.parametrize("m", (2.5, -1, -INFINITE, "2"))
def test_kernel_rejects_a_bad_bound(m):
    # m is a non-negative integer or INFINITE, as pochhammer's length is;
    # the error names m and the rule it breaks
    rule = "non-negative" if m == -1 else "an integer"
    with pytest.raises(ValueError, match=f"^m must be {rule}, got "):
        kernel_H(1, m, 1, 2, 10)


@pytest.mark.parametrize("builder, ints, floats, name", [
    (pochhammer, (1, 1, 1, 3, 10), (1, 1.0, 1, 3, 10), "offset"),
    (kernel_H, (1, 2, 1, 2, 10), (1, 2.0, 1, 2, 10), "m"),
    (squared_pochhammer, (1, 1, 2, 3, 10), (1, 1, 2.0, 3, 10), "step"),
    (_eta_quotient, (1, False, 10), (1, False, 10.0), "order"),
])
def test_cached_builders_reject_a_float_on_a_warm_cache(builder, ints, floats, name):
    # the cache keys 1 and 1.0 apart, so the equal float is checked, not served
    builder(*ints)
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        builder(*floats)


@pytest.mark.parametrize("d", (1, 2))
@pytest.mark.parametrize("s", (1, 2, 3))
def test_kernel_at_an_unbounded_m_is_the_limit_of_large_bounds(d, s):
    # [m-1+j, j]_Q = 1/(Q;Q)_j mod Q^m, so once d*m exceeds the order the
    # bounded kernel (numerator products, top parameters) agrees with the
    # unbounded one (no numerator at all); for k >= 1 the first term
    # [m-1+k, k] differs from 1/(Q;Q)_k at Q^m, which a smaller m reaches
    order = 30
    for k in range(5):
        want = kernel_H(k, INFINITE, d, s, order)
        assert kernel_H(k, order // d + 1, d, s, order).coeffs == want.coeffs, k
        if k:
            assert kernel_H(k, order // d, d, s, order) != want, k


def test_kernel_never_fills_the_q_pascal_memo():
    # the first term [m-1+k, k] is a product quotient truncated at the
    # order, not a whole q-Pascal polynomial of degree k*(m-1)
    kernel_H.cache_clear()
    _gauss_poly.cache_clear()
    kernel_H(3, 5, 1, 2, 20)
    assert _gauss_poly.cache_info().currsize == 0


def test_kernel_adds_no_pochhammer_cache_entry():
    # the numerator (Q^(m+k-h); Q)_h of the first term is multiplied in one
    # factor at a time beside its divisors, not fetched as a cached product
    kernel_H.cache_clear()
    pochhammer.cache_clear()
    kernel_H(3, 2, 1, 2, 40)
    assert pochhammer.cache_info().currsize == 0


@pytest.mark.parametrize("d", (1, 2))
@pytest.mark.parametrize("m", (1, 2, 3))
@pytest.mark.parametrize("k", (0, 1, 2, 3))
def test_kernel_equals_binomial_times_hypergeometric(d, m, k):
    # H_{k,m}(Q, q^s) = [m-1+k, k]_Q * 2phi1(Q^m, Q^(m+k); Q^(k+1); Q, q^s)
    order = 20
    lhs = kernel_H(k, m, d, 2, order)
    rhs = mul(_pascal(m - 1 + k, k, d, order),
              phi2_1(m, m + k, k + 1, d, 2, order))
    assert lhs == rhs


def _kernel_reference(k, m, d, s, order):
    """sum_j [m-1+j, j] * [m-1+k+j, k+j] * q^(s*j), one product per j, with
    the binomials from the q-Pascal reference."""
    terms = ((s * j, 1, mul(_pascal(m - 1 + j, j, d, order),
                            _pascal(m - 1 + k + j, k + j, d, order)))
             for j in range(order // s + 1))
    return weighted_sum(terms, order)


@pytest.mark.parametrize("order", (0, 1, 7, 30))
@pytest.mark.parametrize("s", (1, 2, 3))
@pytest.mark.parametrize("d", (1, 2))
def test_kernel_matches_the_two_binomial_sum(d, s, order):
    # the grid holds m = 0 (a zero kernel), m = 1 (every ratio parameter
    # cancels) and m = k + 1 (one cancels)
    for k in range(4):
        for m in range(5):
            want = _kernel_reference(k, m, d, s, order)
            assert kernel_H(k, m, d, s, order).coeffs == want.coeffs, (k, m)


def test_phi2_1_validates_arguments():
    with pytest.raises(ValueError):
        phi2_1(0, 1, 1, 1, 2, 4)
    with pytest.raises(ValueError):
        phi2_1(1, 1, 1, 1, 0, 4)


# ---------------------------------------------------------------------------
# Theta expansions
# ---------------------------------------------------------------------------

def test_theta_phi_neg_prefix():
    assert theta_phi_neg(10).coeffs == (1, -2, 0, 0, 2, 0, 0, 0, 0, -2, 0)


def test_theta_psi_prefix():
    assert theta_psi(11).coeffs == (1, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1, 0)


def test_theta_phi_neg_product_form():
    # phi(-q) = (q;q)_inf / (-q;q)_inf
    order = 30
    qq = pochhammer(1, 1, 1, INFINITE, order)
    mq = pochhammer(-1, 1, 1, INFINITE, order)
    assert mul(theta_phi_neg(order), mq) == qq


def test_theta_psi_product_form():
    # psi(q) = (q^2;q^2)_inf / (q;q^2)_inf
    order = 30
    q2 = pochhammer(1, 2, 2, INFINITE, order)
    qodd = pochhammer(1, 1, 2, INFINITE, order)
    assert mul(theta_psi(order), qodd) == q2


# ---------------------------------------------------------------------------
# One-sided alternating triangular sums
# ---------------------------------------------------------------------------

def _whole_exponent_sum(k, order):
    """sum_{j>=k} (-1)^(j-k) q^(j(j+1) - k^2), term by term: the reference
    for the odd-part one-sided theta sum."""
    return from_terms(((j * (j + 1) - k * k, (-1) ** (j - k))
                       for j in range(k, order + 1)), order)


def test_alt_triangular_sum_reference_values():
    assert alt_triangular_sum(2, 7).coeffs == (1, 0, 0, -1, 0, 0, 0, 1)
    assert alt_triangular_sum(0, 6).coeffs == (1, -1, 0, 1, 0, 0, -1)


def test_odd_one_sided_reference_values():
    # the odd-part one-sided sum, exponents j(j+1) - k^2
    assert _one_sided(1, True, 10).coeffs == (0, 1, 0, 0, 0, -1, 0, 0, 0, 0, 0)
    assert _one_sided(0, True, 7).coeffs == (1, 0, -1, 0, 0, 0, 1, 0)


@pytest.mark.parametrize("k", range(5))
def test_alt_triangular_sum_starts_at_one(k):
    # leading term q^(T_k - T_k) = 1, next term -q^(k+1)
    series = alt_triangular_sum(k, 25)
    assert _valuation(series) == 0
    assert series.coeffs[0] == 1
    assert series.coeffs[k + 1] == -1


@pytest.mark.parametrize("k", range(5))
def test_odd_one_sided_starts_at_exponent_k(k):
    # leading term q^(k(k+1) - k^2) = q^k
    series = _one_sided(k, True, 25)
    assert _valuation(series) == k
    assert series.coeffs[k] == 1


@pytest.mark.parametrize("k", range(7))
def test_odd_one_sided_sum_is_the_shifted_half_sum_in_q_squared(k):
    # j(j+1) - k^2 = 2(T_j - T_k) + k, so the whole-exponent sum is
    # q^k * S_k(q^2)
    order = 40
    want = _whole_exponent_sum(k, order)
    shifted = weighted_sum([(k, 1, substitute_power(alt_triangular_sum(k, order), 2))], order)
    assert shifted.coeffs == want.coeffs
    assert _one_sided(k, True, order).coeffs == want.coeffs


def test_alt_triangular_sum_validates_arguments():
    with pytest.raises(ValueError):
        alt_triangular_sum(-1, 5)


# ---------------------------------------------------------------------------
# Packed builders: the width rule
# ---------------------------------------------------------------------------

def _convolve(a, b, limit):
    """The first limit + 1 coefficients of the product of two coefficient lists."""
    return [sum(map(operator.mul, a[: n + 1], b[n::-1])) for n in range(limit + 1)]


def test_partition_bound_holds_for_p_and_p2():
    # p_r(n) <= e^(pi*sqrt(2rn/3)), checked against the exact counts, to
    # n = 2000 for p and p_2 and to n = 1000 for p_3 and p_4 (the eta
    # quotient's doubled factors give r = 4)
    limit, short = 2000, 1000
    p = [partition_count(n) for n in range(limit + 1)]
    p2 = _convolve(p, p, limit)
    counts = {1: p, 2: p2, 3: _convolve(p2, p, short), 4: _convolve(p2, p2, short)}
    for n in (0, 1, 1000):
        assert _partition_bound(0, n) >= (n == 0)
    for r, exact in counts.items():
        for n, count in enumerate(exact):
            assert _partition_bound(r, n) >= count, (r, n)


def test_distinct_bound_holds_for_distinct_partitions():
    # q(n) <= e^(pi*sqrt(n/3)), checked against the exact counts to
    # n = 2000 (the coefficients of (-q; q)_inf, one part size at a time)
    limit = 2000
    exact = [1] + [0] * limit
    for part in range(1, limit + 1):
        for n in range(limit, part - 1, -1):
            exact[n] += exact[n - part]
    for n, count in enumerate(exact):
        assert _distinct_bound(n) >= count, n


@pytest.fixture
def widths(monkeypatch):
    """(width, series) for every packed result unpacked while the test
    runs, from cold caches."""
    seen = []

    def spy(u, width, order):
        out = unpack(u, width, order)
        seen.append((width, out))
        return out

    monkeypatch.setattr(series, "unpack", spy)
    for cached in (pochhammer, squared_pochhammer, kernel_H, _eta_quotient):
        cached.cache_clear()
    yield seen
    for cached in (pochhammer, squared_pochhammer, kernel_H, _eta_quotient):
        cached.cache_clear()


def _assert_fits(seen):
    """Every unpacked width leaves a sign bit above its largest coefficient."""
    assert seen
    for width, out in seen:
        assert width >= max(map(abs, out.coeffs)).bit_length() + 1, (width, out)


def _term_sum(first, top, bottom, d, shifts, weights, order):
    """sum_n w_n q^(e_n) u_n over the shifts e_0 <= e_1 <= ... that reach
    the order, u_0 = first and u_n = u_(n-1) * prod_{a in top} (1 - Q^(a+n-1))
    / prod_{c in bottom} (1 - Q^(c+n-1)), Q = q^d, an INFINITE top
    parameter giving no factor.

    Test-local and unpacked: u_n is kept to q^(order - e_n), a numerator
    factor (1 - q^x) is one subtract pass and a denominator one accumulate
    per residue class mod x."""
    top = [a for a in top if a != INFINITE]
    u, total = list(first.coeffs[: order + 1]), [0] * (order + 1)
    for n, (e, w) in enumerate(zip(shifts, weights)):
        if e > order:
            break
        del u[order - e + 1:]
        if n:
            for x in (d * (a + n - 1) for a in top):
                u[x:] = map(operator.sub, u[x:], u[: len(u) - x])
            for x in (d * (c + n - 1) for c in bottom):
                for r in range(min(x, len(u) - x)):
                    u[r::x] = accumulate(u[r::x])
        total[e:] = map(operator.add, total[e:], map(operator.mul, u, repeat(w)))
    return from_coeffs(total)


WIDTH_ORDERS = (0, 1, 7, 60, 200)
WIDTH_BOUNDS = (1, 2, 3, 5, INFINITE)


def _inverse_product(d, k, order):
    """1/(q^d; q^d)_k by inverting the product."""
    return invert(pochhammer(1, d, d, k, order))


@pytest.mark.parametrize("order", WIDTH_ORDERS)
def test_packed_products_fit_their_width(widths, order):
    for sign in (1, -1):
        for d in (1, 2):
            for length in WIDTH_BOUNDS:
                want = _in_place_product(sign, 1, d, length, order)
                assert pochhammer(sign, 1, d, length, order).coeffs == want
            assert _eta_quotient(sign, d == 2, order) == mul(
                squared_pochhammer(sign, 1, d, INFINITE, order),
                invert(squared_pochhammer(1, d, d, INFINITE, order)))
    for k in range(6):
        for m in WIDTH_BOUNDS:
            for d in (1, 2):
                want = (_inverse_product(d, k, order) if m == INFINITE
                        else _pascal(m - 1 + k, k, d, order))
                assert gaussian_binomial(m - 1 + k, k, d, order) == want
    _assert_fits(widths)


@pytest.mark.parametrize("order", WIDTH_ORDERS)
def test_packed_kernels_fit_their_width(widths, order):
    for k in range(6):
        for m in WIDTH_BOUNDS:
            for d in (1, 2):
                first = (_inverse_product(d, k, order) if m == INFINITE
                         else _pascal(m - 1 + k, k, d, order))
                for s in (1, 2):
                    want = _term_sum(first, (m, m + k), (1, k + 1), d, range(0, order + 1, s),
                                     repeat(1), order)
                    assert kernel_H(k, m, d, s, order) == want, (k, m, d, s)
                    if m != INFINITE:
                        want = _term_sum(one(order), (m, m + k), (1, k + 1), d,
                                         range(0, order + 1, s), repeat(1), order)
                        assert phi2_1(m, m + k, k + 1, d, s, order) == want, (k, m, d, s)
    _assert_fits(widths)


@pytest.mark.parametrize("order", WIDTH_ORDERS)
def test_packed_classical_sums_fit_their_width(widths, order):
    for s in (1, 2):
        for n in (1, 2, 3, 4, INFINITE):
            lhs, rhs = _q_binomial_sides(n, s, order)
            assert lhs == _term_sum(one(order), (n,), (1,), 1, range(0, order + 1, s),
                                    repeat(1), order)
            assert rhs == invert(pochhammer(1, s, 1, n, order))
        product, alternating = _check_euler_alternating(order, e=s)
        assert alternating == _term_sum(
            one(order), (), (1,), 1, (j * (j - 1) // 2 + s * j for j in count()),
            cycle((1, -1)), order)
    moments = [_term_sum(one(order), (), (1,), 1, range(order + 1), (i ** r for i in count()),
                         order) for r in range(3)]
    want = mul(squared_pochhammer(1, 1, 1, INFINITE, order),
               weighted_sum([(0, 1, mul(moments[0], moments[2])),
                             (0, -1, mul(moments[1], moments[1]))], order))
    assert divisor_sum_series(order) == want
    _assert_fits(widths)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 8), st.one_of(st.integers(0, 8), st.just(INFINITE)), st.integers(1, 3),
       st.integers(1, 3), st.integers(0, 120))
def test_packed_kernel_matches_the_unpacked_terms(k, m, d, s, order):
    if m == 0:
        want = zero(order)
    else:
        first = (_inverse_product(d, k, order) if m == INFINITE
                 else _pascal(m - 1 + k, k, d, order))
        want = _term_sum(first, (m, m + k), (1, k + 1), d, range(0, order + 1, s), repeat(1),
                         order)
    assert kernel_H(k, m, d, s, order) == want


def test_packed_widths_follow_the_width_rules(widths):
    # the kernel at m = inf, bounded by (N+1) * p_2(N), carries 48-bit
    # coefficients in 80-bit slots; at m = 2 the value at q = 1 gives 24
    # bits for 13; the q-binomial sum at n = 4 is bounded by C(n + N, N)
    # and its right side 1/(q; q)_4 by p(N); (q; q)_inf and (-q; q)_inf,
    # no denominator and distinct factors, are bounded by q(N) and carry
    # 1- and 29-bit coefficients in 40-bit slots at N = 200
    kernel_H(1, INFINITE, 1, 2, 149)
    kernel_H(0, 2, 1, 2, 400)
    _q_binomial_sides(4, 1, 200)
    pochhammer(1, 1, 1, INFINITE, 200)
    pochhammer(-1, 1, 1, INFINITE, 200)
    assert [(width, max(map(abs, out.coeffs)).bit_length()) for width, out in widths] == [
        (80, 48), (24, 13), (32, 16), (56, 16), (40, 1), (40, 29)]
