"""q-Pochhammer products, Gaussian binomials, the double-binomial kernel,
basic hypergeometric evaluation, and theta/one-sided triangular sums."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qident.qtools import (
    HALF,
    INFINITE,
    WHOLE,
    PochSpec,
    alt_triangular_sum,
    gaussian_binomial,
    kernel_H,
    phi2_1,
    pochhammer,
    theta_phi_neg,
    theta_psi,
)
from qident.series import from_coeffs, invert, mul, one, substitute_power, zero

# ---------------------------------------------------------------------------
# PochSpec validation
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
        PochSpec(**kwargs)


# ---------------------------------------------------------------------------
# Pochhammer products
# ---------------------------------------------------------------------------

def test_finite_products():
    # (1-q)(1-q^2)(1-q^3)
    p = pochhammer(PochSpec(sign=1, offset=1, step=1, length=3), 6)
    assert p.coeffs == (1, -1, -1, 0, 1, 1, -1)
    # (1+q)(1+q^2)
    p = pochhammer(PochSpec(sign=-1, offset=1, step=1, length=2), 3)
    assert p.coeffs == (1, 1, 1, 1)
    # zero factors = empty product
    assert pochhammer(PochSpec(sign=1, offset=1, step=1, length=0), 4) == one(4)


def test_infinite_product_pentagonal_prefix():
    p = pochhammer(PochSpec(sign=1, offset=1, step=1, length=INFINITE), 15)
    assert p.coeffs == (1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1, 0, 0, -1)


def test_infinite_product_matches_long_finite_one():
    infinite = pochhammer(PochSpec(sign=1, offset=1, step=1, length=INFINITE), 12)
    finite = pochhammer(PochSpec(sign=1, offset=1, step=1, length=40), 12)
    assert infinite == finite


def test_even_base_product_is_substitution():
    even = pochhammer(PochSpec(sign=1, offset=2, step=2, length=INFINITE), 16)
    plain = pochhammer(PochSpec(sign=1, offset=1, step=1, length=INFINITE), 16)
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
    spec = PochSpec(sign=sign, offset=offset, step=step, length=length)
    assert pochhammer(spec, order).coeffs == _in_place_product(
        sign, offset, step, length, order)


def test_pochhammer_results_are_cached():
    spec = PochSpec(sign=-1, offset=1, step=2, length=INFINITE)
    assert pochhammer(spec, 10) is pochhammer(spec, 10)


# ---------------------------------------------------------------------------
# Gaussian binomials
# ---------------------------------------------------------------------------

def test_gaussian_binomial_classic_value():
    assert gaussian_binomial(4, 2, 1, 4).coeffs == (1, 1, 2, 1, 1)


def test_gaussian_binomial_out_of_range_is_zero():
    assert gaussian_binomial(3, 5, 1, 4) == zero(4)
    assert gaussian_binomial(3, -1, 1, 4) == zero(4)


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


# ---------------------------------------------------------------------------
# Kernel and its hypergeometric form
# ---------------------------------------------------------------------------

def test_kernel_reference_value():
    assert kernel_H(1, 2, 1, 2, 4).coeffs == (1, 1, 1, 2, 3)


def test_kernel_vanishes_at_empty_bound():
    for k in range(4):
        assert kernel_H(k, 0, 1, 2, 8).is_zero()
        assert kernel_H(k, 0, 2, 2, 8).is_zero()


def test_kernel_validates_arguments():
    with pytest.raises(ValueError):
        kernel_H(-1, 2, 1, 2, 4)
    with pytest.raises(ValueError):
        kernel_H(1, 2, 0, 2, 4)
    with pytest.raises(ValueError):
        kernel_H(1, 2, 1, 0, 4)


def test_kernel_rejects_an_unbounded_m():
    # [m-1+j, j] is no polynomial for m = inf; kernel_H must refuse it
    # rather than recurse through _gauss_poly without end.
    with pytest.raises(ValueError, match="finite bound m, got m=inf"):
        kernel_H(1, INFINITE, 1, 2, 4)


@pytest.mark.parametrize("d", (1, 2))
@pytest.mark.parametrize("m", (1, 2, 3))
@pytest.mark.parametrize("k", (0, 1, 2, 3))
def test_kernel_equals_binomial_times_hypergeometric(d, m, k):
    # H_{k,m}(Q, q^s) = [m-1+k, k]_Q * 2phi1(Q^m, Q^(m+k); Q^(k+1); Q, q^s)
    order = 20
    lhs = kernel_H(k, m, d, 2, order)
    rhs = mul(gaussian_binomial(m - 1 + k, k, d, order),
              phi2_1(m, m + k, k + 1, d, 2, order))
    assert lhs == rhs


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
    qq = pochhammer(PochSpec(sign=1, offset=1, step=1, length=INFINITE), order)
    mq = pochhammer(PochSpec(sign=-1, offset=1, step=1, length=INFINITE), order)
    assert mul(theta_phi_neg(order), mq) == qq


def test_theta_psi_product_form():
    # psi(q) = (q^2;q^2)_inf / (q;q^2)_inf
    order = 30
    q2 = pochhammer(PochSpec(sign=1, offset=2, step=2, length=INFINITE), order)
    qodd = pochhammer(PochSpec(sign=1, offset=1, step=2, length=INFINITE), order)
    assert mul(theta_psi(order), qodd) == q2


# ---------------------------------------------------------------------------
# One-sided alternating triangular sums
# ---------------------------------------------------------------------------

def test_half_variant_reference_values():
    assert alt_triangular_sum(2, HALF, 7).coeffs == (1, 0, 0, -1, 0, 0, 0, 1)
    assert alt_triangular_sum(0, HALF, 6).coeffs == (1, -1, 0, 1, 0, 0, -1)


def test_whole_variant_reference_values():
    assert alt_triangular_sum(1, WHOLE, 10).coeffs == (0, 1, 0, 0, 0, -1, 0, 0, 0, 0, 0)
    assert alt_triangular_sum(0, WHOLE, 7).coeffs == (1, 0, -1, 0, 0, 0, 1, 0)


@pytest.mark.parametrize("k", range(5))
def test_half_variant_starts_at_one(k):
    # leading term q^(T_k - T_k) = 1, next term -q^(k+1)
    series = alt_triangular_sum(k, HALF, 25)
    assert series.valuation() == 0
    assert series.coeffs[0] == 1
    assert series.coeffs[k + 1] == -1


@pytest.mark.parametrize("k", range(5))
def test_whole_variant_starts_at_exponent_k(k):
    # leading term q^(k(k+1) - k^2) = q^k
    series = alt_triangular_sum(k, WHOLE, 25)
    assert series.valuation() == k
    assert series.coeffs[k] == 1


def test_alt_triangular_sum_validates_arguments():
    with pytest.raises(ValueError):
        alt_triangular_sum(-1, HALF, 5)
    with pytest.raises(ValueError):
        alt_triangular_sum(0, "bogus", 5)
