"""Core truncated-series arithmetic: ring laws, truncation semantics,
inversion, and exactness on coefficients far beyond machine-word range."""

import ast
import dataclasses
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qident
from qident.oracles import partition_count
from qident.series import (
    ExactSeries,
    ExponentOutOfOrder,
    NonUnitConstantTerm,
    add,
    coeff,
    divide_binomial,
    from_coeffs,
    from_terms,
    invert,
    monomial,
    mul,
    one,
    scale,
    shift,
    substitute_power,
    weighted_sum,
    zero,
)

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

series_st = st.lists(st.integers(-9, 9), min_size=1, max_size=13).map(from_coeffs)
unit_series_st = st.tuples(
    st.sampled_from((1, -1)),
    st.lists(st.integers(-9, 9), min_size=0, max_size=12),
).map(lambda t: from_coeffs([t[0]] + t[1]))


# ---------------------------------------------------------------------------
# Construction and views
# ---------------------------------------------------------------------------

def test_construction_and_order():
    a = ExactSeries((1, 2, 3))
    assert a.order == 2
    assert a.coeffs == (1, 2, 3)


def test_empty_coefficients_rejected():
    with pytest.raises(ValueError):
        ExactSeries(())


def test_coeffs_coerced_to_tuple():
    a = ExactSeries([1, 2])
    assert isinstance(a.coeffs, tuple)


def test_immutable():
    a = one(4)
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.coeffs = (5,)


def test_valuation_and_is_zero():
    assert zero(5).valuation() is None
    assert zero(5).is_zero()
    assert monomial(7, 3, 6).valuation() == 3
    assert not one(0).is_zero()
    assert one(0).valuation() == 0


def test_from_terms_adds_repeated_exponents_and_drops_high_ones():
    s = from_terms([(2, 3), (0, 1), (2, -5), (7, 9), (4, 4), (5, 1)], 4)
    assert s.coeffs == (1, 0, -2, 0, 4)
    assert from_terms([(1, 2), (1, -2)], 3).coeffs == (0, 0, 0, 0)


def test_from_terms_empty_is_zero():
    assert from_terms([], 5).coeffs == zero(5).coeffs
    assert from_terms(iter(()), 0).coeffs == zero(0).coeffs


def test_from_terms_validates_order_and_exponents():
    with pytest.raises(ValueError):
        from_terms([], -1)
    with pytest.raises(ValueError):
        from_terms([(0, 1)], -1)
    with pytest.raises(ValueError):
        from_terms([(-1, 1)], 4)


def test_monomial_truncates_large_exponent():
    assert monomial(5, 9, 4) == zero(4)
    with pytest.raises(ValueError):
        monomial(1, -1, 4)
    with pytest.raises(ValueError):
        monomial(1, 0, -1)


def test_repr_mentions_truncation():
    assert "O(q^5)" in repr(one(4))


# ---------------------------------------------------------------------------
# Equality truncates to the common order
# ---------------------------------------------------------------------------

def test_equality_compares_common_prefix():
    assert from_coeffs([1, 2, 3]) == from_coeffs([1, 2])
    assert from_coeffs([1, 2]) == from_coeffs([1, 2, 99])
    assert from_coeffs([1, 2, 3]) != from_coeffs([1, 3])
    assert from_coeffs([1]) != 1


def test_series_are_unhashable():
    # truncating == makes (1,) equal to (1, 0); no hash could agree with it
    with pytest.raises(TypeError):
        hash(ExactSeries((1,)))


# ---------------------------------------------------------------------------
# Ring laws
# ---------------------------------------------------------------------------

@given(series_st, series_st)
def test_addition_commutes(a, b):
    assert add(a, b) == add(b, a)


@given(series_st, series_st)
def test_multiplication_commutes(a, b):
    assert mul(a, b) == mul(b, a)


@settings(max_examples=60)
@given(series_st, series_st, series_st)
def test_multiplication_associates(a, b, c):
    assert mul(mul(a, b), c) == mul(a, mul(b, c))


@settings(max_examples=60)
@given(series_st, series_st, series_st)
def test_distributivity(a, b, c):
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


@given(series_st)
def test_one_and_zero_are_neutral(a):
    assert mul(a, one(a.order)) == a
    assert add(a, zero(a.order)) == a
    assert mul(a, zero(a.order)).is_zero()


def test_known_product():
    # (1 - q)(1 + q + q^2 + q^3 + ...) telescopes to 1
    geom = from_coeffs([1] * 8)
    assert mul(from_coeffs([1, -1] + [0] * 6), geom) == one(7)


def test_mul_truncates_to_min_order():
    assert mul(one(9), one(3)).order == 3
    assert add(one(9), one(3)).order == 3


big_st = st.integers(-10 ** 30, 10 ** 30)
mul_operand_st = st.one_of(
    # dense big-int tails behind a run of 0..12 leading zeros
    st.builds(lambda lead, tail: from_coeffs([0] * lead + tail),
              st.integers(0, 12), st.lists(big_st, min_size=1, max_size=14)),
    st.integers(0, 20).map(zero),
    st.builds(monomial, big_st, st.integers(0, 20), st.integers(0, 20)),
)


def _naive_product(a, b):
    """The truncated Cauchy product by the plain double loop."""
    n = min(len(a.coeffs), len(b.coeffs))
    out = [0] * n
    for i in range(n):
        for j in range(n - i):
            out[i + j] += a.coeffs[i] * b.coeffs[j]
    return tuple(out)


@settings(max_examples=300)
@given(mul_operand_st, mul_operand_st)
def test_mul_matches_naive_convolution(a, b):
    expected = _naive_product(a, b)
    assert mul(a, b).coeffs == expected
    assert mul(b, a).coeffs == expected


# ---------------------------------------------------------------------------
# Weighted sums
# ---------------------------------------------------------------------------

def _folded_sum(terms, order):
    """The sum of c*q^e*s by the add/scale/shift fold: shift raises the
    order, add truncates to the smaller one."""
    acc = zero(order)
    for e, c, s in terms:
        acc = add(acc, scale(c, shift(s, e)))
    return acc


@st.composite
def weighted_sum_case(draw):
    order = draw(st.integers(0, 20))
    weight_st = st.one_of(st.sampled_from((0, 1, -1)), big_st)
    series_st = st.lists(big_st, min_size=1, max_size=25).map(from_coeffs)
    terms = draw(st.lists(st.tuples(st.integers(0, order + 3), weight_st, series_st),
                          max_size=6))
    return terms, order


@settings(max_examples=300)
@given(weighted_sum_case())
def test_weighted_sum_matches_add_scale_shift_fold(case):
    terms, order = case
    assert weighted_sum(iter(terms), order).coeffs == _folded_sum(terms, order).coeffs


def test_weighted_sum_empty_is_zero():
    assert weighted_sum([], 5).coeffs == zero(5).coeffs
    assert weighted_sum(iter(()), 0).coeffs == zero(0).coeffs


def test_weighted_sum_validates_order_and_exponents():
    with pytest.raises(ValueError, match="order must be non-negative"):
        weighted_sum([], -1)
    with pytest.raises(ValueError, match="exponent must be non-negative"):
        weighted_sum([(-1, 1, one(4))], 4)


# ---------------------------------------------------------------------------
# Binomial division
# ---------------------------------------------------------------------------

@st.composite
def divide_binomial_case(draw):
    a = draw(mul_operand_st)
    x = draw(st.integers(1, a.order + 2))
    c = draw(st.one_of(st.sampled_from((1, -1)), big_st))
    return a, x, c


@settings(max_examples=300)
@given(divide_binomial_case())
def test_divide_binomial_matches_inverted_binomial_product(case):
    a, x, c = case
    expected = mul(a, invert(from_terms([(0, 1), (x, -c)], a.order)))
    assert divide_binomial(a, x, c).coeffs == expected.coeffs


def test_divide_binomial_rejects_exponents_below_one():
    for x in (0, -1):
        with pytest.raises(ValueError, match="binomial exponent must be >= 1"):
            divide_binomial(one(4), x, 1)


# ---------------------------------------------------------------------------
# Shift / scale / substitution
# ---------------------------------------------------------------------------

def test_shift_extends_order():
    a = from_coeffs([1, 2, 3])
    s = shift(a, 2)
    assert s.order == 4
    assert s.coeffs == (0, 0, 1, 2, 3)
    assert shift(a, 0) is a
    with pytest.raises(ValueError):
        shift(a, -1)


@given(series_st, st.integers(0, 5))
def test_shift_matches_monomial_multiplication(a, e):
    # truncating equality compares the common prefix, where both agree even
    # when e exceeds the order (both sides are then all zeros there)
    assert shift(a, e) == mul(a, monomial(1, e, a.order))


def test_scale_identity_returns_same_object():
    a = from_coeffs([1, 2])
    assert scale(1, a) is a
    assert scale(3, a).coeffs == (3, 6)


def test_substitute_power():
    # the result stays at the input's order: q^(d*n) keeps a[n] while
    # d*n fits, everything else is dropped
    a = from_coeffs([1, 2, 3, 0, 0, 0, 0])
    assert substitute_power(a, 1) is a
    assert substitute_power(a, 3).coeffs == (1, 0, 0, 2, 0, 0, 3)
    assert substitute_power(from_coeffs([1, 2, 3]), 3).coeffs == (1, 0, 0)
    with pytest.raises(ValueError):
        substitute_power(a, 0)


@given(series_st, st.integers(1, 3), st.integers(1, 3))
def test_substitution_composes(a, d1, d2):
    assert substitute_power(substitute_power(a, d1), d2) == substitute_power(a, d1 * d2)


# ---------------------------------------------------------------------------
# Inversion
# ---------------------------------------------------------------------------

@given(unit_series_st)
def test_invert_round_trip(a):
    assert mul(a, invert(a)) == one(a.order)


def test_invert_requires_unit_constant():
    with pytest.raises(NonUnitConstantTerm):
        invert(from_coeffs([0, 1]))
    with pytest.raises(NonUnitConstantTerm):
        invert(from_coeffs([2, 1]))


def test_invert_negative_unit():
    a = from_coeffs([-1, 1, 1])
    assert mul(a, invert(a)) == one(2)


def test_geometric_series_inverse():
    assert invert(from_coeffs([1, -1, 0, 0, 0])).coeffs == (1, 1, 1, 1, 1)


# ---------------------------------------------------------------------------
# Coefficient access
# ---------------------------------------------------------------------------

def test_coeff_access_and_bounds():
    a = from_coeffs([4, 5, 6])
    assert coeff(a, 0) == 4
    assert coeff(a, 2) == 6
    with pytest.raises(ExponentOutOfOrder):
        coeff(a, 3)
    with pytest.raises(ExponentOutOfOrder):
        coeff(a, -1)


# ---------------------------------------------------------------------------
# Exactness beyond machine words
# ---------------------------------------------------------------------------

def test_big_coefficients_survive_inversion():
    """Invert the pentagonal product, square it, and match the convolution
    of exact partition counts at exponent 300 (the value exceeds 2^64)."""
    order = 300
    product = one(order)
    for i in range(1, order + 1):
        product = mul(product, add(one(order), monomial(-1, i, order)))
    inv = invert(product)
    assert inv.coeffs[:8] == (1, 1, 2, 3, 5, 7, 11, 15)
    assert inv.coeffs[100] == 190569292
    squared = mul(inv, inv)
    expected = sum(partition_count(i) * partition_count(order - i)
                   for i in range(order + 1))
    assert squared.coeffs[order] == expected == 163877604870748875248345
    assert expected > 2 ** 64


# ---------------------------------------------------------------------------
# One arithmetic core
# ---------------------------------------------------------------------------

def _exact_series_calls(path):
    """Line numbers of the ExactSeries(...) calls in one source file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call) and (
            (isinstance(node.func, ast.Name) and node.func.id == "ExactSeries")
            or (isinstance(node.func, ast.Attribute) and node.func.attr == "ExactSeries")
        )
    ]


def test_only_series_module_constructs_exact_series():
    package = Path(qident.__file__).parent
    calls = {path.name: _exact_series_calls(path) for path in sorted(package.glob("*.py"))}
    assert calls.pop("series.py"), "the guard found no constructor call at all"
    assert {name: lines for name, lines in calls.items() if lines} == {}
