"""Core truncated-series arithmetic: ring laws, truncation semantics,
inversion, and exactness on coefficients far beyond machine-word range."""

import ast
import inspect
import operator
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qident
from qident import identities, qtools, series
from qident.oracles import partition_count
from qident.series import (
    ExactSeries,
    ExponentOutOfOrder,
    NonUnitConstantTerm,
    add,
    binomial_steps,
    chain_sums,
    chain_width,
    coeff,
    divide_binomial,
    from_coeffs,
    from_terms,
    invert,
    monomial,
    mul,
    one,
    packed_width,
    scale,
    shift,
    substitute_power,
    unpack,
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
    with pytest.raises(AttributeError):
        a.coeffs = (5,)
    with pytest.raises(AttributeError):
        del a.coeffs
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a.coeffs == (1, 0, 0, 0, 0)
    assert a == one(4)
    assert not hasattr(a, "extra")


def test_zero_is_all_zeros_and_not_one():
    assert zero(5).coeffs == (0,) * 6
    assert one(0) != zero(0)


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
# Equality and hashing compare whole coefficient tuples
# ---------------------------------------------------------------------------

def test_equality_compares_whole_coefficient_tuples():
    # a shorter order is never equal, even where the common prefix agrees;
    # verify compares prefixes, == does not
    assert from_coeffs([1, 2]) == from_coeffs([1, 2])
    assert from_coeffs([1, 2, 3]) != from_coeffs([1, 2])
    assert from_coeffs([1, 2]) != from_coeffs([1, 2, 0])
    assert from_coeffs([1, 2, 3]) != from_coeffs([1, 3, 3])
    assert from_coeffs([1]) != 1
    # a series is no tuple: only another series can be equal to it
    assert from_coeffs([1, 2]) != (1, 2)
    assert from_coeffs([1, 2]).__eq__((1, 2)) is NotImplemented


def test_series_are_hashable_values():
    assert hash(from_coeffs([1, 2])) == hash(from_coeffs([1, 2]))
    assert len({one(3), one(3), zero(3), one(4)}) == 3
    assert {from_coeffs([1, 2]): "a"}[from_coeffs((1, 2))] == "a"
    assert hash(from_coeffs([1, 2])) == hash(((1, 2),))


@settings(max_examples=200)
@given(st.lists(st.lists(st.integers(-1, 1), min_size=1, max_size=3), min_size=3, max_size=3))
def test_equality_and_hash_obey_the_value_contract(rows):
    # tiny coefficients and orders 0..2, so equal and mixed-order pairs
    # both come up often
    a, b, c = map(from_coeffs, rows)
    assert (a == b) == (a.coeffs == b.coeffs)
    if a == b:
        assert hash(a) == hash(b)
    if a == b and b == c:
        assert a == c
    assert len({a, b, c}) == len({a.coeffs, b.coeffs, c.coeffs})
    keyed = {a: "a", b: "b"}
    assert keyed[b] == "b"
    assert keyed[a] == ("b" if a.coeffs == b.coeffs else "a")


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
    assert mul(a, zero(a.order)) == zero(a.order)


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


def test_mul_is_a_weighted_sum_over_the_sparser_operand(monkeypatch):
    real = qident.series.weighted_sum
    calls = []

    def recorder(terms, order):
        terms = list(terms)
        calls.append(([(e, c) for e, c, _ in terms], {id(s) for _, _, s in terms}))
        return real(terms, order)

    monkeypatch.setattr(qident.series, "weighted_sum", recorder)
    dense = from_coeffs(range(1, 12))
    sparse = from_terms([(0, 1), (3, -2), (7, 5)], 10)
    for x, y in ((dense, sparse), (sparse, dense)):
        calls.clear()
        assert mul(x, y).coeffs == _naive_product(x, y)
        assert calls == [([(0, 1), (3, -2), (7, 5)], {id(dense)})]

    # a tie in nonzero count: the first operand drives
    first, second = from_terms([(1, 4), (2, 3)], 6), from_terms([(0, 7), (5, 1)], 6)
    calls.clear()
    assert mul(first, second).coeffs == _naive_product(first, second)
    assert calls == [([(1, 4), (2, 3)], {id(second)})]

    # a zero driver hands over no terms
    calls.clear()
    assert mul(dense, zero(10)).coeffs == zero(10).coeffs
    assert calls == [([], set())]


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


def _divided(coeffs, x, c):
    """Test-local quotient by (1 - c*q^x): one forward pass of
    b[n] += c*b[n-x], not shared with divide_binomial."""
    b = list(coeffs)
    for n in range(x, len(b)):
        b[n] += c * b[n - x]
    return tuple(b)


# Order 200 makes 201 coefficients, so the residue/block switch at
# x*x < n falls between x = 14 and 15 for divide_binomial on a dense
# series.
LONG_ORDER = 200
LONG_EXPONENTS = (1, 2, 13, 14, 15, 100, 199)
LONG_WEIGHTS = (-2, -1, 0, 1, 2, 10 ** 30 + 7)


def _long_series(seed, lead=0):
    """A dense order-200 series with big coefficients after lead zeros."""
    return from_coeffs([0] * lead + [(seed * 7919 * n + 13) % 1000003 * (-1) ** (n % 3)
                                     * 10 ** (n % 25) + n + 1
                                     for n in range(LONG_ORDER + 1 - lead)])


@pytest.mark.parametrize("x", LONG_EXPONENTS)
@pytest.mark.parametrize("c", LONG_WEIGHTS)
def test_divide_binomial_matches_forward_pass_at_order_200(x, c):
    for a in (_long_series(1), _long_series(2, lead=3)):
        assert divide_binomial(a, x, c).coeffs == _divided(a.coeffs, x, c)


@settings(max_examples=200)
@given(divide_binomial_case())
def test_divide_binomial_matches_forward_pass(case):
    a, x, c = case
    assert divide_binomial(a, x, c).coeffs == _divided(a.coeffs, x, c)


@pytest.mark.parametrize("x, residue_classes", [(14, 14), (15, 0)])
def test_binomial_division_switches_from_residues_to_blocks_at_the_square_root(
        monkeypatch, x, residue_classes):
    # a dense order-200 series: n = 201 entries from the valuation on, so
    # x = 14 divides each of its 14 residue classes with accumulate and
    # x = 15 (225 >= 201) goes block by block without it
    calls = []
    real = qident.series.accumulate

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(qident.series, "accumulate", counting)
    a = _long_series(3)
    assert divide_binomial(a, x, 1).coeffs == _divided(a.coeffs, x, 1)
    assert len(calls) == residue_classes


def test_divide_binomial_rejects_exponents_below_one():
    for x in (0, -1):
        with pytest.raises(ValueError, match=f"^x must be >= 1, got {x}$"):
            divide_binomial(one(4), x, 1)


# ---------------------------------------------------------------------------
# Packed series: q -> 2^W
# ---------------------------------------------------------------------------

def _fitting_width(*parts):
    """The packed width of the largest |coefficient| in the series given."""
    return packed_width(max(abs(c) for a in parts for c in a.coeffs))


def _encode(a, width, order):
    """a at q = 2^width up to q^order, summed here, not by the package."""
    return sum(c << width * i for i, c in enumerate(a.coeffs[: order + 1]))


@settings(max_examples=200)
@given(mul_operand_st, st.integers(0, 25))
def test_pack_and_unpack_round_trip(a, order):
    order = min(order, a.order)
    width = _fitting_width(a)
    assert unpack(_encode(a, width, order), width, order) == from_coeffs(a.coeffs[: order + 1])


def test_packed_width_leaves_a_sign_bit_above_the_bound():
    assert [packed_width(b) for b in (0, 1, 127, 128, 2 ** 15 - 1, 2 ** 15)] == [
        8, 8, 8, 16, 16, 24]
    # 128 needs a sign bit above its 8 bits: an 8-bit slot reads it as -128
    assert unpack(_encode(from_coeffs([0, 128]), 8, 1), 8, 1) == from_coeffs([0, -128])


@st.composite
def binomial_steps_case(draw):
    a = draw(mul_operand_st)
    factor = st.tuples(st.integers(1, a.order + 2), st.one_of(st.sampled_from((1, -1, 0)),
                                                               st.integers(-3, 3), big_st))
    return a, draw(st.lists(factor, max_size=4)), draw(st.lists(factor, max_size=4))


@settings(max_examples=150)
@given(binomial_steps_case())
def test_binomial_steps_match_the_unpacked_products_and_divisions(case):
    # the width fits the input and the result only: whatever the values in
    # between, the packed quotient is the image of the exact one
    a, top, bottom = case
    want = a
    for x, c in top:
        want = weighted_sum([(0, 1, want), (x, -c, want)], a.order)
    for x, c in bottom:
        want = divide_binomial(want, x, c)
    width = _fitting_width(a, want)
    got = binomial_steps(_encode(a, width, a.order), top, bottom, width, a.order)
    assert unpack(got, width, a.order) == want


@pytest.mark.parametrize("x", LONG_EXPONENTS)
@pytest.mark.parametrize("c", LONG_WEIGHTS)
def test_packed_division_matches_forward_pass_at_order_200(x, c):
    for a in (_long_series(1), _long_series(2, lead=3)):
        want = from_coeffs(_divided(a.coeffs, x, c))
        width = _fitting_width(a, want)
        got = binomial_steps(_encode(a, width, LONG_ORDER), (), [(x, c)], width, LONG_ORDER)
        assert unpack(got, width, LONG_ORDER) == want


# ---------------------------------------------------------------------------
# Chain sums
# ---------------------------------------------------------------------------

def _add_cell(acc, s, e, c):
    """Test-local chain-DP cell acc + q^e*s/(1 - c*q^e)^2 at order
    min(acc.order, s.order + e): two divide_binomial calls and one
    weighted_sum."""
    quotient = divide_binomial(divide_binomial(s, e, c), e, c)
    return weighted_sum([(0, 1, acc), (e, 1, quotient)], acc.order)


@st.composite
def add_cell_case(draw):
    acc = draw(st.lists(big_st, min_size=1, max_size=25).map(from_coeffs))
    s = draw(mul_operand_st)
    e = draw(st.one_of(st.just(1), st.integers(1, acc.order + 3)))
    c = draw(st.integers(-2, 2))
    return acc, s, e, c


# The reference row DP below is built from _add_cell, so the cell itself is
# checked against forward passes that share no code with the package.
@settings(max_examples=300)
@given(add_cell_case())
@example((from_coeffs(range(1, 9)), zero(5), 2, 1))  # s = 0
@example((from_coeffs(range(1, 9)), zero(12), 3, -2))  # s = 0, s longer than acc
@example((from_coeffs(range(1, 8)), monomial(3, 5, 10), 2, 1))  # valuation above N - e
@example((from_coeffs(range(1, 8)), monomial(3, 4, 10), 2, -1))  # first term at q^N
@example((from_coeffs([1, 2, 3, 4]), one(6), 5, 2))  # e > N
@example((from_coeffs([0] * 25), from_coeffs(range(1, 20)), 1, 2))  # e = 1, s shorter
@example((from_coeffs(range(30)), from_coeffs([0, 0, 7, -1]), 1, -2))  # e = 1, short s
def test_add_cell_matches_shift_divide_twice_add(case):
    acc, s, e, c = case
    order = min(acc.order, s.order + e)
    shifted = ((0,) * e + s.coeffs)[: order + 1]
    quotient = _divided(_divided(shifted, e, c), e, c)
    expected = tuple(map(operator.add, acc.coeffs, quotient))
    assert _add_cell(acc, s, e, c).coeffs == expected


@pytest.mark.parametrize("e", LONG_EXPONENTS)
@pytest.mark.parametrize("c", LONG_WEIGHTS)
def test_add_cell_matches_forward_passes_at_order_200(e, c):
    acc = _long_series(4)
    for s in (_long_series(5), _long_series(6, lead=2), _long_series(7, lead=LONG_ORDER)):
        shifted = ((0,) * e + s.coeffs)[: LONG_ORDER + 1]
        quotient = _divided(_divided(shifted, e, c), e, c)
        expected = tuple(map(operator.add, acc.coeffs, quotient))
        assert _add_cell(acc, s, e, c).coeffs == expected


def _row_dp(exponents, sign, strict, top, order):
    """Test-local chain DP, row by row: S_0 .. S_top with
    S_i(n) = S_i(n-1) + q^e(n) * S_{i-1}(n or n-1) / (1 - sign*q^e(n))^2,
    one _add_cell per cell."""
    out = [one(order)]
    last_row = [one(order)] * (len(exponents) + 1)
    for _ in range(top):
        row = [zero(order)]
        for n, e in enumerate(exponents, 1):
            row.append(_add_cell(row[n - 1], last_row[n - 1] if strict else last_row[n],
                                 e, sign))
        out.append(row[-1])
        last_row = row
    return out


# (exponent of magnitude n, strict) for the families V, W, A and C
CHAIN_KINDS = {"V": (lambda n: n, False), "W": (lambda n: 2 * n - 1, False),
               "A": (lambda n: n, True), "C": (lambda n: 2 * n - 1, True)}


def _tight_width(exponents, strict, order):
    """The width the chain sums once measured: the next byte above the
    largest sum over all j of S_j^+ (the sweep at sign +1 with t = 1);
    an exponent above the order adds nothing to it."""
    return packed_width(max(series._chain_sweep(exponents, 1, strict, 0, -1, order)))


def _last_row(exponents, strict, order):
    """The largest j whose j-chains reach q^order: j copies of the
    smallest exponent (weak) or the j smallest (strict)."""
    reach = [0]
    while len(reach) <= len(exponents) or not strict:
        step = exponents[len(reach) - 1] if strict else exponents[0]
        if reach[-1] + step > order:
            break
        reach.append(reach[-1] + step)
    return len(reach) - 1


@pytest.mark.parametrize("kind", sorted(CHAIN_KINDS))
@pytest.mark.parametrize("sign", (1, -1))
@pytest.mark.parametrize("m", (1, 3, None))
@pytest.mark.parametrize("order", (0, 5, 17, 40))
def test_chain_sums_match_row_dp(kind, sign, m, order):
    atom_exponent, strict = CHAIN_KINDS[kind]
    exponents = [atom_exponent(n) for n in range(1, (m or order) + 1)
                 if atom_exponent(n) <= order]
    width = _tight_width(exponents, strict, order)
    last = _last_row(exponents, strict, order) if exponents else 0
    reference = _row_dp(exponents, sign, strict, last + 2, order)
    assert reference[last + 1] == reference[last + 2] == zero(order)
    for top in sorted({0, last // 2, last, last + 2}):
        assert chain_sums(exponents, sign, strict, top, order, width) == reference[: top + 1]


@pytest.mark.parametrize("sign", (1, -1))
@pytest.mark.parametrize("strict", (False, True))
def test_chain_sums_match_row_dp_across_residue_chunks(sign, strict):
    # an exponent e above _CHUNK splits its residues mod e into
    # several chunks, each walked up the blocks of e exponents
    exponents = [1, 2, 33, 40, 70, 71]
    order = 110
    width = _tight_width(exponents, strict, order)
    assert max(exponents) > qident.series._CHUNK
    assert chain_sums(exponents, sign, strict, 4, order, width) == _row_dp(
        exponents, sign, strict, 4, order)


def test_chain_sums_exponents_above_the_order_add_nothing():
    width = chain_width(False, 9)
    assert (chain_sums([50, 2, 10, 3], -1, False, 4, 9, width)
            == chain_sums([2, 3], -1, False, 4, 9, width))


def test_chain_sums_fill_all_but_the_sign_bit_of_a_slot():
    # C at order 13 with sign -1: magnitudes 1..7, exponents 1, 3, .., 13.
    # Its all-length sign +1 sum peaks below 2^7, so the tight slots are 8
    # bits wide, and the largest |S_j[m]| up to j = 2 needs all 7 value bits.
    exponents = [1, 3, 5, 7, 9, 11, 13]
    width = _tight_width(exponents, True, 13)
    assert width == 8 < chain_width(True, 13)
    sums = chain_sums(exponents, -1, True, 2, 13, width)
    assert sums == _row_dp(exponents, -1, True, 2, 13)
    assert max(abs(c) for s in sums for c in s.coeffs).bit_length() == width - 1


def test_tight_width_sweep_reads_the_even_fibonacci_numbers():
    # one atom q/(1 - q)^2: the sum over all j of S_j^+ at q^m is the
    # coefficient of 1/(1 - q/(1 - q)^2) = (1 - q)^2/(1 - 3q + q^2):
    # 1, then the Fibonacci numbers F(2m) = 1, 3, 8, 21, 55, 144, 377
    assert series._chain_sweep([1], 1, False, 0, -1, 7) == [1, 1, 3, 8, 21, 55, 144, 377]
    assert [_tight_width([1], False, n) for n in range(8)] == [8] * 6 + [16, 16]


@pytest.mark.parametrize("kind", sorted(CHAIN_KINDS))
@pytest.mark.parametrize("m", (1, 3, None))
def test_chain_width_bounds_the_tight_width(kind, m):
    # the closed form is sound at every order up to 120, for every family
    # and magnitude bound m (None: unbounded)
    atom_exponent, strict = CHAIN_KINDS[kind]
    for order in range(121):
        exponents = [atom_exponent(n) for n in range(1, (m or order) + 1)]
        assert chain_width(strict, order) >= _tight_width(exponents, strict, order), order


@pytest.mark.parametrize("kind", ("V", "W"))
def test_chain_width_is_tight_at_the_deep_weak_orders(kind):
    # at the chain_deep orders the weak tables run on the integers the
    # measured width gave them
    atom_exponent, _ = CHAIN_KINDS[kind]
    for order, width in ((150, 216), (180, 256), (400, 560)):
        exponents = [atom_exponent(n) for n in range(1, order + 1)]
        assert chain_width(False, order) == _tight_width(exponents, False, order) == width


def test_chain_width_takes_strict_and_order_and_src_sweeps_only_in_chain_sums():
    assert list(inspect.signature(chain_width).parameters) == ["strict", "order"]
    # no width pre-sweep: the one _chain_sweep call is chain_sums' own
    package = Path(qident.__file__).parent
    sites = {(path.name, scope) for path in sorted(package.glob("*.py"))
             for scope, _ in _calls(path, "_chain_sweep")}
    assert sites == {("series.py", "chain_sums")}


def test_chain_sums_reject_repeated_exponents():
    # the width proof holds for distinct atoms only: exponent 1 twice at
    # order 40 reaches 2^58, above 3 * L_80 (about 2^57.1)
    lucas, after = 2, 1  # L_0, L_1
    for _ in range(80):
        lucas, after = after, lucas + after
    assert max(series._chain_sweep([1, 1], 1, False, 0, -1, 40)) >= 2 ** 58 > 3 * lucas
    with pytest.raises(ValueError, match="^exponents must be distinct, got 1 twice$"):
        chain_sums([1, 1], 1, False, 2, 40, chain_width(False, 40))
    with pytest.raises(ValueError, match="^exponents must be distinct, got 3 twice$"):
        chain_sums([3, 2, 3], -1, True, 2, 10, 8)


def test_chain_sums_reject_bad_arguments():
    with pytest.raises(ValueError, match="^exponent must be >= 1, got 0$"):
        chain_sums([0], 1, False, 1, 4, 8)
    with pytest.raises(ValueError, match="^top must be non-negative, got -1$"):
        chain_sums([1], 1, False, -1, 4, 8)
    with pytest.raises(ValueError, match="^sign must be \\+1 or -1, got 2$"):
        chain_sums([1], 2, False, 1, 4, 8)


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
    # shift keeps order a.order + e, the product a.order: compare the
    # product's range, all zeros there when e exceeds the order
    product = mul(a, monomial(1, e, a.order))
    assert shift(a, e).coeffs[: a.order + 1] == product.coeffs


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

def _sites(path, hit):
    """(innermost enclosing function, line) of each node of one source file
    for which ``hit`` holds, with "<module>" for a node outside every
    function."""
    tree = ast.parse(path.read_text(), filename=str(path))
    sites = {}
    # ast.walk visits a scope before the scopes nested in it, so the
    # innermost one is recorded last
    for scope in ast.walk(tree):
        if isinstance(scope, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(scope):
                if hit(node):
                    sites[node.lineno, node.col_offset] = getattr(scope, "name", "<module>")
    return sorted((scope, line) for (line, _), scope in sites.items())


def _calls(path, name):
    """(innermost enclosing function, line) of each call to ``name``."""
    return _sites(path, lambda node: isinstance(node, ast.Call) and name in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None)))


def test_only_series_module_constructs_exact_series():
    package = Path(qident.__file__).parent
    calls = {path.name: _calls(path, "ExactSeries") for path in sorted(package.glob("*.py"))}
    assert calls.pop("series.py"), "the guard found no constructor call at all"
    assert {name: sites for name, sites in calls.items() if sites} == {}


def test_only_verify_compares_the_two_sides():
    # a check returns its two series; verify is the one place comparing them
    package = Path(qident.__file__).parent
    sites = [(path.name, scope) for path in sorted(package.glob("*.py"))
             for scope, _ in _calls(path, "_first_discrepancy")]
    assert sites == [("identities.py", "verify")]


@pytest.mark.parametrize("reference, own", [
    # the q-Pascal recurrence the tests compare gaussian_binomial against;
    # only its own recursion calls it
    ("_gauss_poly", {("qtools.py", "_gauss_poly")}),
    # the whole-series inverse the tests compare every binomial division
    # against; every reciprocal is built by binomial divisions instead
    ("invert", set()),
    # the unpacked binomial division and the per-term generator built on
    # it: every binomial product and term-ratio sum is packed instead
    ("divide_binomial", {("qtools.py", "hypergeometric_terms")}),
    ("hypergeometric_terms", set()),
])
def test_no_build_path_calls_a_reference(reference, own):
    package = Path(qident.__file__).parent
    sites = {(path.name, scope) for path in sorted(package.glob("*.py"))
             for scope, _ in _calls(path, reference)}
    assert sites == own


def test_chain_sums_and_unpack_share_the_one_decode():
    # the packed format has one reader, _reader's read: no other function
    # splits a packed integer into the bytes of its slots
    path = Path(qident.__file__).parent / "series.py"
    assert {scope for scope, _ in _calls(path, "_reader")} == {"chain_sums", "unpack"}
    assert {scope for scope, _ in _calls(path, "to_bytes")} == {"_bias", "read"}


# Every name of the packed format (q -> 2^W): its kernels, steps, decode
# and width rule.
_PACKED_NAMES = {"_SIGNED_ADD", "_times_packed", "_divide_packed", "binomial_steps", "unpack",
                 "_reader", "packed_width", "pack"}


def _names_packed(node):
    """A name, attribute, import or definition of the packed format."""
    return bool(_PACKED_NAMES & {getattr(node, "id", None), getattr(node, "attr", None),
                                 getattr(node, "name", None)})


def _shifts_left(node):
    """An x << y or x <<= y."""
    return isinstance(getattr(node, "op", None), ast.LShift)


def test_only_series_touches_packed_integers():
    # the other modules hand series factor lists and a coefficient bound;
    # series alone packs, steps, shifts and unpacks
    package = Path(qident.__file__).parent
    paths = sorted(package.glob("*.py"))
    named = {path.name: _sites(path, _names_packed) for path in paths}
    assert named.pop("series.py"), "the guard found no packed name at all"
    assert {name: sites for name, sites in named.items() if sites} == {}
    # no << outside series either
    shifts = {(path.name, scope) for path in paths if path.name != "series.py"
              for scope, _ in _sites(path, _shifts_left)}
    assert shifts == set()
    assert not hasattr(series, "pack")
    assert list(inspect.signature(qtools._binomial_quotient).parameters) == [
        "top", "bottom", "order"]
    assert [scope for scope, _ in _calls(package / "identities.py", "mul")
            if scope == "_eta_quotient"] == []


def test_families_reads_its_tables_only_through_rows():
    # an index transform takes the rows it sums from one _rows call, not
    # one family_series call (a spec and a lock round trip) per row
    path = Path(qident.__file__).parent / "families.py"
    assert _calls(path, "family_series") == []
    tables = {scope for scope, _ in _sites(
        path, lambda node: getattr(node, "id", None) == "_tables")}
    assert tables == {"<module>", "_rows"}


def test_every_build_path_divides_by_one_minus_q_to_the_x(monkeypatch):
    # the width rules bound a quotient by (1 - c*q^x) with max(1, |c|)^N
    # times the c = 1 majorant; a caller dividing with |c| > 1 would
    # silently widen every slot by N*bits(c)
    for cached in (qtools.pochhammer, qtools.squared_pochhammer, qtools.kernel_H,
                   identities._eta_quotient):
        cached.cache_clear()
    divide, signs = series._divide_packed, []

    def spy(u, x, c, width, mask, order):
        signs.append(c)
        return divide(u, x, c, width, mask, order)

    monkeypatch.setattr(series, "_divide_packed", spy)
    assert all(report.holds for report in qident.verify_suite(20))
    assert signs and set(signs) == {1}


def _raises_a_range_message(node):
    """A raise whose message text states a lower bound on an argument."""
    return isinstance(node, ast.Raise) and any(
        isinstance(part, ast.Constant) and isinstance(part.value, str)
        and re.search(r"non-negative|positive|>=", part.value)
        for part in ast.walk(node))


def test_one_helper_states_every_argument_range():
    # every engine builder checks its integer arguments through _check_int
    package = Path(qident.__file__).parent
    sites = [(name, scope) for name in ("series.py", "qtools.py", "families.py", "identities.py")
             for scope, _ in _sites(package / name, _raises_a_range_message)]
    assert sites == [("series.py", "_check_int")]


def _unused_imports(path):
    """Names a source file imports but never reads; names listed in its
    ``__all__`` count as read."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = {
        elt.value for node in tree.body if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for elt in node.value.elts
    }
    return sorted(imported - used - exported)


def test_no_module_imports_a_name_it_never_uses():
    paths = sorted(Path(qident.__file__).parent.glob("*.py")) + sorted(
        Path(__file__).parent.glob("*.py"))
    unused = {path.name: _unused_imports(path) for path in paths}
    assert {name: names for name, names in unused.items() if names} == {}
