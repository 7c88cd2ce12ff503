"""Core truncated-series arithmetic: ring laws, truncation semantics,
inversion, and exactness on coefficients far beyond machine-word range."""

import ast
import dataclasses
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qident
from qident.oracles import partition_count
from qident.series import (
    ExactSeries,
    ExponentOutOfOrder,
    NonUnitConstantTerm,
    add,
    add_cell,
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
    _valuation,
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
    # divide_binomial starts its pass from this private valuation
    assert _valuation(zero(5).coeffs) is None
    assert zero(5).coeffs == (0,) * 6
    assert _valuation(monomial(7, 3, 6).coeffs) == 3
    assert one(0) != zero(0)
    assert _valuation(one(0).coeffs) == 0


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


def test_series_are_hashable_values():
    assert hash(from_coeffs([1, 2])) == hash(from_coeffs([1, 2]))
    assert len({one(3), one(3), zero(3), one(4)}) == 3
    assert {from_coeffs([1, 2]): "a"}[from_coeffs((1, 2))] == "a"


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


def test_divide_binomial_rejects_exponents_below_one():
    for x in (0, -1):
        with pytest.raises(ValueError, match=f"^x must be >= 1, got {x}$"):
            divide_binomial(one(4), x, 1)


# ---------------------------------------------------------------------------
# The chain-DP cell
# ---------------------------------------------------------------------------

@st.composite
def add_cell_case(draw):
    acc = draw(st.lists(big_st, min_size=1, max_size=25).map(from_coeffs))
    s = draw(mul_operand_st)
    e = draw(st.one_of(st.just(1), st.integers(1, acc.order + 3)))
    c = draw(st.integers(-2, 2))
    return acc, s, e, c


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
    shifted = weighted_sum([(e, 1, s)], acc.order)
    expected = add(acc, divide_binomial(divide_binomial(shifted, e, c), e, c))
    assert add_cell(acc, s, e, c) == expected


def test_add_cell_rejects_exponents_below_one():
    for e in (0, -1):
        with pytest.raises(ValueError, match=f"^e must be >= 1, got {e}$"):
            add_cell(one(4), one(4), e, 1)


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


def test_no_build_path_calls_the_q_pascal_reference():
    # _gauss_poly is the reference the tests compare gaussian_binomial
    # against; only its own recursion calls it
    package = Path(qident.__file__).parent
    sites = {(path.name, scope) for path in sorted(package.glob("*.py"))
             for scope, _ in _calls(path, "_gauss_poly")}
    assert sites == {("qtools.py", "_gauss_poly")}


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
