"""`series.sum_of_products` against the sum of separate products, each built
coefficient by coefficient with element arithmetic."""

import pytest
from hypothesis import given, settings, strategies as st

from yangsym.pbw import AlgebraElement, free_context, gl_context, yangian_context
from yangsym.rationals import Q
from yangsym.serialize import to_jsonable
from yangsym.series import UPolynomial, USeries, sum_of_products
from yangsym.tau import TauOperator

# the free algebra on three letters has no relations, so every product there
# depends on the factor order
CONTEXTS = {"free": free_context(3), "yangian": yangian_context(2), "gl": gl_context(2)}


def _generators(ctx):
    if ctx.kind == "yangian":
        return [ctx.t(r, i, j) for r in (1, 2) for i in (1, 2) for j in (1, 2)]
    if ctx.kind == "gl":
        return [ctx.e(i, j) for i in (1, 2) for j in (1, 2)]
    return [ctx.gen(g) for g in range(3)]


scalars = st.one_of(st.integers(-3, 3), st.fractions(min_value=-2, max_value=2,
                                                      max_denominator=4))


@st.composite
def elements(draw, ctx):
    gens = _generators(ctx)
    acc = ctx.zero()
    for _ in range(draw(st.integers(1, 3))):
        word = draw(st.lists(st.sampled_from(gens), max_size=2))
        term = ctx.scalar(draw(scalars))
        for g in word:
            term = term * g
        acc = acc + term
    return acc


@st.composite
def series(draw, ctx, max_order=3):
    order = draw(st.integers(0, max_order))
    coeffs = draw(st.dictionaries(st.integers(0, order + 1),
                                  st.one_of(scalars, elements(ctx)), max_size=4))
    return USeries(order, coeffs)


def _product(a, b):
    """a*b for two series, coefficient by coefficient."""
    order = min(a.order, b.order)
    out = {}
    for i, x in a.coeffs.items():
        for j, y in b.coeffs.items():
            if i + j <= order:
                v = x * y
                out[i + j] = out[i + j] + v if i + j in out else v
    return USeries(order, out)


def _met(a, b):
    """The powers of u^-1 at which a coefficient of a*b meets an element."""
    if type(a) is type(b) is USeries:
        top = min(a.order, b.order)
        return {i + j for i, x in a.coeffs.items() for j, y in b.coeffs.items()
                if i + j <= top and AlgebraElement in (type(x), type(y))}
    s, q = (a, b) if type(a) is USeries else (b, a)
    if type(s) is not USeries or not q:
        return set()
    return {m for m, x in s.coeffs.items() if type(x) is AlgebraElement}


def _sum(pairs, ctx):
    """The sum of the separate products; a zero product does not lower the
    order unless every product is zero.

    A power that meets an element is an element.  A chain of + cannot keep
    that rule: it drops an element whose terms cancel, and a rational added
    later stays a rational.  So the rule is applied to the chain's total, on
    the powers where some product met an element."""
    prods = [_product(a, b) if type(a) is type(b) is USeries else a * b for a, b in pairs]
    series = [p for p in prods if type(p) is USeries]
    nonzero = [p for p in series if p] or [USeries.zero(min(p.order for p in series))]
    # the products of rational pairs, added at u^0
    total = sum(nonzero[1:], nonzero[0]) + sum(p for p in prods if type(p) is not USeries)
    met = set().union(*(_met(a, b) for a, b in pairs))
    return USeries(total.order, {m: ctx.scalar(c) if m in met and type(c) is not AlgebraElement
                                 else c for m, c in total.coeffs.items()})


def _assert_same(got, want):
    assert got == want
    assert got.order == want.order
    # an element that sums to a scalar and that scalar serialize differently
    assert {m: type(c) for m, c in got.coeffs.items()} == \
        {m: type(c) for m, c in want.coeffs.items()}
    assert to_jsonable(got) == to_jsonable(want)
    # the kernel puts each term dict in stored form once, at the end
    for c in got.coeffs.values():
        for q in (c.terms.values() if type(c) is AlgebraElement else (c,)):
            assert type(q) is int or (type(q) is Q and q.denominator > 1), repr(q)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_series_pairs_match_the_separate_products(data):
    ctx = CONTEXTS[data.draw(st.sampled_from(sorted(CONTEXTS)))]
    pairs = data.draw(st.lists(st.tuples(series(ctx), series(ctx)), min_size=1, max_size=4))
    _assert_same(sum_of_products(pairs), _sum(pairs, ctx))


# zero, ints, integral and proper Fractions
rational_factors = st.one_of(st.just(0), st.just(Q(4, 2)), scalars)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_scalar_and_series_pairs_match_the_separate_products(data):
    # _sum builds each q * s and s * q on its own, by `scale`; a pair of two
    # rationals adds its product at u^0, under the element rule when some
    # other pair holds a series
    ctx = CONTEXTS[data.draw(st.sampled_from(sorted(CONTEXTS)))]
    pair = st.one_of(st.tuples(series(ctx), series(ctx)),
                     st.tuples(rational_factors, series(ctx)),
                     st.tuples(series(ctx), rational_factors),
                     st.tuples(rational_factors, rational_factors))
    pairs = data.draw(st.lists(pair, min_size=1, max_size=5).filter(
        lambda ps: any(USeries in map(type, p) for p in ps)))
    if data.draw(st.booleans()):
        # a negated copy of a pair cancels the element terms it puts anywhere
        a, b = data.draw(st.sampled_from(pairs))
        pairs.insert(data.draw(st.integers(0, len(pairs))), (a, -b))
    _assert_same(sum_of_products(pairs), _sum(pairs, ctx))


def test_factor_order_is_kept():
    ctx = CONTEXTS["free"]
    x, y = ctx.gen(0), ctx.gen(1)
    a, b = USeries(2, {1: x}), USeries(2, {1: y})
    assert sum_of_products([(a, b)]).coeff(2) == x * y
    assert sum_of_products([(a, b), (b, a)]).coeff(2) == x * y + y * x
    assert sum_of_products([(a, b), (b, a.scale(-1))]).coeff(2) != 0


def test_zero_products_do_not_lower_the_order():
    ctx = CONTEXTS["yangian"]
    x = ctx.t(1, 1, 2)
    late = USeries(2, {2: x})            # times itself: zero at order 2
    full = USeries(4, {0: ctx.one(), 1: x})
    total = sum_of_products([(late, late), (full, full)])
    assert total.order == 4 and total == full * full
    assert sum_of_products([(late, late)]) == USeries.zero(2)
    assert sum_of_products([(late, late)]).order == 2
    assert sum_of_products([]) is None


def test_a_power_that_meets_an_element_stays_an_element():
    ctx = CONTEXTS["yangian"]
    x = ctx.t(1, 1, 1)
    a = USeries(1, {0: x})
    b = USeries(1, {0: 2})
    # x*1 - x*1 + 2*3: an element that is the scalar 6, and a bare 6
    total = sum_of_products([(a, USeries(1, {0: 1})), (a, USeries(1, {0: -1})),
                             (b, USeries(1, {0: 3}))])
    assert type(total.coeff(0)) is AlgebraElement and total.coeff(0) == 6
    assert type(sum_of_products([(b, b)]).coeff(0)) is int
    # so does a pair of two rationals, wherever it stands
    for pairs in ([(a, 1), (a, -1), (2, 3)], [(2, 3), (a, 1), (a, -1)]):
        total = sum_of_products(pairs)
        assert type(total.coeff(0)) is AlgebraElement and total.coeff(0) == 6


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_tau_operator_pairs_match_the_separate_products(data):
    ctx = CONTEXTS[data.draw(st.sampled_from(sorted(CONTEXTS)))]
    ops = st.dictionaries(st.integers(-2, 2), series(ctx, max_order=2), min_size=1,
                          max_size=2).map(TauOperator)
    pairs = data.draw(st.lists(st.tuples(ops, ops), min_size=1, max_size=3))
    by_degree = {}
    for f, g in pairs:
        # (f tau^c)(g tau^d) = f g(u+c) tau^{c+d}
        for c, fc in f.coeffs.items():
            for d, gd in g.coeffs.items():
                by_degree.setdefault(c + d, []).append((fc, gd.shift(c)))
    got = sum_of_products(pairs)
    want = TauOperator({e: _sum(degree, ctx) for e, degree in by_degree.items()})
    assert got == want and to_jsonable(got) == to_jsonable(want)


def test_rational_pairs_take_the_plain_route():
    assert sum_of_products([(2, 3), (Q(1, 2), Q(2, 3))]) == Q(19, 3)
    assert sum_of_products([(Q(1, 2), 2)]) == 1


@pytest.mark.parametrize("same_power", [True, False])
def test_mismatched_contexts_raise(same_power):
    y, g = CONTEXTS["yangian"], CONTEXTS["gl"]
    a = USeries(2, {0: y.t(1, 1, 1)})
    b = USeries(2, {0 if same_power else 1: g.e(1, 1)})
    with pytest.raises(ValueError, match="algebra instance mismatch"):
        sum_of_products([(a, a), (b, b)])
    with pytest.raises(ValueError, match="algebra instance mismatch"):
        sum_of_products([(a, b)])


@pytest.mark.parametrize("ring", ["element", "polynomial"])
@pytest.mark.parametrize("series_first", [True, False])
def test_series_pairs_mixed_with_another_ring_raise(ring, series_first):
    # the sum of the other ring's products once met the series by `+` and
    # raised AttributeError (an element) or a bare TypeError (a polynomial)
    y = CONTEXTS["yangian"]
    s = USeries(2, {0: y.one(), 1: y.t(1, 1, 2)})
    x = y.t(1, 2, 1) if ring == "element" else UPolynomial({1: 1})
    pairs = [(s, s), (x, x)] if series_first else [(x, x), (s, s)]
    with pytest.raises(ValueError, match=f"USeries pairs and of {type(x).__name__} pairs"):
        sum_of_products(pairs)


def test_scalar_types_accepted_as_before():
    # the exact-type tests in front of isinstance keep bool and integral
    # Fractions as the ints they stand for
    ctx = CONTEXTS["yangian"]
    s = USeries(2, {0: True, 1: Q(4, 2), 2: ctx.one()})
    assert {m: type(c) for m, c in s.coeffs.items()} == {0: int, 1: int, 2: AlgebraElement}
    x = ctx.t(1, 1, 2)
    assert x + True == x + 1 and x * True == x and True * x == x and x - True == x - 1
    assert ctx.scalar(1) == True and x.commutator(True) == 0
