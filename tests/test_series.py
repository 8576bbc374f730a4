import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from yangsym.rationals import Q
from yangsym.series import (
    DegenerateSeriesError,
    ShiftedPolynomial,
    SparseCoeffs,
    UPolynomial,
    USeries,
    falling_factorial,
    rising_factorial,
)
from yangsym.tau import TauOperator
from yangsym.pbw import AlgebraElement, gl_context, yangian_context
from yangsym.cli import _compute_value, build_parser

BENCH = Path(__file__).resolve().parents[1] / "bench"


def series(order, *pairs):
    return USeries(order, {m: Q(c) for m, c in pairs})


def test_cauchy_product_keeps_factor_order():
    ctx = yangian_context(2)
    x, y = ctx.t(1, 1, 2), ctx.t(1, 2, 1)
    a = USeries(2, {0: ctx.one(), 1: x})
    b = USeries(2, {0: ctx.one(), 1: y})
    prod = a * b
    assert prod.coeff(1) == x + y
    assert prod.coeff(2) == x * y
    assert prod.coeff(2) != y * x


def test_mul_identity():
    a = series(3, (0, 1), (1, 5), (3, -2))
    assert a * USeries.one(3) == a


def test_geometric_square():
    g = series(3, (0, 1), (1, 1), (2, 1), (3, 1))
    assert g * g == series(3, (0, 1), (1, 2), (2, 3), (3, 4))


def test_mixed_order_reconciles_to_minimum():
    a = series(5, (0, 1), (5, 7))
    b = series(2, (0, 1))
    assert (a * b).order == 2


def test_shift_of_u_inverse_by_one():
    s = series(3, (1, 1))
    assert s.shift(1) == series(3, (1, 1), (2, -1), (3, 1))


def test_shift_by_zero_is_identity():
    s = series(4, (0, 3), (2, Q(1, 2)))
    assert s.shift(0) == s


def test_shift_of_u_minus2_binomial_oracle():
    # oracle: u^{-2} shifted by -1 is (1 - u^{-1})^{-2} * u^{-2}
    base = series(4, (0, 1), (1, -1))
    expansion = base.invert() * base.invert()
    expected = USeries(4, {m + 2: c for m, c in expansion.coeffs.items() if m + 2 <= 4})
    got = series(4, (2, 1)).shift(-1)
    assert got == expected
    assert got == series(4, (2, 1), (3, 2), (4, 3))


def test_invert_geometric():
    assert series(3, (0, 1), (1, 1)).invert() == \
        series(3, (0, 1), (1, -1), (2, 1), (3, -1))


def test_invert_one():
    assert USeries.one(4).invert() == USeries.one(4)


def test_invert_two_plus_u_inverse_multiply_back():
    f = series(2, (0, 2), (1, 1))
    g = f.invert()
    assert g == series(2, (0, Q(1, 2)), (1, Q(-1, 4)), (2, Q(1, 8)))
    assert f * g == USeries.one(2)


def test_invert_degenerate():
    with pytest.raises(DegenerateSeriesError):
        series(3, (1, 1)).invert()


small_rationals = st.builds(
    lambda p, q: Q(p, q),
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=1, max_value=4))


def rational_series(order):
    return st.lists(small_rationals, min_size=0, max_size=order + 1).map(
        lambda cs: USeries(order, {m: Q(c) for m, c in enumerate(cs)}))


@settings(max_examples=60, deadline=None)
@given(rational_series(5), rational_series(5), rational_series(5))
def test_mul_associative_and_distributive(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=40, deadline=None)
@given(rational_series(5), small_rationals, small_rationals)
def test_shift_composes(f, a, b):
    assert f.shift(a).shift(b) == f.shift(Q(a) + Q(b))


@settings(max_examples=40, deadline=None)
@given(rational_series(5), rational_series(5), small_rationals)
def test_shift_is_multiplicative(f, g, a):
    assert (f * g).shift(a) == f.shift(a) * g.shift(a)


@settings(max_examples=40, deadline=None)
@given(rational_series(4))
def test_invert_roundtrip(f):
    if not f.coeff(0):
        f = f + USeries.one(4)
    if not f.coeff(0):
        f = f + USeries.one(4)
    if not f.coeff(0):
        return
    assert f * f.invert() == USeries.one(4)


def test_shift_with_algebra_coefficients_is_multiplicative():
    ctx = yangian_context(2)
    f = USeries(4, {0: ctx.one(), 1: ctx.t(1, 1, 2), 2: ctx.t(2, 2, 1)})
    g = USeries(4, {0: ctx.one(), 1: ctx.t(1, 2, 2)})
    for a in (1, -1, Q(1, 2)):
        assert (f * g).shift(a) == f.shift(a) * g.shift(a)


# -- shift operators ---------------------------------------------------------

def test_tau_product_shifts_right_factor():
    f = series(4, (1, 1))
    g = series(4, (0, 2), (1, 3))
    lhs = TauOperator.from_series(f, 1) * TauOperator.from_series(g, 1)
    assert lhs == TauOperator.from_series(f * g.shift(1), 2)


def test_tau_degree_zero_is_plain_multiplication():
    f = series(3, (0, 1), (1, 4))
    g = series(3, (1, 2))
    assert TauOperator.from_series(f, 0) * TauOperator.from_series(g, 0) \
        == TauOperator.from_series(f * g, 0)


def test_tau_inverse_square_example():
    op = TauOperator.from_series(series(3, (1, 1)), -1)
    sq = op * op
    assert sq == TauOperator.from_series(series(3, (2, 1), (3, 1)), -2)


def test_tau_associative_and_inverse():
    ops = [TauOperator.from_series(series(4, (0, 1), (1, 2)), 1),
           TauOperator.from_series(series(4, (1, 1), (2, -3)), -2),
           TauOperator.from_series(series(4, (0, Q(1, 2))), 1)]
    a, b, c = ops
    assert (a * b) * c == a * (b * c)
    up = TauOperator.from_series(USeries.one(4), 3)
    down = TauOperator.from_series(USeries.one(4), -3)
    assert up * down == TauOperator.one(4)
    assert down * up == TauOperator.one(4)


# -- polynomials -------------------------------------------------------------

def test_falling_factorial_examples():
    u = UPolynomial.variable()
    assert falling_factorial(u, 2) == UPolynomial({2: 1, 1: -1})
    assert falling_factorial(u, 0) == UPolynomial({0: 1})
    assert rising_factorial(u, 3) == UPolynomial({3: 1, 2: 3, 1: 2})


def test_polynomial_shift_and_eval():
    u = UPolynomial.variable()
    p = u * u - u  # (u down 2)
    assert p.shift(1) == u * u + u
    assert p.eval_at(5) == 20
    assert falling_factorial(u, 3).eval_at(5) == 60


def test_polynomial_to_series():
    u = UPolynomial.variable()
    p = rising_factorial(u, 2)  # u^2 + u
    s = p.to_series(2, 4)
    assert s == series(4, (0, 1), (1, 1))
    with pytest.raises(ValueError):
        p.to_series(1, 4)


# -- the shared sparse-coefficient core --------------------------------------

def _rationals(keys):
    return st.dictionaries(keys, small_rationals, max_size=4)


_CARRIERS = {
    "series": _rationals(st.integers(0, 4)).map(lambda c: USeries(4, c)),
    "upoly": _rationals(st.integers(0, 3)).map(UPolynomial),
    "shifted": _rationals(st.tuples(*[st.integers(0, 2)] * 3)).map(
        lambda c: ShiftedPolynomial(2, c)),
    "tau": st.dictionaries(st.integers(-2, 2), rational_series(4), max_size=3).map(TauOperator),
}


def _stored_scalars(x):
    """Every scalar stored inside a carrier or algebra element, at any depth."""
    if isinstance(x, (SparseCoeffs, AlgebraElement)):
        for c in (x.coeffs if isinstance(x, SparseCoeffs) else x.terms).values():
            yield from _stored_scalars(c)
    else:
        yield x


def _assert_stored_form(*values):
    for x in values:
        for c in _stored_scalars(x):
            assert type(c) is int or (type(c) is Q and c.denominator > 1), repr(c)


@pytest.mark.parametrize("kind", sorted(_CARRIERS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_shared_core_laws(kind, data):
    x, y, z = (data.draw(_CARRIERS[kind]) for _ in range(3))
    q, a, b = (data.draw(small_rationals) for _ in range(3))
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert (x - x).is_zero() and not (x - x) and x - x == 0
    assert (x + y).scale(q) == x.scale(q) + y.scale(q)
    assert x.shift(a).shift(b) == x.shift(a + b)
    _assert_stored_form(x, y, x + y, x - y, -x, x.scale(q), x.shift(a))


@settings(max_examples=40, deadline=None)
@given(small_rationals, small_rationals)
def test_equality_with_a_bare_scalar_agrees_across_carriers(q, r):
    values = [USeries.const(q, 3), UPolynomial.const(q), ShiftedPolynomial.const(2, q),
              TauOperator.from_series(USeries.const(q, 3)), gl_context(2).scalar(q)]
    for x in values:
        assert (x == r) == (q == r), x
        assert x == q
    assert USeries.one(3) == 1 and UPolynomial.const(2) == 2
    assert not ShiftedPolynomial.const(2, 3) == 2
    assert not USeries(3, {0: q, 1: 1}) == q
    assert not TauOperator.from_series(USeries.one(3), 1) == 1


def test_catalog_values_store_int_or_proper_fraction():
    sys.path.insert(0, str(BENCH))
    try:
        from inputs import COMPUTE_CATALOG
    finally:
        sys.path.remove(str(BENCH))
    parser = build_parser()
    for entry in COMPUTE_CATALOG:
        value, _ = _compute_value(parser.parse_args(["compute", *entry.split()]), parser)
        _assert_stored_form(value)
