import pytest
from hypothesis import given, settings, strategies as st

from yangsym.rationals import Q
from yangsym.series import (
    DegenerateSeriesError,
    UPolynomial,
    USeries,
    falling_factorial,
    rising_factorial,
)
from yangsym.tau import TauOperator
from yangsym.pbw import yangian_context


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


def test_shift_u_minus2_binomial_oracle():
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
    assert p.shift_arg(1) == u * u + u
    assert p.eval_at(5) == 20
    assert falling_factorial(u, 3).eval_at(5) == 60


def test_polynomial_to_series():
    u = UPolynomial.variable()
    p = rising_factorial(u, 2)  # u^2 + u
    s = p.to_series(2, 4)
    assert s == series(4, (0, 1), (1, 1))
    with pytest.raises(ValueError):
        p.to_series(1, 4)
