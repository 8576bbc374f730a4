import random
from functools import reduce
from itertools import accumulate, permutations
from math import factorial, prod

import pytest
from hypothesis import given, settings, strategies as st

from yangsym.rationals import Q, binomial
from yangsym.series import SparseCoeffs, USeries
from yangsym.pbw import AlgebraElement, free_context, yangian_context
from yangsym import symfun, tensor
from yangsym.tensor import (
    antisymmetrizer,
    matrix_on_leg,
    perm_op,
    r_chain,
    symmetrizer,
    t_leg,
    t_series,
    tm_mul,
    trace_full,
    trace_of_product,
)
from yangsym.symfun import (
    BetheTwist,
    Partition,
    bethe_b,
    cached_projector,
    composition_sum,
    composition_weights,
    compositions,
    det_formulas,
    elem_e,
    gen_E,
    gen_Hminus,
    h_minus,
    h_minus_from_inverse,
    homog_h,
    leg_chain,
    newton_check,
    p_tau,
    p_tau_direct,
    power_p,
    prop_eB_traces,
    rdet,
    schur_s,
    tau_direct,
    tau_form,
    unit_series,
)


N2 = 4


@pytest.fixture(scope="module")
def ctx2():
    return yangian_context(2)


# -- the three families --------------------------------------------------------

def test_e1_is_trace_of_generating_matrix(ctx2):
    e1 = elem_e(1, 2, N2)
    assert e1.coeff(0) == 2
    for r in range(1, N2 + 1):
        assert e1.coeff(r) == ctx2.t(r, 1, 1) + ctx2.t(r, 2, 2)


@pytest.mark.parametrize("n,k", [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3)])
def test_e_constant_term(n, k):
    assert elem_e(k, n, 2).coeff(0) == binomial(n, k)


def test_e_above_top_degree_is_zero():
    # no strict k-subset of 1..n exists; the zero keeps the order asked for
    for n, k in [(1, 2), (2, 3), (2, 4), (3, 4)]:
        for N in (2, N2):
            e = elem_e(k, n, N)
            assert e.is_zero() and e.order == N


@pytest.mark.parametrize("n,k", [(2, 1), (2, 2), (2, 3), (3, 2)])
def test_h_constant_term(n, k):
    assert homog_h(k, n, 2).coeff(0) == binomial(n + k - 1, k)


def test_h1_equals_e1():
    assert homog_h(1, 2, N2) == elem_e(1, 2, N2)


def test_h2_brute_force_expansion(ctx2):
    # (1/2) sum_{ij} [ t_ii(u) t_jj(u+1) + t_ij(u) t_ji(u+1) ]
    from yangsym.tensor import t_series
    n = 2
    acc = None
    for i in (1, 2):
        for j in (1, 2):
            term = t_series(ctx2, i, i, 0, N2) * t_series(ctx2, j, j, 1, N2) \
                + t_series(ctx2, i, j, 0, N2) * t_series(ctx2, j, i, 1, N2)
            acc = term if acc is None else acc + term
    assert homog_h(2, n, N2) == acc.scale(Q(1, 2))


def test_p1_equals_e1():
    assert power_p(1, +1, 2, N2) == elem_e(1, 2, N2)
    assert power_p(1, -1, 2, N2) == elem_e(1, 2, N2)


@pytest.mark.parametrize("k,sign", [(2, 1), (2, -1), (3, -1)])
def test_p_constant_term(k, sign):
    assert power_p(k, sign, 2, N2).coeff(0) == 2


def test_p2_via_cyclic_trace(ctx2):
    # tr(P_{1,2} (T(u))_1 (T(u-1))_2) computed on two legs
    n, k = 2, 2
    acc = perm_op(1, 2, k, n)
    acc = tm_mul(acc, t_leg(1, 0, k, N2, ctx2))
    acc = tm_mul(acc, t_leg(2, -1, k, N2, ctx2))
    assert trace_full(acc) == power_p(2, -1, 2, N2)


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("k,n", [(k, n) for k in (1, 2, 3) for n in (1, 2, 3)])
def test_p_matches_the_one_leg_chain(k, n, sign):
    # oracle: the trace of T(u) T(u+sign) ... as a product of one-leg matrices
    ctx = yangian_context(n)
    acc = t_leg(1, 0, 1, N2, ctx)
    for s in range(1, k):
        acc = tm_mul(acc, t_leg(1, sign * s, 1, N2, ctx))
    assert power_p(k, sign, n, N2) == trace_full(acc)


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("k,n", [(k, n) for k in (1, 2, 3, 4) for n in (2, 3)])
def test_p_matches_a_product_of_lists_of_rows(k, n, sign):
    # oracle: T(u) T(u+sign) ... multiplied as n x n lists of rows of series
    ctx = yangian_context(n)
    idx = range(1, n + 1)
    mats = [[[t_series(ctx, i, j, sign * s, N2) for j in idx] for i in idx] for s in range(k)]
    prod = mats[0]
    for M in mats[1:]:
        prod = [[sum((prod[i][t] * M[t][j] for t in range(n)), USeries.zero(N2))
                 for j in range(n)] for i in range(n)]
    assert power_p(k, sign, n, N2) == sum((prod[i][i] for i in range(n)), USeries.zero(N2))


# -- shift-operator forms ------------------------------------------------------

def test_tau_forms_match_direct_evaluation():
    for kind in ("e", "h"):
        for k in (2, 3):
            assert tau_direct(kind, k, 2, N2) == tau_form(kind, k, 2, N2)
    assert p_tau_direct(2, -1, 2, N2) == p_tau(2, -1, 2, N2)
    assert p_tau_direct(2, +1, 2, N2) == p_tau(2, +1, 2, N2)


def test_tau_degrees():
    assert sorted(tau_form("e", 2, 2, N2).coeffs) == [-2]
    assert sorted(tau_form("h", 3, 2, N2).coeffs) == [3]
    assert tau_form("e", 2, 2, N2).coeff(-2) == elem_e(2, 2, N2)
    assert tau_form("h", 3, 2, N2).coeff(3) == homog_h(3, 2, N2)
    assert sorted(p_tau(2, -1, 2, N2).coeffs) == [-2]


# -- Bethe generators ----------------------------------------------------------

def test_b_at_full_rank_is_e_n():
    rng = random.Random(7)
    for n in (2, 3):
        Z = BetheTwist.random(n, rng)
        assert bethe_b(n, Z, n, 3) == elem_e(n, n, 3)


def test_b1_identity_twist_ratios():
    # frozen from the trace oracle: e_1 = n * b_1(u, Id)
    for n in (2, 3):
        b1 = bethe_b(1, BetheTwist.identity(n), n, 3)
        assert b1.scale(n) == elem_e(1, n, 3)


@pytest.mark.parametrize("n", [0, -1, 2.0, 2.5])
def test_family_builders_refuse_n_below_one(n):
    keys = set(symfun._CACHE)
    builders = [lambda: power_p(1, 1, n, 3), lambda: homog_h(1, n, 3),
                lambda: h_minus(1, n, 3), lambda: elem_e(1, n, 3),
                lambda: schur_s((1,), "h", n, 3), lambda: tau_form("e", 0, n, 3),
                lambda: gen_E(n, 3), lambda: h_minus_from_inverse(0, n, 3),
                lambda: prop_eB_traces(1, 1, n, 3),
                lambda: bethe_b(1, BetheTwist.identity(2), n, 3),
                lambda: leg_chain(1, -1, n, 3)]
    for build in builders:
        with pytest.raises(ValueError, match="need n >= 1 and an int"):
            build()
    assert set(symfun._CACHE) == keys


def test_b_rejects_out_of_range():
    with pytest.raises(ValueError):
        bethe_b(3, BetheTwist.identity(2), 2, 2)


@pytest.mark.parametrize("size,n", [(3, 2), (2, 3)])
def test_b_rejects_twist_of_the_wrong_size(size, n):
    with pytest.raises(ValueError, match=f"twist must be {n} x {n}"):
        bethe_b(1, BetheTwist.identity(size), n, 2)
    with pytest.raises(ValueError, match=f"twist must be {n} x {n}"):
        bethe_b(1, [[1] * size] * size, n, 2)


# -- the trace definitions as oracles for the minor construction -----------------

def e_by_trace(k, n, N):
    """tr(A_k T_1(u) T_2(u-1) ... T_k(u-k+1)) on (C^n)^{tensor k}."""
    ctx = yangian_context(n)
    legs = [t_leg(s, -(s - 1), k, N, ctx) for s in range(1, k + 1)]
    return trace_of_product([cached_projector("A", k, n), *legs]).scale(Q(1, factorial(k)))


def h_by_trace(k, n, N):
    """tr(S_k T_1(u) T_2(u+1) ... T_k(u+k-1)) on (C^n)^{tensor k}."""
    ctx = yangian_context(n)
    legs = [t_leg(s, s - 1, k, N, ctx) for s in range(1, k + 1)]
    return trace_of_product([cached_projector("S", k, n), *legs]).scale(Q(1, factorial(k)))


def b_by_trace(k, Z, n, N):
    """tr(A_n T_1(u) ... T_k(u-k+1) Z_{k+1} ... Z_n) on (C^n)^{tensor n}."""
    acc = cached_projector("A", n, n)
    for s in range(1, k + 1):
        acc = tm_mul(acc, t_leg(s, -(s - 1), n, N, yangian_context(n)))
    for s in range(k + 1, n + 1):
        acc = tm_mul(acc, matrix_on_leg(Z.matrix, s, n, 0))
    return trace_full(acc).scale(Q(1, factorial(n)))


@pytest.mark.parametrize("kind", ["A", "S"])
@pytest.mark.parametrize("k,n", [(k, n) for k in (1, 2, 3, 4) for n in (1, 2, 3)])
def test_cached_projector_is_k_factorial_times_the_projector(kind, k, n):
    P = cached_projector(kind, k, n)
    assert all(type(v) is int for row in P.rows.values() for v in row.values())
    normalized = antisymmetrizer(k, n) if kind == "A" else symmetrizer(k, n)
    assert P.equal(normalized.scale(factorial(k)))


def test_oracle_leg_products_stay_integral():
    ctx = yangian_context(3)
    prod = reduce(tm_mul, [t_leg(s, -(s - 1), 3, 3, ctx) for s in (1, 2, 3)],
                  cached_projector("A", 3, 3))
    assert prod.rows
    for row in prod.rows.values():
        for series in row.values():
            for elem in series.coeffs.values():
                assert all(type(c) is int for c in elem.terms.values())


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_e_matches_its_trace_definition(k, n):
    assert elem_e(k, n, N2) == e_by_trace(k, n, N2)


@pytest.mark.parametrize("k,n", [(k, n) for k in (1, 2, 3) for n in (1, 2, 3)] + [(4, 2)])
def test_h_matches_its_trace_definition(k, n):
    assert homog_h(k, n, N2) == h_by_trace(k, n, N2)


@pytest.mark.parametrize("twist", ["identity", 11, 12])
@pytest.mark.parametrize("k,n", [(k, n) for n in (1, 2, 3) for k in range(1, n + 1)])
def test_b_matches_its_trace_definition(k, n, twist):
    if twist == "identity":
        Z = BetheTwist.identity(n)
    else:
        Z = BetheTwist.random(n, random.Random(twist))
    assert bethe_b(k, Z, n, N2) == b_by_trace(k, Z, n, N2)


def test_family_builders_do_not_enter_the_tensor_layer(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a production builder entered the tensor layer")

    # power_p is by definition the trace of a matrix product, so it is left out
    monkeypatch.setattr(tensor, "tm_mul", refuse)
    for mod in (tensor, symfun):
        monkeypatch.setattr(mod, "t_leg", refuse)
        monkeypatch.setattr(mod, "trace_of_product", refuse)
    monkeypatch.setattr(symfun, "_CACHE", {})
    assert elem_e(3, 3, N2).coeff(0) == 1
    assert homog_h(4, 2, N2).coeff(0) == 5
    assert bethe_b(2, BetheTwist.random(3, random.Random(11)), 3, N2)


# -- alternative trace presentations --------------------------------------------

def test_eb_traces_collapse_at_k1():
    e1 = elem_e(1, 2, N2)
    for variant in (1, 2, 3, 4):
        assert prop_eB_traces(1, variant, 2, N2) == e1


def test_eb_traces_k2():
    assert prop_eB_traces(2, 1, 2, N2) == elem_e(2, 2, N2)
    assert prop_eB_traces(2, 2, 2, N2) == homog_h(2, 2, N2)
    assert prop_eB_traces(2, 3, 2, N2) == elem_e(2, 2, N2).shift(1)
    assert prop_eB_traces(2, 4, 2, N2) == homog_h(2, 2, N2).shift(-1)


def test_eb_traces_k4_divide_by_4_factorial():
    assert prop_eB_traces(4, 2, 2, N2) == homog_h(4, 2, N2)
    assert prop_eB_traces(4, 4, 2, N2) == homog_h(4, 2, N2).shift(-3)


@pytest.mark.parametrize("step", [-1, 1])
@pytest.mark.parametrize("n", [2, 3])
def test_leg_chain_is_the_product_of_its_legs(n, step):
    ctx = yangian_context(n)
    for k in (1, 2, 3):
        legs = [t_leg(s, step * (s - 1), k, N2, ctx) for s in range(1, k + 1)]
        assert leg_chain(k, step, n, N2).equal(reduce(tm_mul, legs))


def test_leg_chain_refuses_a_bad_length_or_step():
    with pytest.raises(ValueError, match="need k >= 1 and an int"):
        leg_chain(0, 1, 2, N2)
    with pytest.raises(ValueError, match="step must be"):
        leg_chain(2, 0, 2, N2)


def eb_trace_by_legs(k, variant, n, N):
    """tr(left T_1(u) T_2(u+-1) ... T_k(u+-(k-1))) / k!, the integral left
    multiplied by every leg but the last and traced against the last."""
    step = -1 if variant in (1, 4) else 1
    if variant in (3, 4):
        left = cached_projector("A" if variant == 3 else "S", k, n)
    else:
        left = tensor.TensorMatrix.identity(n, k) if k == 1 else r_chain(k, step, k, n)
    ctx = yangian_context(n)
    legs = [t_leg(s, step * (s - 1), k, N, ctx) for s in range(1, k + 1)]
    return trace_of_product([left, *legs]).scale(Q(1, factorial(k)))


@pytest.mark.parametrize("variant", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [2, 3])
def test_eb_traces_of_the_leg_chain_match_the_leg_by_leg_trace(n, variant):
    for k in (1, 2, 3):
        assert prop_eB_traces(k, variant, n, N2) == eb_trace_by_legs(k, variant, n, N2)


# -- compositions and Newton -----------------------------------------------------

def test_composition_count_and_prefix_sums():
    assert len(compositions(3)) == 4
    assert set(compositions(3)) == {(3,), (2, 1), (1, 2), (1, 1, 1)}
    assert len(compositions(5)) == 16


@pytest.mark.parametrize("k", range(1, 7))
def test_composition_weights_are_e_and_h_at_unit_power_sums(k):
    # at p_i = 1: sum h_k t^k = exp(sum t^i/i) = 1/(1-t), and
    # sum e_k t^k = exp(sum (-1)^{i-1} t^i/i) = 1+t; the weights are integer
    # numerators over k!
    h = list(composition_weights(k, "h"))
    e = list(composition_weights(k, "e"))
    assert [lam for lam, _ in h] == [lam for lam, _ in e] == compositions(k)
    assert all(type(w) is int for _, w in h + e)
    assert sum(w for _, w in h) == factorial(k)
    assert sum(w for _, w in e) == (factorial(k) if k == 1 else 0)


def test_composition_sum_k1():
    assert composition_sum(1, "e", 2, N2) == p_tau(1, -1, 2, N2)
    assert composition_sum(1, "h", 2, N2) == p_tau(1, +1, 2, N2)


def test_composition_sum_k2_explicit():
    p1 = p_tau(1, -1, 2, N2)
    expected = p_tau(2, -1, 2, N2).scale(Q(-1, 2)) + (p1 * p1).scale(Q(1, 2))
    assert composition_sum(2, "e", 2, N2) == expected
    assert composition_sum(2, "e", 2, N2) == tau_form("e", 2, 2, N2)
    assert composition_sum(2, "h", 2, N2) == tau_form("h", 2, 2, N2)


def _stored_scalars(x):
    """Every scalar stored inside a carrier or algebra element, at any depth."""
    if isinstance(x, (SparseCoeffs, AlgebraElement)):
        for c in (x.coeffs if isinstance(x, SparseCoeffs) else x.terms).values():
            yield from _stored_scalars(c)
    else:
        yield x


@pytest.mark.parametrize("kind,step", [("e", -1), ("h", 1)])
@pytest.mark.parametrize("k", range(1, 5))
def test_composition_sum_matches_the_fraction_weights(k, kind, step):
    # the reference scales each product by its Fraction weight
    # (-1)^{k-m}/(a_1...a_m) or 1/(a_1...a_m), a_i the prefix sums
    ref = None
    for lam in compositions(k):
        term = reduce(lambda x, y: x * y, (p_tau(part, step, 2, 4) for part in lam))
        term = term.scale(Q(step ** (k - len(lam)), prod(accumulate(lam))))
        ref = term if ref is None else ref + term
    got = composition_sum(k, kind, 2, 4)
    assert got == ref
    assert all(type(c) is int or (type(c) is Q and c.denominator > 1)
               for c in _stored_scalars(got))


def test_newton_m1_is_trivial():
    lhs, rhs = newton_check(1, "e", 2, N2)
    assert lhs == p_tau(1, -1, 2, N2) == rhs


@pytest.mark.parametrize("m", [0, -1])
def test_newton_rejects_degree_below_one(m):
    with pytest.raises(ValueError, match="need m >= 1 and an int"):
        newton_check(m, "e", 2, N2)


def test_newton_m2():
    for kind in ("e", "h"):
        lhs, rhs = newton_check(2, kind, 2, N2)
        assert lhs == rhs


def test_newton_above_top_degree_vanishes():
    # m = n+1: the right side is (n+1) e_{n+1} = 0, so the left must vanish
    lhs, rhs = newton_check(3, "e", 2, N2)
    assert rhs.is_zero() and lhs.is_zero()


# -- row determinants ------------------------------------------------------------

def test_rdet_1x1():
    assert rdet([[Q(7)]]) == 7


def test_rdet_commuting_matches_ordinary_det():
    m = [[Q(1), Q(2)], [Q(3), Q(4)]]
    assert rdet(m) == -2
    m3 = [[Q(2), Q(0), Q(1)], [Q(1), Q(1), Q(1)], [Q(0), Q(3), Q(1)]]
    assert rdet(m3) == 2 * (1 - 3) - 0 + 1 * (3 - 0)


def _rdet_by_definition(rows):
    """The m!-term permutation sum of signed row-ordered products."""
    acc = None
    for sigma in permutations(range(len(rows))):
        inversions = sum(1 for i in range(len(sigma))
                         for j in range(i + 1, len(sigma)) if sigma[i] > sigma[j])
        prod = None
        for i, c in enumerate(sigma):
            prod = rows[i][c] if prod is None else prod * rows[i][c]
        term = -prod if inversions % 2 else prod
        acc = term if acc is None else acc + term
    return acc


@st.composite
def free_matrices(draw):
    """Square matrices of sizes 1-5 over a free algebra, some entries zero."""
    m = draw(st.integers(min_value=1, max_value=5))
    fc = free_context(4)
    gens = [fc.gen(g) for g in range(4)]
    entry = st.one_of(
        st.just(fc.zero()),
        st.tuples(st.integers(0, 3), st.integers(-2, 2)).map(
            lambda p: gens[p[0]].scale(p[1])),
        st.tuples(st.integers(0, 3), st.integers(0, 3)).map(
            lambda p: gens[p[0]] * gens[p[1]] + fc.one()))
    return [[draw(entry) for _ in range(m)] for _ in range(m)]


@settings(max_examples=60, deadline=None)
@given(free_matrices())
def test_rdet_matches_permutation_sum(rows):
    assert rdet(rows) == _rdet_by_definition(rows)


@settings(max_examples=40, deadline=None)
@given(free_matrices(), st.data())
def test_row_expansion_with_repeated_labels_is_the_permanent_sum(rows, data):
    # the quantum-permanent path: labels with repeats, each distinct
    # rearrangement once, factors in order
    m = len(rows)
    labels = tuple(sorted(data.draw(st.lists(st.integers(0, m - 1),
                                             min_size=m, max_size=m))))
    expected = None
    for b in set(permutations(labels)):
        prod = rows[0][b[0]]
        for p in range(1, m):
            prod = prod * rows[p][b[p]]
        expected = prod if expected is None else expected + prod
    got = symfun._row_expansion(rows, labels, False)
    assert (got if got is not None else 0) == expected


def test_rdet_matches_permutation_sum_on_hessenberg_series(ctx2):
    # the lower-Hessenberg layout of det_formulas and h_minus, with
    # generating-matrix entries t_ab(u+i), which do not commute
    from yangsym.tensor import t_series
    m = 4
    one = unit_series(2, N2)
    rows = [[t_series(ctx2, 1 + (i + j) % 2, 1 + i % 2, i, N2) if j <= i
             else one.scale(-(i + 1)) if j == i + 1 else USeries.zero(N2)
             for j in range(m)] for i in range(m)]
    assert rdet(rows) == _rdet_by_definition(rows)


def test_rdet_row_order_for_noncommuting_entries():
    from yangsym.pbw import free_context
    fc = free_context(4)
    a, b, c, d = (fc.gen(i) for i in range(4))
    assert rdet([[a, b], [c, d]]) == a * d - b * c
    assert rdet([[a, b], [c, d]]) != d * a - b * c


@pytest.mark.parametrize("m", [0, -1])
def test_det_formulas_rejects_degree_below_one(m):
    with pytest.raises(ValueError, match="need m >= 1 and an int"):
        det_formulas(m, "e_from_p", 2, N2)


def test_det_formulas_rejects_an_unknown_formula():
    with pytest.raises(ValueError, match="unknown determinant formula"):
        det_formulas(2, "e_from_q", 2, N2)


def test_det_formulas_m1():
    e1 = elem_e(1, 2, N2)
    for which in ("e_from_p", "h_from_p", "p_from_e", "p_from_h"):
        assert det_formulas(1, which, 2, N2) == e1


def test_det_formula_m2_displayed_matrices():
    # the displayed 2x2 matrices, assembled directly
    one = unit_series(2, N2)
    h1, h2 = homog_h(1, 2, N2), homog_h(2, 2, N2)
    d = rdet([[h1, one], [h2.scale(2), h1.shift(1)]])
    assert d == power_p(2, +1, 2, N2).scale(-1)
    p1, p2 = power_p(1, -1, 2, N2), power_p(2, -1, 2, N2)
    d2 = rdet([[p1, one], [p2, p1.shift(-1)]])
    assert d2 == elem_e(2, 2, N2).scale(2)


@pytest.mark.parametrize("which,sign", [("e_from_p", -1), ("h_from_p", +1),
                                        ("p_from_e", -1), ("p_from_h", +1)])
def test_det_formulas_m2_m3(which, sign):
    targets = {
        "e_from_p": lambda m: elem_e(m, 2, N2),
        "h_from_p": lambda m: homog_h(m, 2, N2),
        "p_from_e": lambda m: power_p(m, -1, 2, N2),
        "p_from_h": lambda m: power_p(m, +1, 2, N2),
    }
    for m in (2, 3):
        assert det_formulas(m, which, 2, N2) == targets[which](m)


# -- inverse family ---------------------------------------------------------------

def test_h_minus_low_degrees():
    assert h_minus(0, 2, N2) == unit_series(2, N2)
    assert h_minus(1, 2, N2) == elem_e(1, 2, N2)
    p1 = power_p(1, -1, 2, N2)
    p2 = power_p(2, -1, 2, N2)
    expected = (p2.shift(1) + p1 * p1.shift(1)).scale(Q(1, 2))
    assert h_minus(2, 2, N2) == expected


@pytest.mark.parametrize("m", [1, 2, 3])
def test_h_minus_det_matches_recursion(m):
    assert h_minus(m, 2, N2) == h_minus_from_inverse(m, 2, N2)


def test_inverse_identity_low_tau_degrees():
    E = gen_E(2, N2)
    H = gen_Hminus(4, 2, N2)
    prod = E * H.shift(1)
    assert prod.coeff(0) == unit_series(2, N2)
    for d in (1, 2, 3, 4):
        assert prod.coeff(-d).is_zero()


def test_e_from_h_minus():
    # e_k is the Jacobi-Trudi determinant in h^- of the column (1^k)
    assert schur_s((1,), "h", 2, N2) == elem_e(1, 2, N2)
    assert schur_s((1, 1), "h", 2, N2) == elem_e(2, 2, N2)
    assert not hasattr(symfun, "e_from_h_minus")


def test_h_minus_from_inverse_rejects_negative_m():
    with pytest.raises(ValueError, match="need m >= 0 and an int"):
        h_minus_from_inverse(-1, 2, N2)


# -- Schur series ------------------------------------------------------------------

def test_partition_basics():
    lam = Partition((3, 1))
    assert lam.conjugate() == Partition((2, 1, 1))
    assert lam.conjugate().conjugate() == lam
    assert Partition((2, 2, 0)).parts == (2, 2)
    with pytest.raises(ValueError):
        Partition((1, 2))
    assert Partition((True, 0)).parts == (1,)


@pytest.mark.parametrize("parts", [(2.7, 1.2), ("3", "1"), (2, Q(1, 2))])
def test_partition_refuses_parts_that_are_not_ints(parts):
    with pytest.raises(ValueError, match="need partition part >= 0 and an int"):
        Partition(parts)


def test_schur_refuses_a_float_part():
    with pytest.raises(ValueError, match=r"need partition part >= 0 and an int, got 1\.9"):
        schur_s((1.9,), "h", 2, 2)


def test_schur_single_box():
    e1 = elem_e(1, 2, N2)
    assert schur_s((1,), "h", 2, N2) == e1
    assert schur_s((1,), "e", 2, N2) == e1


def test_schur_column_is_elementary():
    assert schur_s((1, 1), "h", 2, N2) == elem_e(2, 2, N2)
    assert schur_s((1, 1), "e", 2, N2) == elem_e(2, 2, N2)


def test_schur_row_is_h_minus():
    assert schur_s((2,), "h", 2, N2) == h_minus(2, 2, N2)
    assert schur_s((2,), "e", 2, N2) == h_minus(2, 2, N2)


@pytest.mark.parametrize("lam", [(2, 1), (2, 2), (3, 1)])
def test_schur_duality(lam):
    n, N = 2, 5
    assert schur_s(lam, "h", n, N) == schur_s(lam, "e", n, N)


def test_commuting_coefficients_small():
    series = [power_p(1, -1, 2, 3), power_p(2, -1, 2, 3),
              elem_e(2, 2, 3), h_minus(2, 2, 3)]
    coeffs = [c for s in series for c in s.coeffs.values()
              if c.as_scalar() is None]
    for a in coeffs:
        for b in coeffs:
            assert (a * b - b * a).is_zero()


def test_top_elementary_coefficients_are_central(ctx2):
    # coefficients of e_2(u) at n=2 commute with every determined generator
    en = elem_e(2, 2, N2)
    for c in en.coeffs.values():
        if c.as_scalar() is not None:
            continue
        for r in (1, 2, 3):
            for i in (1, 2):
                for j in (1, 2):
                    g = ctx2.t(r, i, j)
                    assert (c * g - g * c).is_zero()


def test_series_coefficient_levels_bounded_by_order():
    # the u^-m coefficient only involves monomials of total level <= m
    for s in (elem_e(2, 2, 4), homog_h(2, 2, 4),
              power_p(2, -1, 2, 4), h_minus(2, 2, 4)):
        for m, c in s.coeffs.items():
            assert c.level() <= m


def test_products_of_series_coefficients_keep_every_level():
    # e_1(u) at u^-3 is t[3,1,1] + t[3,2,2]; its square reaches level 6,
    # above the order of the series it came from
    c = elem_e(1, 2, 4).coeff(3)
    assert c.level() == 3
    assert (c * c).level() == 6


def test_algebra_series_associativity_seeded():
    import random
    rng = random.Random(11)
    ctx = yangian_context(2)
    gens = [ctx.t(r, i, j) for r in (1, 2) for i in (1, 2) for j in (1, 2)]

    def rand_series(order):
        coeffs = {}
        for m in range(order + 1):
            if rng.random() < 0.7:
                coeffs[m] = gens[rng.randrange(len(gens))].scale(rng.randint(-2, 2))
        return USeries(order, coeffs)

    for _ in range(5):
        a, b, c = rand_series(4), rand_series(4), rand_series(4)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
