import random
import re
from itertools import accumulate
from math import prod

import pytest

from yangsym.rationals import Q
from yangsym.series import ShiftedPolynomial, USeries, UPolynomial, factorial_power
from yangsym import capelli, pbw, symfun
from yangsym.pbw import gl_context, yangian_context
from yangsym.suites import SuiteConfig, run_suites
from yangsym.symfun import (composition_sum, composition_weights, compositions, elem_e,
                            homog_h, newton_check, power_p, tau_direct)
from yangsym.capelli import (
    HighestWeight,
    capelli_p,
    check_eh_star,
    check_star_composition,
    default_weight_grid,
    defining_rep_value,
    ev_bridge,
    ev_hminus_bridge,
    ev_hom,
    ev_p_bridge,
    gl_matrix,
    hw_eigenvalue,
    pp_eigen_trEk,
    shifted_e_star,
    shifted_h_star,
    shifted_p_star,
    tr_E_power,
)


@pytest.fixture(scope="module")
def y2():
    return yangian_context(2)


@pytest.fixture(scope="module")
def gl2():
    return gl_context(2)


# -- evaluation homomorphism ---------------------------------------------------

def test_ev_on_generators(y2, gl2):
    assert ev_hom(y2.t(1, 1, 2)) == gl2.e(1, 2)
    assert ev_hom(y2.t(2, 1, 2)) == gl2.zero()
    assert ev_hom(y2.t(3, 2, 2)) == gl2.zero()
    assert ev_hom(y2.one()) == gl2.one()


def test_ev_on_e1_series(gl2):
    img = ev_hom(elem_e(1, 2, 4))
    assert img.coeff(0) == 2
    assert img.coeff(1) == gl2.e(1, 1) + gl2.e(2, 2)
    for m in (2, 3, 4):
        assert img.coeff(m) == 0


def test_ev_is_multiplicative(y2):
    rng = random.Random(3)
    gens = [y2.t(1, 1, 1), y2.t(1, 1, 2), y2.t(2, 2, 1), y2.t(1, 2, 2)]
    for _ in range(10):
        x = sum((g.scale(rng.randint(-2, 2)) for g in gens), y2.zero())
        y = sum((g.scale(rng.randint(-2, 2)) for g in gens), y2.zero())
        xy = x * y
        assert ev_hom(xy) == ev_hom(x) * ev_hom(y)


# -- Capelli polynomials ---------------------------------------------------------

def test_capelli_p1(gl2):
    p1 = capelli_p(1, 2)
    assert p1.coeff(1) == gl2.one().scale(2)
    assert p1.coeff(0) == gl2.e(1, 1) + gl2.e(2, 2)


def test_ev_p_bridge_m2():
    (lhs, rhs), (plus, minus) = ev_p_bridge(2, 2, 4)
    assert lhs == rhs
    assert plus == minus


def test_ev_p_bridge_explicit():
    # ev(p^+_2(u)) * (u rising 2) reproduces tr((E+u)(E+u+1)) term by term
    N = 4
    plus = ev_hom(power_p(2, +1, 2, N))
    lhs = plus * factorial_power(UPolynomial.variable(), 2, 1).to_series(2, N)
    rhs = capelli_p(2, 2).to_series(2, N)
    assert lhs == rhs


def test_ev_hminus_equals_ev_h():
    for m in (1, 2):
        lhs, rhs = ev_hminus_bridge(m, 2, 4)
        assert lhs == rhs


# -- shifted symmetric polynomials ------------------------------------------------

def test_e_star_k1():
    p = shifted_e_star(1, 2)
    expected = ShiftedPolynomial.linear(2, mu_index=1) \
        + ShiftedPolynomial.linear(2, mu_index=2)
    assert p == expected


def test_e_star_vanishes_beyond_n():
    assert shifted_e_star(3, 2).is_zero()
    assert shifted_e_star(4, 3).is_zero()


def test_h_star_k2_n1():
    # single variable: (mu_1 + u - 1)(mu_1 + u)
    p = shifted_h_star(2, 1)
    f1 = ShiftedPolynomial.linear(1, mu_index=1, const=-1)
    f2 = ShiftedPolynomial.linear(1, mu_index=1)
    assert p == f1 * f2


def test_star_zero_degree():
    assert shifted_e_star(0, 2) == ShiftedPolynomial.const(2, Q(1))
    assert shifted_h_star(0, 3) == ShiftedPolynomial.const(3, Q(1))


def test_shifted_polynomial_shift_and_eval():
    p = shifted_e_star(2, 2)
    q = p.shift(-1).shift(1)
    assert q == p
    poly = p.eval_mu((3, 1))
    # (mu1+u+1)(mu2+u) at mu=(3,1): (u+4)(u+1)
    assert poly == (UPolynomial.variable() + 4) * (UPolynomial.variable() + 1)


# -- eigenvalues -------------------------------------------------------------------

def test_pp_trivial_weight():
    for k in (1, 2, 3, 4):
        assert pp_eigen_trEk(k, (0, 0)) == 0
    assert pp_eigen_trEk(0, (0, 0)) == 2
    assert pp_eigen_trEk(0, (2, 1, 0)) == 3


def test_pp_defining_weight_matches_matrix_oracle():
    trE2 = tr_E_power(2, 2)
    assert defining_rep_value(trE2) == [[2, 0], [0, 2]]
    assert pp_eigen_trEk(2, (1, 0)) == 2
    assert hw_eigenvalue(trE2, (1, 0)) == 2


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pp_matches_hw_on_grid(n):
    for k in (1, 2, 3):
        trEk = tr_E_power(k, n)
        for mu in default_weight_grid(n, 6):
            assert pp_eigen_trEk(k, mu) == hw_eigenvalue(trEk, mu)


def test_hw_examples(gl2):
    first_casimir = gl2.e(1, 1) + gl2.e(2, 2)
    assert hw_eigenvalue(first_casimir, (5, 3)) == 8
    assert hw_eigenvalue(gl2.one(), (5, 3)) == 1
    assert hw_eigenvalue(gl2.e(1, 2), (1, 0)) == 0
    assert hw_eigenvalue(gl2.e(2, 1), (1, 0)) == 0


def test_defining_rep_examples(gl2):
    M = defining_rep_value(gl2.e(1, 2) * gl2.e(2, 1))
    assert M == [[Q(1), Q(0)], [Q(0), Q(0)]]
    trace_mat = defining_rep_value(gl2.e(1, 1) + gl2.e(2, 2))
    assert trace_mat == [[1, 0], [0, 1]]


def test_defining_rep_value_is_n_by_n():
    assert defining_rep_value(gl_context(2).e(1, 2)) == [[0, 1], [0, 0]]
    assert len(defining_rep_value(tr_E_power(2, 3))) == 3


def test_one_gl_context_per_n(y2):
    assert gl_context(2) is gl_context(2)
    assert gl_context(2) is not gl_context(3)
    assert ev_hom(y2.t(1, 1, 2)).ctx is gl_context(2)
    assert tr_E_power(1, 2).ctx is gl_context(2)


def test_tr_E_power_refuses_negative_k():
    with pytest.raises(ValueError, match="k must be >= 0"):
        tr_E_power(-1, 2)


def test_default_weight_grid_has_exactly_count_weights():
    assert default_weight_grid(2, 0) == []
    assert len(default_weight_grid(2, 5)) == 5
    assert len(default_weight_grid(1, 8)) == 8


def test_highest_weight_validation():
    with pytest.raises(ValueError):
        HighestWeight((0, 1))
    hw = HighestWeight((2, 0))
    assert hw.m_values() == [Q(3), Q(0)]


def test_highest_weight_refuses_non_integral_and_empty_weights(gl2):
    # integral rationals are accepted and stored as ints
    assert HighestWeight((Q(2), 0)).mu == (2, 0)
    assert all(type(x) is int for x in HighestWeight((Q(2), Q(0))).mu)
    for mu in [(1.7, 0), (2.0, 0), (Q(3, 2), 0), ()]:
        with pytest.raises(ValueError, match="integer entries"):
            HighestWeight(mu)
    with pytest.raises(ValueError, match="integer entries"):
        pp_eigen_trEk(2, (2.9, 0))
    with pytest.raises(ValueError, match="integer entries"):
        hw_eigenvalue(gl2.e(1, 1), (Q(3, 2), 0))


@pytest.mark.parametrize("n", [0, -1, 2.5, 2.0, "2", Q(5, 2), Q(2)])
@pytest.mark.parametrize("build", [gl_context, yangian_context, gl_matrix,
                                   lambda n: tr_E_power(2, n),
                                   lambda n: capelli_p(2, n),
                                   lambda n: pbw.AlgebraContext("gl", n),
                                   pbw.free_context,
                                   lambda n: elem_e(1, n, 3),
                                   lambda n: homog_h(1, n, 3),
                                   lambda n: symfun.h_minus(1, n, 3),
                                   lambda n: power_p(1, 1, n, 3),
                                   lambda n: symfun.schur_s((1,), "h", n, 3),
                                   lambda n: symfun.gen_E(n, 3),
                                   lambda n: symfun.cached_projector("A", 2, n),
                                   lambda n: shifted_e_star(1, n),
                                   lambda n: shifted_h_star(1, n),
                                   lambda n: ev_bridge("e", 1, n, 3, (1, 0))],
                         ids=["gl_context", "yangian_context", "gl_matrix",
                              "tr_E_power", "capelli_p", "AlgebraContext", "free_context",
                              "elem_e", "homog_h", "h_minus", "power_p", "schur_s", "gen_E",
                              "cached_projector", "shifted_e_star", "shifted_h_star",
                              "ev_bridge"])
def test_contexts_and_gl_builders_refuse_n_below_one(build, n):
    # an n that equals a built one (2.0, Q(2)) must not reach it through the
    # contexts or the family cache
    build(2)
    contexts, systems, family = set(pbw._CONTEXTS), set(pbw._SHARED), set(symfun._CACHE)
    with pytest.raises(ValueError, match=f"need n >= 1 and an int, got {re.escape(repr(n))}"):
        build(n)
    assert set(pbw._CONTEXTS) == contexts and set(pbw._SHARED) == systems
    assert set(symfun._CACHE) == family


def test_a_bool_n_is_stored_as_its_int():
    y = yangian_context(True)
    assert type(y.n) is int and y.n == 1 and y is yangian_context(1)
    assert pbw.AlgebraContext("gl", True).rs is gl_context(1).rs
    assert type(pbw.free_context(True).n) is int
    assert repr(gl_context(True).e(1, 1)) == "(1)*e[1,1]"


# -- shifted identities ---------------------------------------------------------------

def test_eh_star_delta(gl2):
    lhs, rhs = check_eh_star(0, 2)
    assert lhs == rhs == ShiftedPolynomial.const(2, 1)
    for m in (1, 2, 3):
        for n in (2, 3):
            lhs, rhs = check_eh_star(m, n)
            assert lhs == rhs and rhs.is_zero()


def test_eh_star_refuses_negative_m():
    with pytest.raises(ValueError, match="m must be >= 0"):
        check_eh_star(-1, 2)


def test_e_star_equals_h_star_at_degree_one():
    assert shifted_e_star(1, 3) == shifted_h_star(1, 3)


def test_star_compositions_at_sample_weight():
    for kind, k, mu in [("e", 1, (1, 0)), ("e", 2, (2, 1)), ("h", 2, (2, 1)),
                        ("e", 3, (3, 1, 0))]:
        lhs, rhs = check_star_composition(kind, k, mu)
        assert lhs == rhs


@pytest.mark.parametrize("mu", [(2, 1), (3, 1, 0)])
@pytest.mark.parametrize("kind,step", [("e", -1), ("h", 1)])
def test_star_composition_matches_the_fraction_weights(kind, step, mu):
    # the reference scales each product of shifted power sums by its Fraction
    # weight (-1)^{k-m}/(a_1...a_m) or 1/(a_1...a_m), a_i the prefix sums
    weight = HighestWeight(mu)
    for k in range(1, 5):
        ref = UPolynomial()
        for lam in compositions(k):
            term, prev_a = UPolynomial.const(1), 0
            for part, a in zip(lam, accumulate(lam)):
                term = term * shifted_p_star(part, weight).shift(-a if step < 0 else prev_a)
                prev_a = a
            ref = ref + term.scale(Q(step ** (k - len(lam)), prod(accumulate(lam))))
        lhs, rhs = check_star_composition(kind, k, mu)
        assert rhs == ref == lhs
        assert all(type(c) is int or (type(c) is Q and c.denominator > 1)
                   for c in rhs.coeffs.values())


@pytest.mark.parametrize("kind", ["x", "E", None])
@pytest.mark.parametrize("call", [
    lambda kind: composition_weights(2, kind),
    lambda kind: composition_sum(2, kind, 2, 3),
    lambda kind: newton_check(2, kind, 2, 3),
    lambda kind: check_star_composition(kind, 2, (1, 0)),
    lambda kind: ev_bridge(kind, 1, 2, 3, (1, 0)),
    lambda kind: tau_direct(kind, 1, 2, 3),
], ids=["composition_weights", "composition_sum", "newton_check",
        "check_star_composition", "ev_bridge", "tau_direct"])
def test_unknown_kind_is_a_value_error(call, kind):
    with pytest.raises(ValueError, match="kind must be 'e' or 'h'"):
        call(kind)


def test_p_star_k1_matches_first_casimir():
    mu = HighestWeight((2, 1))
    p = shifted_p_star(1, mu)
    # sum gamma_i (m_i + u) = tr E^0 * u + tr E^1 = n u + sum(mu)
    assert p.coeff(1) == 2
    assert p.coeff(0) == 3


# -- the evaluation bridges -------------------------------------------------------------

@pytest.mark.parametrize("k", [1, 2])
def test_ev_bridges_n2(k):
    for mu in default_weight_grid(2, 6):
        for kind in ("e", "h"):
            lhs, rhs = ev_bridge(kind, k, 2, 4, mu)
            assert lhs == rhs


def test_ev_bridge_beyond_top_degree():
    # e_3 = 0 at n=2 and e*_3 has no index choices: both sides vanish
    lhs, rhs = ev_bridge("e", 3, 2, 4, HighestWeight((2, 0)))
    assert lhs.is_zero() and rhs.is_zero()


def test_ev_bridge_k1_explicit():
    mu = HighestWeight((4, 1))
    lhs, rhs = ev_bridge("e", 1, 2, 4, mu)
    assert lhs == rhs
    assert lhs.coeff(0) == 2 and lhs.coeff(1) == 5


# -- the defining representation ---------------------------------------------------------

def _random_gl_element(gl, n, rng):
    """A sum of 1 to 3 words of length 0 to 4 with rational coefficients."""
    x = gl.zero()
    for _ in range(rng.randint(1, 3)):
        term = gl.one().scale(Q(rng.randint(-5, 5), rng.randint(1, 3)))
        for _ in range(rng.randint(0, 4)):
            term = term * gl.e(rng.randint(1, n), rng.randint(1, n))
        x = x + term
    return x


def _rational_matmul(A, B):
    return [[sum((a * b_row[j] for a, b_row in zip(row, B)), Q(0)) for j in range(len(B))]
            for row in A]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("n", [2, 3])
def test_defining_rep_value_is_multiplicative(n, seed):
    # x * y is normal-ordered before it is represented, so this checks the
    # word-by-word closed form and the U(gl_n) normal ordering together
    rng = random.Random(seed)
    gl = gl_context(n)
    x, y = _random_gl_element(gl, n, rng), _random_gl_element(gl, n, rng)
    assert defining_rep_value(x * y) == _rational_matmul(defining_rep_value(x),
                                                         defining_rep_value(y))


# -- the shifted functions and evaluation images are built once per run -----------

_CACHED_SUITES = ["shifted-identities", "capelli-bridge"]


def _records(cfg):
    out = []
    for r in run_suites(_CACHED_SUITES, cfg):
        rec = r.jsonable()
        del rec["wall_time"]
        out.append(rec)
    return out


def test_cached_values_give_the_records_of_fresh_builds(monkeypatch):
    monkeypatch.setattr(symfun, "_CACHE", {})
    cfg = SuiteConfig(n=2, order=4)
    cold = _records(cfg)
    warm = _records(cfg)
    symfun._CACHE.clear()
    cleared = _records(cfg)
    assert cold == warm == cleared
    assert all(rec["status"] == "pass" for rec in cold)


def test_p_star_weights_share_one_cache_entry(monkeypatch):
    monkeypatch.setattr(symfun, "_CACHE", {})
    values = [shifted_p_star(2, [2, 1]), shifted_p_star(2, HighestWeight((2, 1))),
              shifted_p_star(2, (Q(2), 1))]
    assert values[0] is values[1] is values[2]
    assert list(symfun._CACHE) == [("p*", 2, (2, 1))]


@pytest.mark.parametrize("call", [
    lambda: shifted_p_star(0, (2, 1)),
    lambda: shifted_p_star(2, (1, 2)),
    lambda: shifted_p_star(2, (Q(1, 2), 0)),
    lambda: shifted_e_star(-1, 2),
    lambda: shifted_h_star(-1, 2),
], ids=["p_k0", "p_increasing", "p_nonintegral", "e_negative", "h_negative"])
def test_bad_shifted_arguments_cache_nothing(call):
    keys = set(symfun._CACHE)
    with pytest.raises(ValueError):
        call()
    assert set(symfun._CACHE) == keys


def test_one_run_builds_each_shifted_value_and_evaluation_image_once(monkeypatch):
    """Build counts of the uncached builders in one shifted-identities plus
    capelli-bridge run at n = 2: 32 distinct (k, weight) for p*, k = 0..4
    for e* and h*, and ev(e_k), ev(h_k) for k <= 3."""
    monkeypatch.setattr(symfun, "_CACHE", {})
    star_sum, p_star, ev = capelli._star_sum, capelli._p_star, capelli.ev_hom
    stars, p_builds, series_images = [], [], []

    def counting_star_sum(subsets, *args):
        stars.append(subsets)
        return star_sum(subsets, *args)

    def counting_p_star(*args):
        p_builds.append(args)
        return p_star(*args)

    def counting_ev_hom(x):
        if isinstance(x, USeries):
            series_images.append(x)
        return ev(x)

    monkeypatch.setattr(capelli, "_star_sum", counting_star_sum)
    monkeypatch.setattr(capelli, "_p_star", counting_p_star)
    monkeypatch.setattr(capelli, "ev_hom", counting_ev_hom)
    run_suites(_CACHED_SUITES, SuiteConfig(n=2, order=4))
    assert len(p_builds) == 32
    assert stars.count(capelli.combinations) == 5
    assert stars.count(capelli.combinations_with_replacement) == 5
    families = [f(k, 2, 4) for f in (elem_e, homog_h) for k in (1, 2, 3)]
    assert sum(any(x is f for f in families) for x in series_images) == 6
