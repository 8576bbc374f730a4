import random

import pytest

from yangsym import suites
from yangsym.capelli import check_eh_star
from yangsym.pbw import AlgebraElement, RewriteSystem, gl_context, yangian_context
from yangsym.rationals import Q
from yangsym.series import ShiftedPolynomial, UPolynomial, USeries
from yangsym.suites import (
    Reporter,
    SuiteConfig,
    _coeff_brackets,
    _series_coeffs_commute,
    compare,
    run_suite,
)
from yangsym.tau import TauOperator
from yangsym.tensor import TensorMatrix, symmetrizer


@pytest.mark.parametrize("field", ["n", "order", "max_m", "max_k", "tau_order"])
@pytest.mark.parametrize("value", [0, -1])
def test_suite_config_refuses_non_positive_sizes(field, value):
    with pytest.raises(ValueError, match=f"need {field} >= 1 and an int"):
        SuiteConfig(**{field: value})


def test_suite_config_none_means_default():
    cfg = SuiteConfig()
    assert (cfg.n, cfg.order, cfg.max_m, cfg.max_k, cfg.tau_order) == (None,) * 5
    with pytest.raises(ValueError):
        run_suite("newton", SuiteConfig(n=0, max_m=1))


@pytest.mark.parametrize("n", [1, 2])
def test_capelli_bridge_passes_below_the_random_word_level(n):
    # the random elements of ev_algebra_map reach level 3, above --order 2
    records = run_suite("capelli-bridge", SuiteConfig(n=n, order=2, max_k=1))
    assert [r.name for r in records if r.status != "pass"] == []
    assert "ev_algebra_map" in [r.name for r in records]


@pytest.mark.parametrize("swap", [False, True])
def test_compare_reads_an_absent_tau_degree_up_to_the_other_order(swap):
    # u^{-2} tau against the zero operator differs at u^{-2}, not only at u^0
    op = TauOperator.from_series(USeries(2, {2: 1}), 1)
    ok, failure = compare(*((TauOperator.zero(), op) if swap else (op, TauOperator.zero())))
    assert not ok
    assert (failure["tau"], failure["u_power"]) == (1, 2)


def test_compare_locates_a_series_difference_up_to_the_lower_order():
    y = yangian_context(2)
    lhs = USeries(2, {0: 1, 1: y.t(1, 1, 1) + y.t(1, 2, 2)})
    rhs = USeries(3, {0: 1, 1: y.t(1, 1, 1), 3: y.t(2, 1, 1)})
    assert compare(lhs, rhs) == (False, {"u_power": 1, "monomial": "t[1,2,2]",
                                         "lhs": "1", "rhs": "0"})
    # u^{-3} lies beyond the lower order, so it is not compared
    assert compare(USeries(2, {0: 1}), USeries(3, {0: 1, 3: y.t(2, 1, 1)})) == (True, None)


def test_compare_locates_a_tau_difference_at_both_levels():
    lhs = TauOperator({-1: USeries(2, {0: 1}), 0: USeries(2, {2: Q(1, 2)})})
    rhs = TauOperator({-1: USeries(2, {0: 1}), 0: USeries(2, {2: Q(1, 3)})})
    assert compare(lhs, rhs) == (False, {"tau": 0, "u_power": 2, "monomial": "1",
                                         "lhs": "1/2", "rhs": "1/3"})


def test_compare_locates_a_polynomial_difference_over_an_algebra():
    g = gl_context(2)
    lhs = UPolynomial({0: 3, 2: g.e(1, 1) * g.e(1, 2)})
    rhs = UPolynomial({0: 3, 2: g.e(2, 2) - g.e(1, 1) * g.e(1, 2)})
    assert compare(lhs, rhs) == (False, {"u_exponent": 2, "monomial": "e[1,1]*e[1,2]",
                                         "lhs": "1", "rhs": "-1"})


def test_compare_locates_a_shifted_polynomial_difference():
    # mu_1 + u against mu_2 + u: the first key in order is the exponent of mu_2
    ok, failure = compare(ShiftedPolynomial.linear(2, 1), ShiftedPolynomial.linear(2, 2))
    assert (ok, failure) == (False, {"exponent": (0, 1, 0), "monomial": "1",
                                     "lhs": "0", "rhs": "1"})
    assert compare(*check_eh_star(2, 2)) == (True, None)


def test_self_pair_commutes_each_unordered_coefficient_pair_once():
    y = yangian_context(2)
    s = USeries(3, {0: y.one(), 1: y.t(1, 1, 1), 2: y.t(2, 2, 2), 3: y.t(1, 2, 2)})
    applied = []

    def counting(bracket):
        def apply(terms):
            applied.append(1)
            return bracket(terms)
        return apply

    brackets = {m: counting(b) for m, b in _coeff_brackets(s).items()}
    assert _series_coeffs_commute(s, s, brackets) == (True, None)
    assert len(applied) == 3  # one per unordered pair m < m'


def test_self_pair_finds_two_coefficients_that_do_not_commute():
    y = yangian_context(2)
    s = USeries(2, {1: y.t(1, 1, 2), 2: y.t(1, 2, 1)})
    ok, failure = _series_coeffs_commute(s, s, _coeff_brackets(s))
    assert not ok
    # [t[1,1,2], t[1,2,1]] = t[1,1,1] - t[1,2,2]: the smallest monomial is named
    assert failure == {"u_power_lhs": 1, "u_power_rhs": 2, "monomial": "t[1,1,1]"}


def test_commutativity_forms_each_word_bracket_once(monkeypatch):
    # a bracket map is a derivation: it forms [x, B] for letters x alone and
    # builds every longer word from its suffixes
    formed, kept = [], []
    word_bracket = RewriteSystem.word_bracket

    def counting_word_bracket(rs, x, B):
        formed.append((x, id(B)))
        kept.append(B)  # keeps each id unique while counting
        return word_bracket(rs, x, B)

    monkeypatch.setattr(RewriteSystem, "word_bracket", counting_word_bracket)
    records = run_suite("commutativity", SuiteConfig(n=2, order=4))
    bethe = [r for r in records if r.name.startswith("bethe_family")]
    assert len(bethe) == 36 and all(r.status == "pass" for r in records)
    assert formed and all(type(x) is int for x, _ in formed)
    assert len(set(formed)) == len(formed)


def test_commutativity_memos_stay_small(fresh_python):
    # the word-pair route filled 21,640 nf_memo and 19,602 comm_memo entries
    # here; the derivation stores only letter-word commutators and the
    # insertions they need
    entries, = fresh_python(
        "from yangsym import pbw\n"
        "from yangsym.suites import SuiteConfig, run_suite\n"
        "records = run_suite('commutativity', SuiteConfig(n=3, order=4))\n"
        "assert all(r.status == 'pass' for r in records)\n"
        "rs = pbw.yangian_context(3).rs\n"
        "print(len(rs.nf_memo) + len(rs.comm_memo))")
    assert int(entries) < 20000


def test_verify_all_traced_peak_stays_below_the_bound(fresh_python):
    # tracemalloc's peak over `verify all --n 2 --order 4` after the imports,
    # report sent to os.devnull, Python 3.11 with the Fraction backend: 1768
    # KiB with the leg chains released after eb-traces (1769 before they were
    # shared), 2091 KiB with them kept to the end of the run
    peak, = fresh_python(
        "import contextlib, os, tracemalloc\n"
        "import yangsym.cli, yangsym.suites\n"
        "tracemalloc.start()\n"
        "with open(os.devnull, 'w') as sink, contextlib.redirect_stdout(sink):\n"
        "    code = yangsym.cli.main(['verify', 'all', '--n', '2', '--order', '4',\n"
        "                             '--format', 'json'])\n"
        "assert code == 0\n"
        "print(tracemalloc.get_traced_memory()[1])")
    assert int(peak) <= 1900 * 1024


def test_a_failing_top_elementary_check_names_power_generator_and_monomial(monkeypatch):
    from yangsym import suites

    y = yangian_context(2)
    monkeypatch.setattr(suites, "elem_e",
                        lambda k, n, N: USeries(N, {0: y.one(), 1: y.t(1, 1, 2)}))
    records = run_suite("commutativity", SuiteConfig(n=2, order=2, max_k=1))
    top = [r for r in records if r.name == "top_elementary_central"]
    # [t[1,1,2], t[1,1,1]] = -t[1,1,2]
    assert top[0].failure == {"u_power": 1, "generator": "t[1,1,1]", "monomial": "t[1,1,2]"}


def _patch_at_weight(monkeypatch, name, mu, bump):
    """Patch suites.<name> so that one side changes at the weight mu alone."""
    from yangsym import suites

    real = getattr(suites, name)

    def patched(*args):
        out = real(*args)
        return bump(out) if args[-1].mu == mu else out

    monkeypatch.setattr(suites, name, patched)


def test_a_failing_evaluation_bridge_names_its_weight(monkeypatch):
    _patch_at_weight(monkeypatch, "ev_bridge", (4, 2), lambda sides: (sides[0], sides[1] + 1))
    records = run_suite("capelli-bridge", SuiteConfig(n=2, order=3, max_k=1))
    failed = {r.name: r.failure for r in records if r.status != "pass"}
    assert failed == {f"ev_{kind}_bridge_k1": {"mu": [4, 2], "u_power": 0, "monomial": "1",
                                               "lhs": "2", "rhs": "3"} for kind in "eh"}


def test_a_failing_star_composition_names_its_weight(monkeypatch):
    _patch_at_weight(monkeypatch, "check_star_composition", (4, 2),
                     lambda sides: (sides[0], sides[1] + 1))
    records = run_suite("shifted-identities", SuiteConfig(n=2, max_m=1))
    failed = {r.name: r.failure for r in records if r.status != "pass"}
    assert failed == {
        "e_star_composition_k1": {"mu": [4, 2], "u_exponent": 0, "monomial": "1",
                                  "lhs": "4", "rhs": "5"},
        "h_star_composition_k1": {"mu": [4, 2], "u_exponent": 0, "monomial": "1",
                                  "lhs": "6", "rhs": "7"}}


def test_a_failing_gelfand_eigenvalue_names_its_weight(monkeypatch):
    _patch_at_weight(monkeypatch, "pp_eigen_trEk", (4, 2), lambda value: value + 1)
    records = run_suite("perelomov-popov", SuiteConfig(n=2, max_k=1))
    failed = {r.name: r.failure for r in records if r.status != "pass"}
    assert failed == {"pp_vs_hw_k1": {"mu": [4, 2], "monomial": "1", "lhs": "7", "rhs": "6"}}


def test_every_failing_record_names_a_failure():
    rep = Reporter("demo")
    failed = [rep.run("bare", "a", {}, lambda: False),
              rep.run("no_info", "a", {}, lambda: (False, None)),
              rep.run("located", "a", {}, lambda: (False, {"u_power": 1})),
              rep.run("raised", "a", {}, lambda: 1 // 0)]
    assert [r.status for r in failed] == ["fail"] * 4
    assert [r.failure for r in failed] == [{"reason": "check returned false"}] * 2 + [
        {"u_power": 1}, {"error": "ZeroDivisionError: integer division or modulo by zero"}]
    assert [r.detail for r in failed] == [None] * 4
    # passing records keep a null failure, and their info as the detail
    passed = [rep.run("true", "a", {}, lambda: True),
              rep.run("no_info", "a", {}, lambda: (True, None)),
              rep.run("detail", "a", {}, lambda: (True, {"scalar": "2"}))]
    assert [(r.status, r.failure) for r in passed] == [("pass", None)] * 3
    assert [r.detail for r in passed] == [None, None, {"scalar": "2"}]
    # the determined order is the check's order parameter, and the check has
    # run by the time its record is returned
    calls = []
    ordered = rep.run("ordered", "a", {"n": 2, "order": 3}, lambda: calls.append(1) or True)
    assert calls == [1] and ordered.determined_order == 3
    assert [r.determined_order for r in failed + passed] == [None] * 7


def test_a_failing_identity_record_locates_the_difference(monkeypatch):
    from yangsym import suites

    monkeypatch.setattr(suites, "check_eh_star",
                        lambda m, n: (ShiftedPolynomial.const(n, 1), ShiftedPolynomial.const(n, 2)))
    records = run_suite("shifted-identities", SuiteConfig(n=1, max_m=1))
    eh = [r for r in records if r.name.startswith("eh_star")]
    assert [r.status for r in eh] == ["fail", "fail"]
    assert eh[0].failure == {"exponent": (0, 0), "monomial": "1", "lhs": "1", "rhs": "2"}


def test_a_failing_adjudication_keeps_its_computed_ratio(monkeypatch):
    from yangsym import suites

    monkeypatch.setattr(suites, "_proportionality", lambda target, base: (Q(3), False))
    records = run_suite("lemma-constant", SuiteConfig(n=2, order=2))
    ratio = [r for r in records if r.name.startswith("bethe_ratio")]
    assert [r.status for r in ratio] == ["fail", "fail"]
    assert ratio[0].detail is None
    assert ratio[0].failure == {"computed_ratio": "3", "printed_ratio": "2",
                                "matches_printed": False}


def _bump_first_call(real):
    """real, with 1 added to its first result."""
    calls = []

    def patched(*args):
        calls.append(args)
        return real(*args) + 1 if len(calls) == 1 else real(*args)
    return patched


def _perturb_later_rewrites(rs, word, real=suites._one_step_results):
    results = real(rs, word)
    return results[:1] + [{**r, (): 1} for r in results[1:]]


_LOCATED_FAILURES = {
    # ev(xy) of the first pair gains 1
    "ev_algebra_map": (
        lambda mp: mp.setattr(suites, "ev_hom", _bump_first_call(suites.ev_hom)),
        lambda: suites._first_failure("pair",
                                      suites._ev_multiplicative_sides(2, random.Random(1))),
        {"pair": 0, "monomial": "1", "lhs": "1", "rhs": "0"}),
    # every rewrite but the first of a word gains 1
    "confluence": (
        lambda mp: mp.setattr(suites, "_one_step_results", _perturb_later_rewrites),
        lambda: suites._check_confluence(yangian_context(2)),
        {"word": "t[1,2,1]*t[1,1,2]*t[1,1,1]"}),
    # each bracket gains 1, so the Jacobi sum is 3
    "jacobi": (
        lambda mp: mp.setattr(AlgebraElement, "commutator",
                              lambda x, y, real=AlgebraElement.commutator: real(x, y) + 1),
        lambda: suites._check_jacobi(2),
        {"generators": ["t[1,1,1]"] * 3, "monomial": "1"}),
    # a one-letter correction is measured at the level of its pair
    "termination": (
        lambda mp: mp.setattr(RewriteSystem, "word_level",
                              lambda rs, w, real=RewriteSystem.word_level:
                              real(rs, w) + (len(w) == 1)),
        lambda: suites._check_termination(2),
        {"pair": ["t[1,1,2]", "t[1,1,1]"], "word": "t[1,1,2]"}),
    # the plain product's trace gains 1
    "trace_lemma": (
        lambda mp: mp.setattr(suites, "trace_of_product",
                              lambda mats, real=suites.trace_of_product: real(mats) + 1),
        lambda: suites._first_failure("k", suites._trace_lemma_sides(2)),
        {"k": 2, "monomial": "1", "lhs": "0", "rhs": "1"}),
}


@pytest.mark.parametrize("name", sorted(_LOCATED_FAILURES))
def test_a_failing_engine_check_names_its_witness(monkeypatch, name):
    patch, check, failure = _LOCATED_FAILURES[name]
    assert check() in (True, (True, None))
    patch(monkeypatch)
    assert check() == (False, failure)


def _bump_defining_rep(mp):
    """The image of every U(gl_n) element gains 1 at entry (2, 2)."""
    real = suites.defining_rep_value
    mp.setattr(suites, "defining_rep_value",
               lambda z: [[c + (i == j == 1) for j, c in enumerate(row)]
                          for i, row in enumerate(real(z))])


_LOCATED_MATRIX_FAILURES = {
    # with the identity for each projector, only k = 1 still intertwines
    "intertwining": (
        lambda mp: mp.setattr(suites, "cached_projector",
                              lambda kind, k, n: TensorMatrix.identity(n, k)),
        "intertwining", SuiteConfig(n=2, order=2, max_k=2), ("antisym_intertwine", 2),
        {"row": 0, "column": 1, "u_power": 2, "monomial": "t[1,1,2]", "lhs": "1", "rhs": "0"}),
    # the third method of A_2 returns S_2
    "method_agreement": (
        lambda mp: mp.setattr(suites, "antisymmetrizer",
                              lambda k, n, method="group_sum", real=suites.antisymmetrizer:
                              symmetrizer(k, n) if method == "b_product" else real(k, n, method)),
        "symmetrizers", SuiteConfig(n=2, max_k=2), ("method_agreement_A", 2),
        {"method": "b_product", "row": 0, "column": 0, "monomial": "1", "lhs": "0", "rhs": "1"}),
    # the image of tr E^2 against 2 Id
    "defining_rep_value": (
        _bump_defining_rep,
        "perelomov-popov", SuiteConfig(n=2), ("defining_rep_value_n2_k2", 2),
        {"row": 1, "column": 1, "monomial": "1", "lhs": "3", "rhs": "2"}),
    # the image of tr E^2 against its closed-form eigenvalue times Id
    "defining_rep_scalar": (
        _bump_defining_rep,
        "perelomov-popov", SuiteConfig(n=2), ("defining_rep_scalar_k2", 2),
        {"value": "defining_rep", "row": 1, "column": 1, "monomial": "1",
         "lhs": "3", "rhs": "2"}),
    # the image of the u^0 coefficient of the Capelli polynomial against its
    # highest-weight value times Id (the check has no k)
    "capelli_coeffs_central": (
        _bump_defining_rep,
        "perelomov-popov", SuiteConfig(n=2), ("capelli_coeffs_central_m3", None),
        {"u_exponent": 0, "row": 1, "column": 1, "monomial": "1", "lhs": "13", "rhs": "12"}),
}


@pytest.mark.parametrize("name", sorted(_LOCATED_MATRIX_FAILURES))
def test_a_failing_matrix_check_names_its_first_differing_entry(monkeypatch, name):
    patch, suite, cfg, (check, k), failure = _LOCATED_MATRIX_FAILURES[name]

    def record():
        return next(r for r in run_suite(suite, cfg)
                    if r.name == check and r.params.get("k") == k)

    rec = record()
    assert rec.status == "pass" and rec.failure is None
    patch(monkeypatch)
    assert record().failure == failure


# Counts the Fractions each check constructs in one `verify all --n 2
# --order 4` run, in a fresh interpreter so that every cache starts empty.
_FRACTION_COUNTS = """
import fractions
from collections import Counter
from yangsym import suites
counts, check = Counter(), [None]
new = fractions.Fraction.__new__
def counted(cls, *args, **kwargs):
    counts[check[0]] += 1
    return new(cls, *args, **kwargs)
fractions.Fraction.__new__ = counted
run = suites.Reporter.run
def attributed(self, name, anchor, params, fn):
    check[0] = (name, params.get("k"))
    try:
        return run(self, name, anchor, params, fn)
    finally:
        check[0] = None
suites.Reporter.run = attributed
records = suites.run_suites(list(suites.SUITES), suites.SuiteConfig(n=2, order=4))
assert all(r.status != "fail" for r in records)
print(*(counts[key] for key in [("composition_h_k4", 4), ("e_star_composition_k4", 4),
                                ("idempotent", 4), ("fusion_recursion", 4),
                                ("three_leg_factorizations", None)]))
"""


def test_weighted_sums_and_rational_products_build_few_fractions(fresh_python):
    # the weights and rational matrix products run on cleared integers and
    # divide once per result; at the Fraction route the first three checks
    # built 1102, 861 and 620 Fractions.  The fusion steps reuse the suite's
    # projectors and fold 1/(k+1) into their last product, and the three-leg
    # products run on integral factors: they built 294 and 34 when each
    # rebuilt its projectors or divided every entry twice
    h_k4, e_star_k4, idempotent_k4, fusion_k4, three_leg = map(
        int, fresh_python(_FRACTION_COUNTS))
    assert h_k4 <= 1102 // 2 and e_star_k4 <= 861 // 2 and idempotent_k4 <= 620 // 2
    assert fusion_k4 <= 294 // 2 and three_leg <= 34 // 2
