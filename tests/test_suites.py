import pytest

from yangsym.pbw import AlgebraElement, yangian_context
from yangsym.series import USeries
from yangsym.suites import Reporter, SuiteConfig, _series_coeffs_commute, check_tau, run_suite
from yangsym.tau import TauOperator


@pytest.mark.parametrize("field", ["n", "order", "max_m", "max_k", "tau_order"])
@pytest.mark.parametrize("value", [0, -1])
def test_suite_config_refuses_non_positive_sizes(field, value):
    with pytest.raises(ValueError, match=f"SuiteConfig.{field} must be a positive integer"):
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
def test_check_tau_compares_an_absent_degree_up_to_the_other_order(swap):
    # u^{-2} tau against the zero operator differs at u^{-2}, not only at u^0
    op = TauOperator.from_series(USeries(2, {2: 1}), 1)
    ok, failure = check_tau(*((TauOperator.zero(), op) if swap else (op, TauOperator.zero())))
    assert not ok
    assert (failure["tau"], failure["u_power"]) == (1, 2)


def test_self_pair_commutes_each_unordered_coefficient_pair_once(monkeypatch):
    y = yangian_context(2)
    s = USeries(3, {0: y.one(), 1: y.t(1, 1, 1), 2: y.t(2, 2, 2), 3: y.t(1, 2, 2)})
    pairs = []
    commutator = AlgebraElement.commutator

    def counting_commutator(a, b):
        pairs.append(1)
        return commutator(a, b)

    monkeypatch.setattr(AlgebraElement, "commutator", counting_commutator)
    assert _series_coeffs_commute(s, s) == (True, None)
    assert len(pairs) == 3  # one per unordered pair m < m'


def test_self_pair_finds_two_coefficients_that_do_not_commute():
    y = yangian_context(2)
    s = USeries(2, {1: y.t(1, 1, 2), 2: y.t(1, 2, 1)})
    ok, failure = _series_coeffs_commute(s, s)
    assert not ok
    # [t[1,1,2], t[1,2,1]] = t[1,1,1] - t[1,2,2]: the smallest monomial is named
    assert failure == {"u_power_lhs": 1, "u_power_rhs": 2, "monomial": "t[1,1,1]"}


def test_every_failing_record_names_a_failure():
    rep = Reporter("demo")
    bare = rep.run("bare", "a", {}, lambda: False)
    detailed = rep.run("detailed", "a", {}, lambda: (False, {"_detail": True, "scalar": "2"}))
    assert bare.status == detailed.status == "fail"
    assert bare.failure == detailed.failure == {"reason": "check returned false"}
    assert detailed.detail == {"scalar": "2"}
    # passing records keep a null failure
    passed = [rep.run("true", "a", {}, lambda: True),
              rep.run("detail", "a", {}, lambda: (True, {"_detail": True, "scalar": "2"}))]
    assert [(r.status, r.failure) for r in passed] == [("pass", None)] * 2
    assert passed[1].detail == {"scalar": "2"}
