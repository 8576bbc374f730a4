import pytest

from yangsym.series import USeries
from yangsym.suites import SuiteConfig, check_tau, run_suite
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
