import pytest

from yangsym.suites import SuiteConfig, run_suite


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
