"""Acceptance battery: one test per criterion, each at its stated parameter
ranges with tolerance zero (every comparison is exact).

Each test prints one pass/fail line (visible with -s); the pytest verdict
carries the same information.
"""

from yangsym.rationals import Q, binomial
from yangsym.suites import SuiteConfig, run_suite


def _run(suite, desc, num, **cfg_kwargs):
    cfg = SuiteConfig(**cfg_kwargs)
    records = run_suite(suite, cfg)
    failed = [r for r in records if r.status == "fail"]
    skipped = [r for r in records if r.status == "skipped"]
    status = "PASS" if not failed and not skipped else "FAIL"
    print(f"ACCEPTANCE {num:02d} {desc}: {status} "
          f"({len(records)} checks, {len(failed)} failed, {len(skipped)} skipped)")
    assert not failed, [r.jsonable() for r in failed]
    assert not skipped, [r.jsonable() for r in skipped]
    return records


def test_criterion_01_symmetrizer_triple_agreement():
    _run("symmetrizers", "projector triple agreement, k<=4, n<=3", 1, max_k=4)


def test_criterion_02_intertwining():
    _run("intertwining", "intertwining relations, k<=3, n<=3, N=4", 2,
         order=4, max_k=3)


def test_criterion_03_alternative_trace_presentations():
    _run("eb-traces", "four trace presentations, k<=3, n<=3, N=4", 3,
         order=4, max_k=3)


def test_criterion_04_newton_identities():
    _run("newton", "Newton identities, m<=4 at n=2 N=6 and m<=3 at n=3 N=5", 4)


def test_criterion_05_composition_sums():
    _run("composition", "composition sums, k<=4, n=2, N=5", 5,
         n=2, order=5, max_k=4)


def test_criterion_06_determinant_formulas():
    _run("determinants", "determinant formulas, m<=3, n=2, N=5", 6,
         n=2, order=5, max_m=3)


def test_criterion_07_inverse_identity():
    records = _run("inverse-op", "inverse identity to tau^-4, n=2, N=6", 7,
                   n=2, order=6, tau_order=6)
    names = {r.name for r in records}
    for d in (1, 2, 3, 4):
        assert f"vanishing_tau_minus_{d}" in names
    assert "e_from_h_minus_k1" in names and "e_from_h_minus_k2" in names


def test_criterion_08_schur_duality():
    _run("schur", "Schur series two routes, five partitions, n=2, N=5", 8,
         n=2, order=5)


def test_criterion_09_commutativity():
    _run("commutativity", "commuting families incl. random twist, n<=3, N=4", 9,
         order=4, max_k=3)


def test_criterion_10_ratio_adjudications():
    records = _run("lemma-constant", "identity-twist ratio and trace factor", 10)
    # the computed constants themselves, frozen from the matrix oracle
    for r in records:
        if r.anchor == "bethe_identity_twist_ratio":
            n, k = r.params["n"], r.params["k"]
            assert r.detail["computed_ratio"] == str(binomial(n, k))
        if r.anchor == "projector_partial_trace_factor":
            n, m = r.params["n"], r.params["m"]
            assert r.detail["computed_factor"] == str(Q(n - m, m + 1))
            assert r.detail["printed_factor"] == str(Q(n - 1, m + 1))


def test_criterion_11_capelli_bridge():
    _run("capelli-bridge", "evaluation bridges, k<=3, n<=3, N=5, 8 weights", 11,
         order=5, max_k=3)


def test_criterion_12_perelomov_popov():
    _run("perelomov-popov", "closed eigenvalue formula vs two oracles, k<=4", 12,
         max_k=4)


def test_criterion_13_shifted_identities():
    _run("shifted-identities", "shifted identities, symbolic and pointwise, m<=4", 13,
         max_m=4)


def test_criterion_14_engine_selfchecks():
    records = _run("engine-selfcheck", "confluence, Jacobi, truncation soundness", 14)
    drops = [r for r in records if r.anchor == "truncation_soundness"]
    assert drops, "truncation instrumentation must run"
    for r in drops:
        assert r.detail["drop_count"] == 0
        assert r.detail["min_dropped_level"] is None
