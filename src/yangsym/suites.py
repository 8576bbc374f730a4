"""Verification suites with machine-readable reports.

Each suite runs a fixed battery of exact checks (tolerance zero throughout)
and returns a list of CheckRecords.  Records carry the parameters, the
status (pass / fail / skipped), the series order up to which the truncation
fully determines the identity, the wall time, and on failure the first
differing coefficient.

Two suites are adjudications rather than assertions: `lemma-constant`
computes the proportionality constant between the elementary series and the
identity-twist Bethe generators (and the partial-trace contraction factor of
antisymmetrizers) from scratch, records the computed value next to the
candidate closed form, and passes on internal consistency of the ratio.
"""

import random
import time
from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import factorial

from .rationals import Q, binomial, rational_str
from .series import USeries
from .pbw import (
    AlgebraElement,
    free_context,
    yangian_context,
    yangian_relations,
    ugl_relations,
    encode_t,
    encode_e,
)
from .tensor import (
    algebra_ring,
    antisymmetrizer,
    symmetrizer,
    fusion_step,
    matrix_on_leg,
    perm_op,
    r_matrix,
    t_product,
    tm_mul,
    trace_full,
    trace_partial,
)
from .symfun import (
    BetheTwist,
    bethe_b,
    cached_projector,
    composition_sum,
    det_formulas,
    e_tau,
    elem_e,
    gen_E,
    gen_Hminus,
    h_minus,
    h_minus_from_inverse,
    h_tau,
    homog_h,
    newton_check,
    power_p,
    schur_s,
    unit_series,
)
from .capelli import (
    HighestWeight,
    _mat_mul,
    capelli_p,
    check_e_star_composition,
    check_eh_star,
    check_h_star_composition,
    default_weight_grid,
    defining_rep_value,
    ev_e_bridge,
    ev_h_bridge,
    ev_hminus_bridge,
    ev_hom,
    ev_p_bridge,
    hw_eigenvalue,
    is_scalar_matrix,
    pp_eigen_trEk,
    tr_E_power,
)


@dataclass
class SuiteConfig:
    n: int = None
    order: int = None
    max_m: int = None
    max_k: int = None
    tau_order: int = None
    seed: int = 20240811

    def __post_init__(self):
        for name in ("n", "order", "max_m", "max_k", "tau_order"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"SuiteConfig.{name} must be a positive integer, got {value}")


@dataclass
class CheckRecord:
    suite: str
    name: str
    anchor: str
    params: dict
    status: str
    determined_order: int = None
    wall_time: float = 0.0
    failure: dict = None
    detail: dict = None

    def jsonable(self):
        return {
            "suite": self.suite,
            "name": self.name,
            "anchor": self.anchor,
            "params": self.params,
            "status": self.status,
            "determined_order": self.determined_order,
            "wall_time": round(self.wall_time, 6),
            "failure": self.failure,
            "detail": self.detail,
        }


class Reporter:
    def __init__(self, suite):
        self.suite = suite
        self.records = []

    def run(self, name, anchor, params, fn, determined_order=None):
        t0 = time.perf_counter()
        failure = None
        detail = None
        try:
            res = fn()
            if isinstance(res, tuple):
                ok, info = res[0], (res[1] if len(res) > 1 else None)
                if isinstance(info, dict) and info.pop("_detail", False):
                    detail = info
                elif not ok:
                    failure = info
            else:
                ok = bool(res)
        except Exception as exc:  # a crashing check is a failing check
            ok = False
            failure = {"error": f"{type(exc).__name__}: {exc}"}
        rec = CheckRecord(
            suite=self.suite, name=name, anchor=anchor, params=params,
            status="pass" if ok else "fail",
            determined_order=determined_order,
            wall_time=time.perf_counter() - t0,
            failure=failure, detail=detail,
        )
        self.records.append(rec)
        return rec

    def skip(self, name, anchor, params, reason):
        self.records.append(CheckRecord(
            suite=self.suite, name=name, anchor=anchor, params=params,
            status="skipped", detail={"reason": reason}))


# ---------------------------------------------------------------------------
# failure reporting helpers

def _coeff_diff(a, b):
    """First differing monomial between two coefficients (or scalars)."""
    if isinstance(a, AlgebraElement) and isinstance(b, AlgebraElement):
        words = sorted(set(a.terms) | set(b.terms))
        for w in words:
            ca, cb = a.terms.get(w, 0), b.terms.get(w, 0)
            if ca != cb:
                mono = "*".join(a.gen_name(g) for g in w) if w else "1"
                return mono, str(ca), str(cb)
        return None
    return "1", str(a), str(b)


def series_failure(lhs, rhs):
    d = lhs.first_difference(rhs)
    if d is None:
        return None
    m, a, b = d
    mono, sa, sb = _coeff_diff(a, b)
    return {"u_power": m, "monomial": mono, "lhs": sa, "rhs": sb}


def check_series(lhs, rhs):
    f = series_failure(lhs, rhs)
    return (f is None, f)


def check_tau(lhs, rhs):
    for d in sorted(set(lhs.coeffs) | set(rhs.coeffs)):
        a, b = lhs.coeffs.get(d), rhs.coeffs.get(d)
        # an absent degree is zero up to the other side's order
        a = a if a is not None else USeries.zero(b.order)
        b = b if b is not None else USeries.zero(a.order)
        f = series_failure(a, b)
        if f is not None:
            f["tau"] = d
            return (False, f)
    return (True, None)


def _proportionality(target, base):
    """(constant, ok): constant with target == constant * base, if it exists."""
    ratio = None
    for m in sorted(set(target.coeffs) | set(base.coeffs)):
        cb = base.coeffs.get(m)
        if not cb:
            if target.coeffs.get(m):
                return (None, False)
            continue
        if isinstance(cb, AlgebraElement):
            ct = target.coeffs.get(m, 0)
            for w, q in cb.terms.items():
                r = Q(ct.terms.get(w, 0)) / q if isinstance(ct, AlgebraElement) else Q(0)
                break
        else:
            r = Q(target.coeffs.get(m, 0)) / cb
        if ratio is None:
            ratio = r
        break
    if ratio is None:
        return (None, target.is_zero() and base.is_zero())
    return (ratio, base.scale(ratio) == target)


def _matrix_proportionality(target, base):
    """(constant, ok) with target == constant * base, entrywise rational."""
    for r, row in base.rows.items():
        for c, v in row.items():
            if v:
                t = target.entry(r, c)
                ratio = t / v
                return (ratio, target.equal(base.scale(ratio)))
    return (None, target.is_zero())


def _ns(cfg, default=(1, 2, 3)):
    return (cfg.n,) if cfg.n else default


# ---------------------------------------------------------------------------
# suites

def suite_symmetrizers(cfg):
    rep = Reporter("symmetrizers")
    kmax = cfg.max_k or 4
    for n in _ns(cfg):
        for k in range(1, kmax + 1):
            A = {m: antisymmetrizer(k, n, m) for m in ("group_sum", "fusion", "b_product")}
            S = {m: symmetrizer(k, n, m) for m in ("group_sum", "fusion", "b_product")}
            rep.run("method_agreement_A", "projector_triple_agreement",
                    {"n": n, "k": k},
                    lambda A=A: A["group_sum"].equal(A["fusion"]) and
                    A["group_sum"].equal(A["b_product"]))
            rep.run("method_agreement_S", "projector_triple_agreement",
                    {"n": n, "k": k},
                    lambda S=S: S["group_sum"].equal(S["fusion"]) and
                    S["group_sum"].equal(S["b_product"]))
            rep.run("idempotent", "projector_idempotent", {"n": n, "k": k},
                    lambda A=A, S=S: tm_mul(A["group_sum"], A["group_sum"]).equal(A["group_sum"])
                    and tm_mul(S["group_sum"], S["group_sum"]).equal(S["group_sum"]))
            rep.run("trace_dimensions", "projector_trace", {"n": n, "k": k},
                    lambda A=A, S=S, n=n, k=k:
                    trace_full(A["group_sum"]) == binomial(n, k) and
                    trace_full(S["group_sum"]) == binomial(n + k - 1, k))
            if k >= 2:
                rep.run("fusion_recursion", "projector_fusion_step", {"n": n, "k": k},
                        lambda n=n, k=k:
                        fusion_step(antisymmetrizer(k - 1, n), "A").equal(antisymmetrizer(k, n))
                        and fusion_step(symmetrizer(k - 1, n), "S").equal(symmetrizer(k, n)))
        # the explicit three-leg factorizations, both presentations
        rep.run("three_leg_factorizations", "projector_r_factorization", {"n": n},
                lambda n=n: _check_a3_factorizations(n))
        rep.run("top_degree_vanishing", "projector_top_degree", {"n": n},
                lambda n=n: antisymmetrizer(n + 1, n).is_zero())
    return rep.records


def _check_a3_factorizations(n):
    A3 = antisymmetrizer(3, n)
    by_fusion = tm_mul(tm_mul(r_matrix(2, 3, 1, 3, n), r_matrix(1, 3, 2, 3, n)),
                       r_matrix(1, 2, 1, 3, n)).scale(Q(1, 6))
    by_b = tm_mul(tm_mul(r_matrix(1, 2, 1, 3, n), r_matrix(2, 3, Q(1, 2), 3, n)),
                  r_matrix(1, 2, 1, 3, n)).scale(Q(1, 12))
    return A3.equal(by_fusion) and A3.equal(by_b)


def suite_intertwining(cfg):
    rep = Reporter("intertwining")
    N = cfg.order or 4
    kmax = cfg.max_k or 3
    for n in _ns(cfg):
        ctx = yangian_context(n)
        for k in range(1, kmax + 1):
            A = cached_projector("A", k, n)
            S = cached_projector("S", k, n)
            dec = [-s for s in range(k)]
            inc = list(range(k))
            rep.run("antisym_intertwine", "projector_intertwining",
                    {"n": n, "k": k, "order": N},
                    lambda A=A, dec=dec, k=k, ctx=ctx:
                    t_product(dec, N, ctx, left=A).equal(
                        t_product(dec[::-1], N, ctx, legs=range(k, 0, -1), right=A)),
                    determined_order=N)
            rep.run("sym_intertwine", "projector_intertwining",
                    {"n": n, "k": k, "order": N},
                    lambda S=S, inc=inc, k=k, ctx=ctx:
                    t_product(inc, N, ctx, left=S).equal(
                        t_product(inc[::-1], N, ctx, legs=range(k, 0, -1), right=S)),
                    determined_order=N)
    return rep.records


def suite_eb_traces(cfg):
    rep = Reporter("eb-traces")
    N = cfg.order or 4
    kmax = cfg.max_k or 3
    from .symfun import prop_eB_traces
    for n in _ns(cfg):
        for k in range(1, kmax + 1):
            # built inside the checks, which are charged for the family builds
            targets = {
                1: lambda k=k, n=n: elem_e(k, n, N),
                2: lambda k=k, n=n: homog_h(k, n, N),
                3: lambda k=k, n=n: elem_e(k, n, N).shift(k - 1),
                4: lambda k=k, n=n: homog_h(k, n, N).shift(-(k - 1)),
            }
            for variant in (1, 2, 3, 4):
                rep.run(f"trace_variant_{variant}", "alt_trace_presentations",
                        {"n": n, "k": k, "variant": variant, "order": N},
                        lambda k=k, variant=variant, n=n, target=targets[variant]:
                        check_series(prop_eB_traces(k, variant, n, N), target()),
                        determined_order=N)
    return rep.records


def suite_newton(cfg):
    rep = Reporter("newton")
    if cfg.n:
        shapes = [(cfg.n, cfg.order or (6 if cfg.n == 2 else 5),
                   cfg.max_m or (4 if cfg.n == 2 else 3))]
    else:
        shapes = [(2, 6, 4), (3, 5, 3)]
    for n, N, m_max in shapes:
        for m in range(1, m_max + 1):
            for kind in ("e", "h"):
                rep.run(f"newton_{kind}_m{m}", f"newton_{kind}",
                        {"n": n, "order": N, "m": m},
                        lambda m=m, kind=kind, n=n, N=N:
                        check_tau(*newton_check(m, kind, n, N)[1:]),
                        determined_order=N)
    return rep.records


def suite_composition(cfg):
    rep = Reporter("composition")
    n = cfg.n or 2
    N = cfg.order or 5
    kmax = cfg.max_k or 4
    for k in range(1, kmax + 1):
        rep.run(f"composition_e_k{k}", "power_sum_composition_e",
                {"n": n, "order": N, "k": k},
                lambda k=k: check_tau(composition_sum(k, "e", n, N),
                                      e_tau(k, n, N)),
                determined_order=N)
        rep.run(f"composition_h_k{k}", "power_sum_composition_h",
                {"n": n, "order": N, "k": k},
                lambda k=k: check_tau(composition_sum(k, "h", n, N),
                                      h_tau(k, n, N)),
                determined_order=N)
    return rep.records


def suite_determinants(cfg):
    rep = Reporter("determinants")
    n = cfg.n or 2
    N = cfg.order or 5
    m_max = cfg.max_m or 3
    for m in range(1, m_max + 1):
        targets = {
            "e_from_p": lambda m=m: elem_e(m, n, N),
            "h_from_p": lambda m=m: homog_h(m, n, N),
            "p_from_e": lambda m=m: power_p(m, -1, n, N),
            "p_from_h": lambda m=m: power_p(m, +1, n, N),
        }
        for which, target in targets.items():
            rep.run(f"{which}_m{m}", f"determinant_{which}",
                    {"n": n, "order": N, "m": m},
                    lambda which=which, m=m, target=target:
                    check_series(det_formulas(m, which, n, N), target()),
                    determined_order=N)
    return rep.records


def suite_inverse_op(cfg):
    rep = Reporter("inverse-op")
    n = cfg.n or 2
    N = cfg.order or 6
    L = cfg.tau_order or 6
    required_depth = 4
    E = gen_E(n, N)
    H = gen_Hminus(L, n, N)
    prod = E * H.shift(1)
    rep.run("unit_term", "inverse_identity_unit", {"n": n, "order": N, "tau_order": L},
            lambda: check_series(prod.coeff(0), unit_series(n, N)),
            determined_order=N)
    for d in range(1, max(required_depth, L) + 1):
        if d > L:
            rep.skip(f"vanishing_tau_minus_{d}", "inverse_identity_vanishing",
                     {"n": n, "order": N, "tau": -d},
                     "tau truncation does not determine this degree")
            continue
        rep.run(f"vanishing_tau_minus_{d}", "inverse_identity_vanishing",
                {"n": n, "order": N, "tau": -d},
                lambda d=d: check_series(prod.coeff(-d), USeries.zero(N)),
                determined_order=N)
    for k in range(1, 3):
        rep.run(f"e_from_h_minus_k{k}", "elementary_from_inverse_family",
                {"n": n, "order": N, "k": k},
                lambda k=k: check_series(schur_s((1,) * k, "h", n, N),
                                         elem_e(k, n, N)),
                determined_order=N)
    for m in range(1, 5):
        rep.run(f"h_minus_det_vs_recursion_m{m}", "inverse_family_two_routes",
                {"n": n, "order": N, "m": m},
                lambda m=m: check_series(h_minus(m, n, N),
                                         h_minus_from_inverse(m, n, N)),
                determined_order=N)
    return rep.records


def suite_schur(cfg):
    rep = Reporter("schur")
    n = cfg.n or 2
    N = cfg.order or 5
    lams = [(1,), (2,), (1, 1), (2, 1), (2, 2)]
    for lam in lams:
        rep.run(f"schur_duality_{'_'.join(map(str, lam))}", "schur_two_routes",
                {"n": n, "order": N, "lambda": list(lam)},
                lambda lam=lam: check_series(schur_s(lam, "h", n, N),
                                             schur_s(lam, "e", n, N)),
                determined_order=N)
    return rep.records


def suite_commutativity(cfg):
    rep = Reporter("commutativity")
    N = cfg.order or 4
    kmax = cfg.max_k or 3
    rng = random.Random(cfg.seed)
    for n in _ns(cfg):
        family = []
        for k in range(1, kmax + 1):
            family.append((f"p-_{k}", power_p(k, -1, n, N)))
            if k <= n:
                family.append((f"e_{k}", elem_e(k, n, N)))
            family.append((f"h-_{k}", h_minus(k, n, N)))
        _pairwise_commute(rep, "bethe_family", n, N, family)
        Z = BetheTwist.random(n, rng)
        twisted = [(f"b_{k}", bethe_b(k, Z, n, N)) for k in range(1, min(kmax, n) + 1)]
        _pairwise_commute(rep, "twisted_family", n, N, twisted,
                          extra={"twist": [[rational_str(v) for v in row] for row in Z.matrix]})
        if n == 2:
            rep.run("top_elementary_central", "top_elementary_centrality",
                    {"n": n, "order": N, "max_level": N - n + 1},
                    lambda n=n: _check_top_e_central(n, N),
                    determined_order=N)
    return rep.records


def _check_top_e_central(n, N):
    """Coefficients of e_n(u) commute with every generator of level
    <= N - n + 1 (the levels the truncation fully determines)."""
    ctx = yangian_context(n)
    en = elem_e(n, n, N)
    for c in en.coeffs.values():
        if not isinstance(c, AlgebraElement) or c.as_scalar() is not None:
            continue
        for r in range(1, N - n + 2):
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    g = ctx.t(r, i, j)
                    if c * g - g * c:
                        return False
    return True


def _pairwise_commute(rep, label, n, N, family, extra=None):
    for a in range(len(family)):
        for b in range(a, len(family)):
            name_a, sa = family[a]
            name_b, sb = family[b]
            params = {"n": n, "order": N, "lhs": name_a, "rhs": name_b}
            if extra:
                params.update(extra)
            rep.run(f"{label}_{name_a}_vs_{name_b}", f"commuting_{label}", params,
                    lambda sa=sa, sb=sb: _series_coeffs_commute(sa, sb),
                    determined_order=N)


def _series_coeffs_commute(sa, sb):
    # on a self pair only m < m' is needed: [y, x] = -[x, y] and [x, x] = 0
    same = sa is sb
    for ma, ca in sa.coeffs.items():
        if not isinstance(ca, AlgebraElement) or ca.as_scalar() is not None:
            continue
        for mb, cb in sb.coeffs.items():
            if same and mb <= ma:
                continue
            if not isinstance(cb, AlgebraElement) or cb.as_scalar() is not None:
                continue
            comm = ca * cb - cb * ca
            if comm:
                mono = next(iter(comm.terms))
                return (False, {"u_power_lhs": ma, "u_power_rhs": mb,
                                "monomial": "*".join(comm.gen_name(g) for g in mono)})
    return (True, None)


def suite_lemma_constant(cfg):
    rep = Reporter("lemma-constant")
    N = cfg.order or 4
    for n in _ns(cfg):
        Z = BetheTwist.identity(n)
        for k in range(1, n + 1):
            def check(k=k, n=n):
                e = elem_e(k, n, N)
                b = bethe_b(k, Z, n, N)
                ratio, ok = _proportionality(e, b)
                # the closed form recorded alongside: n! / (k! (n-1)^(n-k))
                base = (n - 1) ** (n - k)
                printed = Q(factorial(n), factorial(k) * base) if base else None
                detail = {
                    "_detail": True,
                    "computed_ratio": rational_str(ratio) if ratio is not None else None,
                    "printed_ratio": rational_str(printed) if printed is not None else None,
                    "matches_printed": (ratio == printed) if ratio is not None and printed is not None else False,
                }
                return (ok, detail if ok else {"reason": "ratio not constant"})
            rep.run(f"bethe_ratio_n{n}_k{k}", "bethe_identity_twist_ratio",
                    {"n": n, "k": k, "order": N}, check, determined_order=N)
        for m in range(1, n):
            def check_tr(m=m, n=n):
                big = antisymmetrizer(m + 1, n)
                small = antisymmetrizer(m, n)
                tr = trace_partial(big, [m + 1])
                ratio, ok = _matrix_proportionality(tr, small)
                printed = Q(n - 1, m + 1)
                detail = {
                    "_detail": True,
                    "computed_factor": rational_str(ratio) if ratio is not None else None,
                    "printed_factor": rational_str(printed),
                    "matches_printed": ratio == printed,
                }
                return (ok, detail if ok else {"reason": "not proportional"})
            rep.run(f"partial_trace_factor_n{n}_m{m}", "projector_partial_trace_factor",
                    {"n": n, "m": m}, check_tr)
    return rep.records


def suite_capelli_bridge(cfg):
    rep = Reporter("capelli-bridge")
    N = cfg.order or 5
    kmax = cfg.max_k or 3
    rng = random.Random(cfg.seed + 1)
    for n in _ns(cfg):
        weights = default_weight_grid(n, 8)
        for k in range(1, kmax + 1):
            rep.run(f"ev_e_bridge_k{k}", "evaluation_e_bridge",
                    {"n": n, "order": N, "k": k, "weights": len(weights)},
                    lambda k=k, n=n, weights=weights:
                    all(ev_e_bridge(k, n, N, mu)[0] for mu in weights),
                    determined_order=N)
            rep.run(f"ev_h_bridge_k{k}", "evaluation_h_bridge",
                    {"n": n, "order": N, "k": k, "weights": len(weights)},
                    lambda k=k, n=n, weights=weights:
                    all(ev_h_bridge(k, n, N, mu)[0] for mu in weights),
                    determined_order=N)
        for m in (1, 2):
            rep.run(f"ev_hminus_bridge_m{m}", "evaluation_inverse_family",
                    {"n": n, "order": N, "m": m},
                    lambda m=m, n=n: check_series(*ev_hminus_bridge(m, n, N)[1]),
                    determined_order=N)
            rep.run(f"ev_p_bridge_m{m}", "evaluation_power_bridge",
                    {"n": n, "order": N, "m": m},
                    lambda m=m, n=n: ev_p_bridge(m, n, N)[0],
                    determined_order=N)
        rep.run("ev_algebra_map", "evaluation_multiplicative",
                {"n": n, "pairs": 5},
                lambda n=n, rng=rng: _check_ev_multiplicative(n, rng))
    return rep.records


def _random_yangian_element(ctx, rng):
    """A random combination of words of total level at most 3."""
    n = ctx.n
    out = ctx.zero()
    for _ in range(rng.randint(1, 3)):
        length = rng.randint(1, 2)
        word = []
        budget = 3
        for _ in range(length):
            r = rng.randint(1, min(2, budget))
            budget -= r
            word.append(encode_t(n, r, rng.randint(1, n), rng.randint(1, n)))
            if budget < 1:
                break
        coeff = Q(rng.randint(-3, 3))
        if coeff:
            out = out + ctx.normal_form([(coeff, tuple(word))])
    return out


def _check_ev_multiplicative(n, rng):
    ctx = yangian_context(n)
    for _ in range(5):
        x = _random_yangian_element(ctx, rng)
        y = _random_yangian_element(ctx, rng)
        if ev_hom(x * y) != ev_hom(x) * ev_hom(y):
            return False
    return True


def suite_perelomov_popov(cfg):
    rep = Reporter("perelomov-popov")
    kmax = cfg.max_k or 4
    for n in _ns(cfg):
        weights = default_weight_grid(n, 8)
        for k in range(1, kmax + 1):
            trEk = tr_E_power(k, n)
            rep.run(f"pp_vs_hw_k{k}", "gelfand_invariant_eigenvalue",
                    {"n": n, "k": k, "weights": len(weights)},
                    lambda trEk=trEk, k=k, weights=weights:
                    all(pp_eigen_trEk(k, mu) == hw_eigenvalue(trEk, mu)
                        for mu in weights))
            def check_rep(trEk=trEk, k=k, n=n):
                M = defining_rep_value(trEk)
                ok, scalar = is_scalar_matrix(M)
                if not ok:
                    return (False, {"reason": "not scalar in the defining representation"})
                mu = HighestWeight((1,) + (0,) * (n - 1))
                return (scalar == pp_eigen_trEk(k, mu) == hw_eigenvalue(trEk, mu),
                        {"_detail": True, "scalar": rational_str(scalar)})
            rep.run(f"defining_rep_scalar_k{k}", "gelfand_invariant_defining_rep",
                    {"n": n, "k": k}, check_rep)
        for m in range(1, 4):
            def check_central(m=m, n=n):
                p = capelli_p(m, n)
                mu = HighestWeight((1,) + (0,) * (n - 1))
                for e, z in sorted(p.coeffs.items()):
                    if isinstance(z, AlgebraElement):
                        M = defining_rep_value(z)
                        ok, scalar = is_scalar_matrix(M)
                        if not ok or scalar != hw_eigenvalue(z, mu):
                            return (False, {"u_exponent": e})
                return True
            rep.run(f"capelli_coeffs_central_m{m}", "capelli_polynomial_centrality",
                    {"n": n, "m": m}, check_central)
    # the classical sanity value: n=2, k=2 in the defining representation
    if cfg.n in (None, 2):
        rep.run("defining_rep_value_n2_k2", "gelfand_invariant_defining_rep",
                {"n": 2, "k": 2},
                lambda: is_scalar_matrix(defining_rep_value(tr_E_power(2, 2))) == (True, Q(2)))
    return rep.records


def suite_shifted_identities(cfg):
    rep = Reporter("shifted-identities")
    m_max = cfg.max_m or 4
    for n in _ns(cfg):
        weights = default_weight_grid(n, 8)
        for m in range(m_max + 1):
            rep.run(f"eh_star_m{m}", "shifted_eh_orthogonality",
                    {"n": n, "m": m},
                    lambda m=m, n=n: check_eh_star(m, n)[0])
        for k in range(1, m_max + 1):
            rep.run(f"e_star_composition_k{k}", "shifted_composition_e",
                    {"n": n, "k": k, "weights": len(weights)},
                    lambda k=k, weights=weights:
                    all(check_e_star_composition(k, mu)[0] for mu in weights))
            rep.run(f"h_star_composition_k{k}", "shifted_composition_h",
                    {"n": n, "k": k, "weights": len(weights)},
                    lambda k=k, weights=weights:
                    all(check_h_star_composition(k, mu)[0] for mu in weights))
    return rep.records


def suite_engine_selfcheck(cfg):
    rep = Reporter("engine-selfcheck")
    for n in _ns(cfg, default=(2, 3)):
        rep.run(f"yangian_confluence_n{n}", "rewrite_confluence", {"n": n},
                lambda n=n: _check_confluence_yangian(n))
        rep.run(f"gl_confluence_n{n}", "rewrite_confluence", {"n": n},
                lambda n=n: _check_confluence_gl(n))
        rep.run(f"jacobi_n{n}", "extracted_bracket_jacobi", {"n": n},
                lambda n=n: _check_jacobi(n))
        rep.run(f"termination_measure_n{n}", "rewrite_termination_measure", {"n": n},
                lambda n=n: _check_termination(n))
        rep.run(f"trace_lemma_n{n}", "cyclic_trace_lemma", {"n": n},
                lambda n=n: _check_trace_lemma(n))
    shapes = [(cfg.n, cfg.order)] if cfg.n and cfg.order else [(2, 6), (3, 5)]
    for n, N in shapes:
        rep.run(f"truncation_drops_n{n}_N{N}", "truncation_soundness",
                {"n": n, "order": N},
                lambda n=n, N=N: _check_truncation_instrumentation(n, N),
                determined_order=N)
    return rep.records


def _one_step_results(rs, word):
    """Normal forms reached from each possible first rewrite position."""
    results = []
    for p in range(len(word) - 1):
        if word[p] > word[p + 1]:
            out = {}
            head, tail = word[:p], word[p + 2:]
            for c, mid in rs.expansion(word[p], word[p + 1]):
                for w, q in rs.normal_word(head + mid + tail).items():
                    s = out.get(w, 0) + c * q
                    if s:
                        out[w] = s
                    elif w in out:
                        del out[w]
            results.append(out)
    return results


def _check_confluence_yangian(n):
    rs = yangian_relations(n, 4)
    gens = [(r, i, j) for r in (1, 2, 3) for i in range(1, n + 1)
            for j in range(1, n + 1)]
    ids = {g: encode_t(n, *g) for g in gens}
    levels = {ids[g]: g[0] for g in gens}
    words = []
    all_ids = sorted(ids.values())
    for a in all_ids:
        for b in all_ids:
            if levels[a] + levels[b] <= 4:
                words.append((a, b))
    for a in all_ids:
        for b in all_ids:
            for c in all_ids:
                if levels[a] + levels[b] + levels[c] <= 4:
                    words.append((a, b, c))
    for w in words:
        results = _one_step_results(rs, w)
        if len(results) > 1 and any(r != results[0] for r in results[1:]):
            return False
    return True


def _check_confluence_gl(n):
    rs = ugl_relations(n)
    ids = sorted(encode_e(n, i, j) for i in range(1, n + 1) for j in range(1, n + 1))
    for a in ids:
        for b in ids:
            for c in ids:
                results = _one_step_results(rs, (a, b, c))
                if len(results) > 1 and any(r != results[0] for r in results[1:]):
                    return False
    return True


def _check_jacobi(n):
    ctx = yangian_context(n)
    gens = [ctx.t(r, i, j) for r in (1, 2) for i in range(1, n + 1)
            for j in range(1, n + 1)]
    levels = [r for r in (1, 2) for _ in range(n * n)]
    idx = list(range(len(gens)))
    for a, b, c in combinations_with_replacement(idx, 3):
        if levels[a] + levels[b] + levels[c] > 4:
            continue
        x, y, z = gens[a], gens[b], gens[c]
        j = x.commutator(y.commutator(z)) + y.commutator(z.commutator(x)) \
            + z.commutator(x.commutator(y))
        if j:
            return False
    return True


def _check_termination(n):
    rs = yangian_relations(n, 4)
    for (a, b), exp in rs.table.items():
        pair_level = rs.level(a) + rs.level(b)
        for c, w in exp:
            if w == (b, a):
                if rs.word_level(w) != pair_level:
                    return False
            elif rs.word_level(w) >= pair_level:
                return False
    glrs = ugl_relations(n)
    for (a, b), exp in glrs.table.items():
        for c, w in exp:
            if w != (b, a) and len(w) >= 2:
                return False
    return True


def _check_trace_lemma(n):
    """Full trace of P_{k-1,k}...P_{1,2} (X1)_1...(Xk)_k equals the trace of
    the plain product X1 X2...Xk, for generic noncommutative matrices, k <= 4."""
    for k in range(2, 5):
        fc = free_context(k * n * n)
        ring = algebra_ring(fc)
        mats = []
        g = 0
        for _ in range(k):
            M = [[fc.gen(g + i * n + j) for j in range(n)] for i in range(n)]
            g += n * n
            mats.append(M)
        left = None
        for p in range(k - 1, 0, -1):
            P = perm_op(p, p + 1, k, n)
            left = P if left is None else tm_mul(left, P)
        acc = left
        for s, M in enumerate(mats, start=1):
            acc = tm_mul(acc, matrix_on_leg(M, s, k, ring))
        lhs = trace_full(acc)
        prod = mats[0]
        for M in mats[1:]:
            prod = _mat_mul(prod, M)
        rhs = fc.zero()
        for i in range(n):
            rhs = rhs + prod[i][i]
        if lhs != rhs:
            return False
    return True


def _check_truncation_instrumentation(n, N):
    """The u^{-m} coefficient of every family series has total level at most
    m, so truncating at order N needs no generator above level N.  Counts
    the monomials that break this and the smallest level among them."""
    def levels(series):
        for m, c in series.coeffs.items():
            if isinstance(c, AlgebraElement):
                for w in c.terms:
                    lv = c.ctx.rs.word_level(w)
                    if lv > m:
                        yield lv

    families = []
    for k in range(1, n + 1):
        families += [elem_e(k, n, N), bethe_b(k, BetheTwist.identity(n), n, N)]
    for k in range(1, 4):
        families += [homog_h(k, n, N), power_p(k, -1, n, N), power_p(k, +1, n, N),
                     h_minus(k, n, N)]
    _, lhs, rhs = newton_check(2, "e", n, N)
    for op in (lhs, rhs):
        families += op.coeffs.values()
    excess = [lv for s in families for lv in levels(s)]
    return (not excess,
            {"_detail": True, "drop_count": len(excess),
             "min_dropped_level": min(excess, default=None)})


SUITES = {
    "symmetrizers": (suite_symmetrizers, "three constructions of the projectors agree"),
    "intertwining": (suite_intertwining, "projectors reverse ordered leg products"),
    "eb-traces": (suite_eb_traces, "alternative trace presentations of e_k and h_k"),
    "newton": (suite_newton, "Newton identities in the shift-operator calculus"),
    "composition": (suite_composition, "composition sums over power sums"),
    "determinants": (suite_determinants, "determinant formulas between the families"),
    "inverse-op": (suite_inverse_op, "inverse of the alternating generating operator"),
    "schur": (suite_schur, "Schur series via both determinant routes"),
    "commutativity": (suite_commutativity, "commuting families, with and without twist"),
    "lemma-constant": (suite_lemma_constant, "computed ratio adjudications"),
    "capelli-bridge": (suite_capelli_bridge, "evaluation to U(gl_n) and shifted functions"),
    "perelomov-popov": (suite_perelomov_popov, "eigenvalues of Gelfand invariants"),
    "shifted-identities": (suite_shifted_identities, "shifted symmetric function identities"),
    "engine-selfcheck": (suite_engine_selfcheck, "confluence, Jacobi, truncation soundness"),
}


def run_suite(name, cfg):
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}")
    return SUITES[name][0](cfg)


def run_suites(names, cfg):
    records = []
    for name in names:
        records.extend(run_suite(name, cfg))
    return records
