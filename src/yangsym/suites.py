"""Verification suites with machine-readable reports.

Each suite runs a fixed battery of exact checks (tolerance zero throughout)
and returns a list of CheckRecords.  Records carry the parameters, the
status (pass / fail / skipped), the series order up to which the truncation
fully determines the identity (the check's "order" parameter), the wall
time, and on failure the first differing coefficient or, for a check that
locates none, a reason.  A failure in a matrix names its row and column;
the Gelfand-invariant checks add the failing value or u_exponent.
A check returns ok or (ok, info), info being the detail of a pass and the
failure of a fail.  The identities of `symfun` and `capelli` return their
two sides, and `compare` alone judges them, for every carrier.

Two suites are adjudications rather than assertions: `lemma-constant`
computes the proportionality constant between the elementary series and the
identity-twist Bethe generators (and the partial-trace contraction factor of
antisymmetrizers) from scratch, records the computed value next to the
candidate closed form, and passes on internal consistency of the ratio.
"""

import random
import time
from functools import reduce
from itertools import combinations_with_replacement
from math import factorial

from .rationals import Q, binomial, rational_str
from .series import ShiftedPolynomial, SparseCoeffs, UPolynomial, USeries
from .tau import TauOperator
from .pbw import (
    AlgebraElement,
    add_terms,
    free_context,
    gl_context,
    yangian_context,
    encode_t,
    max_level,
)
from .tensor import (
    TensorMatrix,
    antisymmetrizer,
    symmetrizer,
    fusion_step,
    matrix_on_leg,
    perm_op,
    r_matrix,
    t_leg,
    tm_mul,
    trace_full,
    trace_of_product,
    trace_partial,
)
from .symfun import (
    BetheTwist,
    bethe_b,
    cached_projector,
    composition_sum,
    det_formulas,
    elem_e,
    gen_E,
    gen_Hminus,
    h_minus,
    h_minus_from_inverse,
    homog_h,
    leg_chain,
    newton_check,
    power_p,
    release_leg_chains,
    schur_s,
    tau_form,
    unit_series,
)
from .capelli import (
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
    hw_eigenvalue,
    pp_eigen_trEk,
    tr_E_power,
)


# plain classes: `dataclasses` imports inspect, ast and tokenize (about 10 ms)

# The ranks the suites run when no n is given, the highest default order
# among them and the level the engine self-checks reach whatever the order.
_DEFAULT_NS = (1, 2, 3)
_DEFAULT_ORDER, _SELFCHECK_LEVEL = 6, 4


class SuiteConfig:
    """Suite sizes; None means each suite's default.  The Yangian levels the
    suites reach must fit in a PBW word (`pbw.max_level`)."""

    __slots__ = ("n", "order", "max_m", "max_k", "tau_order", "seed")

    def __init__(self, n=None, order=None, max_m=None, max_k=None, tau_order=None,
                 seed=20240811):
        self.n, self.order, self.max_m, self.max_k = n, order, max_m, max_k
        self.tau_order, self.seed = tau_order, seed
        for name in ("n", "order", "max_m", "max_k", "tau_order"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"SuiteConfig.{name} must be a positive integer, got {value}")
        level = max(order or _DEFAULT_ORDER, _SELFCHECK_LEVEL)
        for m in _ns(self):
            if level > max_level(m):
                raise ValueError(f"the suites at n={m} reach level {level} of Y(gl_{m}), "
                                 f"beyond a PBW word, which holds levels up to "
                                 f"{max_level(m)}: lower n or the order")


class CheckRecord:
    __slots__ = ("suite", "name", "anchor", "params", "status", "determined_order",
                 "wall_time", "failure", "detail")

    def __init__(self, suite, name, anchor, params, status, determined_order=None,
                 wall_time=0.0, failure=None, detail=None):
        self.suite, self.name, self.anchor, self.params = suite, name, anchor, params
        self.status, self.determined_order, self.wall_time = status, determined_order, wall_time
        self.failure, self.detail = failure, detail

    def jsonable(self):
        out = {name: getattr(self, name) for name in self.__slots__}
        out["wall_time"] = round(self.wall_time, 6)
        return out


class Reporter:
    def __init__(self, suite):
        self.suite = suite
        self.records = []

    def run(self, name, anchor, params, fn):
        """Run one check now: fn returns ok or (ok, info), where info is the
        detail of a pass and the failure of a fail.  The record's
        determined_order is the check's "order" parameter, if it has one."""
        t0 = time.perf_counter()
        try:
            res = fn()
            ok, info = res if isinstance(res, tuple) else (res, None)
        except Exception as exc:  # a crashing check is a failing check
            ok, info = False, {"error": f"{type(exc).__name__}: {exc}"}
        if not ok and info is None:  # a check that locates nothing still fails by name
            info = {"reason": "check returned false"}
        rec = CheckRecord(
            suite=self.suite, name=name, anchor=anchor, params=params,
            status="pass" if ok else "fail",
            determined_order=params.get("order"),
            wall_time=time.perf_counter() - t0,
            failure=None if ok else info, detail=info if ok else None,
        )
        self.records.append(rec)
        return rec

    def skip(self, name, anchor, params, reason):
        self.records.append(CheckRecord(
            suite=self.suite, name=name, anchor=anchor, params=params,
            status="skipped", detail={"reason": reason}))


# ---------------------------------------------------------------------------
# comparing the two sides of an identity

_KEY_NAMES = {TauOperator: "tau", USeries: "u_power", UPolynomial: "u_exponent",
              ShiftedPolynomial: "exponent"}


def compare(lhs, rhs):
    """(True, None) if lhs == rhs, else (False, failure).  The failure names
    the key of the first differing coefficient at each carrier level, the
    first differing monomial of that coefficient and both its values; for two
    tensor matrices it first names the row and column of the first differing
    entry."""
    if isinstance(lhs, TensorMatrix):
        if lhs.equal(rhs):
            return (True, None)
        if (lhs.n, lhs.k) != (rhs.n, rhs.k):
            return (False, {"shape": [[lhs.n, lhs.k], [rhs.n, rhs.k]]})
        for r in sorted(lhs.rows.keys() | rhs.rows.keys()):
            for c in sorted(lhs.rows.get(r, {}).keys() | rhs.rows.get(r, {}).keys()):
                ok, failure = compare(lhs.entry(r, c), rhs.entry(r, c))
                if not ok:
                    return (False, {"row": r, "column": c, **failure})
        return (True, None)
    d = lhs.first_difference(rhs) if isinstance(lhs, SparseCoeffs) else (
        None if lhs == rhs else ((), lhs, rhs))
    if d is None:
        return (True, None)
    keys, a, b = d
    failure = {}
    for k in keys:  # one level down, on whichever side holds the key
        failure[_KEY_NAMES[type(lhs)]] = k
        lhs, rhs = lhs.coeffs.get(k) or rhs.coeffs[k], rhs.coeffs.get(k) or lhs.coeffs[k]
    ta, tb = (x.terms if isinstance(x, AlgebraElement) else {b"": x} if x else {} for x in (a, b))
    w = min(w for w in ta.keys() | tb.keys() if ta.get(w, 0) != tb.get(w, 0))
    element = a if isinstance(a, AlgebraElement) else b
    failure["monomial"] = "*".join(element.gen_name(g) for g in w) or "1"
    return (False, dict(failure, lhs=str(ta.get(w, 0)), rhs=str(tb.get(w, 0))))


def _first_failure(key, cases):
    """The failure of the first (label, (lhs, rhs)) case whose sides differ,
    with its label added under key, else (True, None)."""
    for label, sides in cases:
        ok, failure = compare(*sides)
        if not ok:
            return (False, {key: label, **failure})
    return (True, None)


def _proportionality(target, base):
    """(ratio, target == ratio * base) for two series of algebra elements, the
    ratio read off the first term of the lowest coefficient of a nonzero base."""
    m = min(base.coeffs)
    w, q = next(iter(base.coeffs[m].terms.items()))
    ratio = Q(target.coeffs[m].terms.get(w, 0), q)
    return (ratio, base.scale(ratio) == target)


def _matrix_proportionality(target, base):
    """(constant, ok) with target == constant * base, entrywise rational."""
    for r, row in base.rows.items():
        for c, v in row.items():
            if v:
                ratio = Q(target.entry(r, c), v)
                return (ratio, target.equal(base.scale(ratio)))
    return (None, target.is_zero())


def _ns(cfg, default=_DEFAULT_NS):
    return (cfg.n,) if cfg.n else default


# ---------------------------------------------------------------------------
# suites

def suite_symmetrizers(cfg):
    rep = Reporter("symmetrizers")
    kmax = cfg.max_k or 4
    for n in _ns(cfg):
        prev = None
        for k in range(1, kmax + 1):
            A = {m: antisymmetrizer(k, n, m) for m in ("group_sum", "fusion", "b_product")}
            S = {m: symmetrizer(k, n, m) for m in ("group_sum", "fusion", "b_product")}
            for name, P in (("A", A), ("S", S)):
                rep.run(f"method_agreement_{name}", "projector_triple_agreement",
                        {"n": n, "k": k},
                        lambda: _first_failure("method", (
                            (m, (P["group_sum"], P[m])) for m in ("fusion", "b_product"))))
            rep.run("idempotent", "projector_idempotent", {"n": n, "k": k},
                    lambda: _first_failure("projector", (
                        (name, (tm_mul(P["group_sum"], P["group_sum"]), P["group_sum"]))
                        for name, P in (("A", A), ("S", S)))))
            rep.run("trace_dimensions", "projector_trace", {"n": n, "k": k},
                    lambda: _first_failure("projector", (
                        ("A", (trace_full(A["group_sum"]), binomial(n, k))),
                        ("S", (trace_full(S["group_sum"]), binomial(n + k - 1, k))))))
            if k >= 2:
                # the group-sum projectors of this k and of the k - 1 before it
                rep.run("fusion_recursion", "projector_fusion_step", {"n": n, "k": k},
                        lambda: _first_failure("projector", (
                            (name, (fusion_step(prev[name]["group_sum"], name), P["group_sum"]))
                            for name, P in (("A", A), ("S", S)))))
            prev = {"A": A, "S": S}
        # the explicit three-leg factorizations, both presentations
        rep.run("three_leg_factorizations", "projector_r_factorization", {"n": n},
                lambda: _first_failure("presentation", _a3_factorizations(n)))
        rep.run("top_degree_vanishing", "projector_top_degree", {"n": n},
                lambda: compare(antisymmetrizer(n + 1, n), TensorMatrix(n, n + 1)))
    return rep.records


def _a3_factorizations(n):
    """(presentation, (A_3, its product of R-matrices)) for both presentations.

    Every factor is integral, so the products run on ints and the scale is
    each entry's one division: R_23(1) R_13(2) R_12(1)/6 is written with
    2*R_13(2) = 2 - P_13 over 12, and R_12(1) R_23(1/2) R_12(1)/12 has
    integral factors as it stands."""
    A3 = antisymmetrizer(3, n)
    two_r13 = TensorMatrix.identity(n, 3).scale(2) - perm_op(1, 3, 3, n)
    yield "fusion", (A3, tm_mul(tm_mul(r_matrix(2, 3, 1, 3, n), two_r13),
                                r_matrix(1, 2, 1, 3, n)).scale(Q(1, 12)))
    yield "b_product", (A3, tm_mul(tm_mul(r_matrix(1, 2, 1, 3, n), r_matrix(2, 3, Q(1, 2), 3, n)),
                                   r_matrix(1, 2, 1, 3, n)).scale(Q(1, 12)))


def suite_intertwining(cfg):
    rep = Reporter("intertwining")
    N = cfg.order or 4
    kmax = cfg.max_k or 3
    for n in _ns(cfg):
        ctx = yangian_context(n)
        for k in range(1, kmax + 1):
            for name, proj, step in (("antisym", "A", -1), ("sym", "S", 1)):
                P = cached_projector(proj, k, n)
                rep.run(f"{name}_intertwine", "projector_intertwining",
                        {"n": n, "k": k, "order": N},
                        lambda: _intertwines(P, leg_chain(k, step, n, N),
                                             [t_leg(s, step * (s - 1), k, N, ctx)
                                              for s in range(1, k + 1)]))
    return rep.records


def _intertwines(P, chain, legs):
    """P T_1 ... T_k, the leg chain of `legs`, against T_k ... T_1 P, as
    whole matrices (`compare`)."""
    return compare(tm_mul(P, chain), reduce(tm_mul, [*legs[::-1], P]))


def suite_eb_traces(cfg):
    rep = Reporter("eb-traces")
    N = cfg.order or 4
    kmax = cfg.max_k or 3
    from .symfun import prop_eB_traces
    for n in _ns(cfg):
        for k in range(1, kmax + 1):
            # built inside the checks, which are charged for the family builds
            targets = {
                1: lambda: elem_e(k, n, N),
                2: lambda: homog_h(k, n, N),
                3: lambda: elem_e(k, n, N).shift(k - 1),
                4: lambda: homog_h(k, n, N).shift(-(k - 1)),
            }
            for variant in (1, 2, 3, 4):
                rep.run(f"trace_variant_{variant}", "alt_trace_presentations",
                        {"n": n, "k": k, "variant": variant, "order": N},
                        lambda: compare(prop_eB_traces(k, variant, n, N), targets[variant]()))
    # the last reader of the leg chains in suite order
    release_leg_chains()
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
                        lambda: compare(*newton_check(m, kind, n, N)))
    return rep.records


def suite_composition(cfg):
    rep = Reporter("composition")
    n = cfg.n or 2
    N = cfg.order or 5
    kmax = cfg.max_k or 4
    for k in range(1, kmax + 1):
        for kind in ("e", "h"):
            rep.run(f"composition_{kind}_k{k}", f"power_sum_composition_{kind}",
                    {"n": n, "order": N, "k": k},
                    lambda: compare(composition_sum(k, kind, n, N), tau_form(kind, k, n, N)))
    return rep.records


def suite_determinants(cfg):
    rep = Reporter("determinants")
    n = cfg.n or 2
    N = cfg.order or 5
    m_max = cfg.max_m or 3
    for m in range(1, m_max + 1):
        targets = {
            "e_from_p": lambda: elem_e(m, n, N),
            "h_from_p": lambda: homog_h(m, n, N),
            "p_from_e": lambda: power_p(m, -1, n, N),
            "p_from_h": lambda: power_p(m, +1, n, N),
        }
        for which, target in targets.items():
            rep.run(f"{which}_m{m}", f"determinant_{which}",
                    {"n": n, "order": N, "m": m},
                    lambda: compare(det_formulas(m, which, n, N), target()))
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
            lambda: compare(prod.coeff(0), unit_series(n, N)))
    for d in range(1, max(required_depth, L) + 1):
        if d > L:
            rep.skip(f"vanishing_tau_minus_{d}", "inverse_identity_vanishing",
                     {"n": n, "order": N, "tau": -d},
                     "tau truncation does not determine this degree")
            continue
        rep.run(f"vanishing_tau_minus_{d}", "inverse_identity_vanishing",
                {"n": n, "order": N, "tau": -d},
                lambda: compare(prod.coeff(-d), USeries.zero(N)))
    for k in range(1, 3):
        rep.run(f"e_from_h_minus_k{k}", "elementary_from_inverse_family",
                {"n": n, "order": N, "k": k},
                lambda: compare(schur_s((1,) * k, "h", n, N), elem_e(k, n, N)))
    for m in range(1, 5):
        rep.run(f"h_minus_det_vs_recursion_m{m}", "inverse_family_two_routes",
                {"n": n, "order": N, "m": m},
                lambda: compare(h_minus(m, n, N), h_minus_from_inverse(m, n, N)))
    return rep.records


def suite_schur(cfg):
    rep = Reporter("schur")
    n = cfg.n or 2
    N = cfg.order or 5
    lams = [(1,), (2,), (1, 1), (2, 1), (2, 2)]
    for lam in lams:
        rep.run(f"schur_duality_{'_'.join(map(str, lam))}", "schur_two_routes",
                {"n": n, "order": N, "lambda": list(lam)},
                lambda: compare(schur_s(lam, "h", n, N), schur_s(lam, "e", n, N)))
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
                    lambda: _check_top_e_central(n, N))
    return rep.records


def _check_top_e_central(n, N):
    """Coefficients of e_n(u) commute with every generator of level
    <= N - n + 1 (the levels the truncation fully determines)."""
    ctx = yangian_context(n)
    brackets = [(f"t[{r},{i},{j}]", ctx.bracket(ctx.t(r, i, j).terms))
                for r in range(1, N - n + 2) for i in range(1, n + 1) for j in range(1, n + 1)]
    for m, c in _nonscalar_coeffs(elem_e(n, n, N)):
        for g, bracket in brackets:
            comm = bracket(c.terms)
            if comm:
                return (False, {"u_power": m, "generator": g,
                                "monomial": _first_monomial(ctx, comm)})
    return True


def _nonscalar_coeffs(series):
    """(power, coefficient) for the coefficients that are non-scalar elements."""
    return [(m, c) for m, c in series.coeffs.items()
            if isinstance(c, AlgebraElement) and c.as_scalar() is None]


def _coeff_brackets(series):
    """The bracket [-, c] of each non-scalar coefficient c of a series, by power."""
    return {m: c.ctx.bracket(c.terms) for m, c in _nonscalar_coeffs(series)}


def _first_monomial(ctx, terms):
    return compare(AlgebraElement(ctx, terms), 0)[1]["monomial"]


def _pairwise_commute(rep, label, n, N, family, extra=None):
    # the brackets [-, c] of member b's coefficients serve every check (a, b)
    # with a <= b, and are dropped after (b, b), the last of them
    brackets = [_coeff_brackets(s) for _, s in family]
    for a in range(len(family)):
        for b in range(a, len(family)):
            name_a, sa = family[a]
            name_b, sb = family[b]
            params = {"n": n, "order": N, "lhs": name_a, "rhs": name_b}
            if extra:
                params.update(extra)
            rep.run(f"{label}_{name_a}_vs_{name_b}", f"commuting_{label}", params,
                    lambda: _series_coeffs_commute(sa, sb, brackets[b]))
            if b == a:
                brackets[a] = None


def _series_coeffs_commute(sa, sb, brackets):
    """Whether every coefficient of sa commutes with every coefficient of sb,
    given the brackets [-, c] of the non-scalar coefficients c of sb by power."""
    # on a self pair only m < m' is needed: [y, x] = -[x, y] and [x, x] = 0
    same = sa is sb
    for ma, ca in _nonscalar_coeffs(sa):
        for mb, bracket in brackets.items():
            if same and mb <= ma:
                continue
            comm = bracket(ca.terms)
            if comm:
                return (False, {"u_power_lhs": ma, "u_power_rhs": mb,
                                "monomial": _first_monomial(ca.ctx, comm)})
    return (True, None)


def suite_lemma_constant(cfg):
    rep = Reporter("lemma-constant")
    N = cfg.order or 4
    for n in _ns(cfg):
        Z = BetheTwist.identity(n)
        for k in range(1, n + 1):
            def check():
                e = elem_e(k, n, N)
                b = bethe_b(k, Z, n, N)
                ratio, ok = _proportionality(e, b)
                # the closed form recorded alongside: n! / (k! (n-1)^(n-k))
                printed = Q(factorial(n), factorial(k) * (n - 1) ** (n - k))
                return (ok, {"computed_ratio": rational_str(ratio),
                             "printed_ratio": rational_str(printed),
                             "matches_printed": ratio == printed})
            rep.run(f"bethe_ratio_n{n}_k{k}", "bethe_identity_twist_ratio",
                    {"n": n, "k": k, "order": N}, check)
        for m in range(1, n):
            def check_tr():
                big = antisymmetrizer(m + 1, n)
                small = antisymmetrizer(m, n)
                tr = trace_partial(big, [m + 1])
                ratio, ok = _matrix_proportionality(tr, small)
                printed = Q(n - 1, m + 1)
                return (ok, {"computed_factor": rational_str(ratio) if ratio is not None else None,
                             "printed_factor": rational_str(printed),
                             "matches_printed": ratio == printed})
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
            for kind in ("e", "h"):
                rep.run(f"ev_{kind}_bridge_k{k}", f"evaluation_{kind}_bridge",
                        {"n": n, "order": N, "k": k, "weights": len(weights)},
                        lambda: _first_failure("mu", (
                            (list(mu.mu), ev_bridge(kind, k, n, N, mu)) for mu in weights)))
        for m in (1, 2):
            rep.run(f"ev_hminus_bridge_m{m}", "evaluation_inverse_family",
                    {"n": n, "order": N, "m": m},
                    lambda: compare(*ev_hminus_bridge(m, n, N)))
            rep.run(f"ev_p_bridge_m{m}", "evaluation_power_bridge",
                    {"n": n, "order": N, "m": m},
                    lambda: _first_failure("pair", enumerate(ev_p_bridge(m, n, N))))
        rep.run("ev_algebra_map", "evaluation_multiplicative",
                {"n": n, "pairs": 5},
                lambda: _first_failure("pair", _ev_multiplicative_sides(n, rng)))
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
        coeff = rng.randint(-3, 3)
        if coeff:
            out = out + ctx.normal_form([(coeff, bytes(word))])
    return out


def _ev_multiplicative_sides(n, rng):
    """(pair, (ev(xy), ev(x) ev(y))) for five pairs of random elements."""
    ctx = yangian_context(n)
    for pair in range(5):
        x = _random_yangian_element(ctx, rng)
        y = _random_yangian_element(ctx, rng)
        yield pair, (ev_hom(x * y), ev_hom(x) * ev_hom(y))


def suite_perelomov_popov(cfg):
    rep = Reporter("perelomov-popov")
    kmax = cfg.max_k or 4
    for n in _ns(cfg):
        weights = default_weight_grid(n, 8)
        defining = HighestWeight((1,) + (0,) * (n - 1))  # of the defining representation
        for k in range(1, kmax + 1):
            trEk = tr_E_power(k, n)
            rep.run(f"pp_vs_hw_k{k}", "gelfand_invariant_eigenvalue",
                    {"n": n, "k": k, "weights": len(weights)},
                    lambda: _first_failure("mu", (
                        (list(mu.mu), (pp_eigen_trEk(k, mu), hw_eigenvalue(trEk, mu)))
                        for mu in weights)))

            def check_rep():
                scalar = pp_eigen_trEk(k, defining)
                ok, failure = _first_failure("value", (
                    ("defining_rep", _defining_rep_sides(trEk, scalar)),
                    ("hw_eigenvalue", (hw_eigenvalue(trEk, defining), scalar))))
                return (ok, failure or {"scalar": rational_str(scalar)})
            rep.run(f"defining_rep_scalar_k{k}", "gelfand_invariant_defining_rep",
                    {"n": n, "k": k}, check_rep)
        for m in range(1, 4):
            rep.run(f"capelli_coeffs_central_m{m}", "capelli_polynomial_centrality",
                    {"n": n, "m": m},
                    lambda: _first_failure("u_exponent", (
                        (e, _defining_rep_sides(z, hw_eigenvalue(z, defining)))
                        for e, z in sorted(capelli_p(m, n).coeffs.items())
                        if isinstance(z, AlgebraElement))))
    # the classical sanity value: n=2, k=2 in the defining representation
    if cfg.n in (None, 2):
        rep.run("defining_rep_value_n2_k2", "gelfand_invariant_defining_rep",
                {"n": 2, "k": 2},
                lambda: compare(*_defining_rep_sides(tr_E_power(2, 2), 2)))
    return rep.records


def _defining_rep_sides(z, scalar):
    """(the image of the U(gl_n) element z in the defining representation,
    scalar times the identity), as one-leg matrices."""
    M = matrix_on_leg(defining_rep_value(z), 1, 1, 0)
    return (M, TensorMatrix.identity(M.n, 1).scale(scalar))


def suite_shifted_identities(cfg):
    rep = Reporter("shifted-identities")
    m_max = cfg.max_m or 4
    for n in _ns(cfg):
        weights = default_weight_grid(n, 8)
        for m in range(m_max + 1):
            rep.run(f"eh_star_m{m}", "shifted_eh_orthogonality",
                    {"n": n, "m": m},
                    lambda: compare(*check_eh_star(m, n)))
        for k in range(1, m_max + 1):
            for kind in ("e", "h"):
                rep.run(f"{kind}_star_composition_k{k}", f"shifted_composition_{kind}",
                        {"n": n, "k": k, "weights": len(weights)},
                        lambda: _first_failure("mu", (
                            (list(mu.mu), check_star_composition(kind, k, mu)) for mu in weights)))
    return rep.records


def suite_engine_selfcheck(cfg):
    rep = Reporter("engine-selfcheck")
    for n in _ns(cfg, default=(2, 3)):
        rep.run(f"yangian_confluence_n{n}", "rewrite_confluence", {"n": n},
                lambda: _check_confluence(yangian_context(n)))
        rep.run(f"gl_confluence_n{n}", "rewrite_confluence", {"n": n},
                lambda: _check_confluence(gl_context(n)))
        rep.run(f"jacobi_n{n}", "extracted_bracket_jacobi", {"n": n},
                lambda: _check_jacobi(n))
        rep.run(f"termination_measure_n{n}", "rewrite_termination_measure", {"n": n},
                lambda: _check_termination(n))
        rep.run(f"trace_lemma_n{n}", "cyclic_trace_lemma", {"n": n},
                lambda: _first_failure("k", _trace_lemma_sides(n)))
    shapes = [(cfg.n, cfg.order)] if cfg.n and cfg.order else [(2, 6), (3, 5)]
    for n, N in shapes:
        rep.run(f"truncation_drops_n{n}_N{N}", "truncation_soundness",
                {"n": n, "order": N},
                lambda: _check_truncation_instrumentation(n, N))
    return rep.records


def _one_step_results(rs, word):
    """Normal forms reached from each possible first rewrite position."""
    results = []
    for p in range(len(word) - 1):
        if word[p] > word[p + 1]:
            out = {}
            head, tail = word[:p], word[p + 2:]
            for c, mid in rs.expansion(word[p], word[p + 1]):
                add_terms(out, rs.normal_word(head + mid + tail).items(), c)
            results.append(out)
    return results


def _generator_ids(rs, max_level):
    """Sorted ids of the generators of level at most max_level (of U(gl_n):
    all of them, each of level 1)."""
    return sorted(g for g in rs.gens if rs.level(g) <= max_level)


def _check_confluence(ctx):
    """Each word of three generators of total level at most 4 reaches one
    normal form from every first rewrite (two-letter words have only one).
    A failure names the word."""
    rs = ctx.rs
    ids = _generator_ids(rs, 2)
    level = {g: rs.level(g) for g in ids}
    for a in ids:
        for b in ids:
            for c in ids:
                if level[a] + level[b] + level[c] <= 4:
                    word = bytes((a, b, c))
                    results = _one_step_results(rs, word)
                    if any(r != results[0] for r in results[1:]):
                        return (False, {"word": _first_monomial(ctx, {word: 1})})
    return True


def _check_jacobi(n):
    """The Jacobi identity for the extracted brackets of each generator triple
    of total level at most 4.  A failure names the triple and a monomial of
    the Jacobi sum."""
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
            return (False, {"generators": [_first_monomial(ctx, g.terms) for g in (x, y, z)],
                            "monomial": _first_monomial(ctx, j.terms)})
    return True


def _check_termination(n):
    """The exchange entry of each generator pair a > b of level sum at most 5
    (every pair of U(gl_n)) keeps the swap x_b x_a at the level of the pair
    and puts every correction strictly below it.  A failure names the pair
    and the offending word."""
    for ctx in (yangian_context(n), gl_context(n)):
        rs = ctx.rs
        ids = _generator_ids(rs, 4)
        levels = {g: rs.level(g) for g in ids}
        for a in ids:
            for b in ids:
                level = levels[a] + levels[b]
                if a <= b or level > 5:
                    continue
                for _, w in rs.expansion(a, b):
                    wl = rs.word_level(w)
                    if not (wl == level if w == bytes((b, a)) else wl < level):
                        return (False, {"pair": [_first_monomial(ctx, {bytes((g,)): 1})
                                                 for g in (a, b)],
                                        "word": _first_monomial(ctx, {w: 1})})
    return True


def _trace_lemma_sides(n):
    """(k, sides) of: the full trace of P_{k-1,k}...P_{1,2} (X1)_1...(Xk)_k
    equals the trace of the plain product X1 X2...Xk, for generic
    noncommutative matrices, k = 2, 3, 4."""
    for k in range(2, 5):
        fc = free_context(k * n * n)
        zero = fc.zero()
        mats = [[[fc.gen((t * n + i) * n + j) for j in range(n)] for i in range(n)]
                for t in range(k)]
        left = None
        for p in range(k - 1, 0, -1):
            P = perm_op(p, p + 1, k, n)
            left = P if left is None else tm_mul(left, P)
        acc = left
        for s, M in enumerate(mats, start=1):
            acc = tm_mul(acc, matrix_on_leg(M, s, k, zero))
        yield k, (trace_full(acc), trace_of_product([matrix_on_leg(M, 1, 1, zero) for M in mats]))


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
    for op in newton_check(2, "e", n, N):
        families += op.coeffs.values()
    excess = [lv for s in families for lv in levels(s)]
    return (not excess,
            {"drop_count": len(excess), "min_dropped_level": min(excess, default=None)})


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
