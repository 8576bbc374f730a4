"""Evaluation to U(gl_n), Capelli-type central polynomials and shifted
symmetric functions.

The evaluation homomorphism sends the generating matrix to 1 + E/u, i.e.
level-1 generators to gl generators and all higher levels to zero.  Central
elements are probed two independent ways: by reading the highest-weight
eigenvalue off the Cartan-only monomials (the PBW order puts raising
generators rightmost precisely to enable this) and by the defining
representation e_ij -> E_ij.

The shifted e*_k and h*_k are `series.ShiftedPolynomial` values and p*_k
at a weight is a `UPolynomial`; like every carrier they take u -> u+a by
`shift(a)` and compare with a bare scalar as that scalar times the unit.

The checks stated for both e and h take the kind "e" or "h":
`check_star_composition` reads the weights of `symfun.composition_weights`,
and `ev_bridge` compares ev(e_k) or ev(h_k) with e*_k or h*_k.  A weight is
a `HighestWeight` or anything its constructor accepts.

e*_k, h*_k, p*_k at a weight and the images ev(e_k), ev(h_k) are built once
per run, as entries of the family cache of `symfun`.
"""

from itertools import combinations, combinations_with_replacement, islice

from .rationals import Q, QONE, QZERO, RATIONAL_TYPES, as_rational, demote
from .series import ShiftedPolynomial, UPolynomial, USeries, factorial_power
from .pbw import AlgebraElement, decode_e, decode_t, encode_e, gl_context
from .tensor import trace_of_product
from .symfun import cached, composition_weights, elem_e, h_minus, homog_h, kind_step, power_p


class HighestWeight:
    """Weakly decreasing integer weight of length n >= 1."""

    __slots__ = ("mu",)

    def __init__(self, mu):
        given = tuple(mu)
        mu = tuple(demote(x) if isinstance(x, RATIONAL_TYPES) else x for x in given)
        if not mu or any(type(x) is not int for x in mu):
            raise ValueError(f"weight needs n >= 1 integer entries, got {given!r}")
        if any(mu[i] < mu[i + 1] for i in range(len(mu) - 1)):
            raise ValueError("weight must be weakly decreasing")
        self.mu = mu

    @property
    def n(self):
        return len(self.mu)

    def m_values(self):
        """m_i = mu_i + n - i; strictly decreasing, so all gammas are finite."""
        n = self.n
        return [Q(self.mu[i] + n - (i + 1)) for i in range(n)]

    def gammas(self):
        ms = self.m_values()
        out = []
        for i, mi in enumerate(ms):
            g = QONE
            for j, mj in enumerate(ms):
                if j != i:
                    g = g * (QONE - QONE / (mi - mj))
            out.append(g)
        return out

    def __iter__(self):
        return iter(self.mu)

    def __eq__(self, other):
        return isinstance(other, HighestWeight) and self.mu == other.mu

    def __hash__(self):
        return hash(self.mu)

    def __repr__(self):
        return f"HighestWeight{self.mu}"


def _weight(mu):
    return mu if isinstance(mu, HighestWeight) else HighestWeight(mu)


def default_weight_grid(n, count=8):
    """A deterministic grid of weakly decreasing integer weights."""
    grid = combinations_with_replacement(range(4, -4, -1), n)
    return [HighestWeight(tup) for tup in islice(grid, count)]


def _star_sum(subsets, k, n, offset):
    """Sum over subsets(1..n, k) of the products over t = 1..k of
    (mu_{i_t} + u + offset(t)); the empty product (k = 0) is 1."""
    if k < 0:
        raise ValueError("k must be >= 0")
    acc = ShiftedPolynomial(n)
    for subset in subsets(range(1, n + 1), k):
        prod = ShiftedPolynomial.const(n, 1)
        for t, idx in enumerate(subset, start=1):
            prod = prod * ShiftedPolynomial.linear(n, idx, offset(t))
        acc = acc + prod
    return acc


def shifted_e_star(k, n):
    """Sum over strict k-subsets i_1<...<i_k of
    (mu_{i_1}+u+k-1)(mu_{i_2}+u+k-2)...(mu_{i_k}+u)."""
    return cached(("e*", k, n), lambda: _star_sum(combinations, k, n, lambda t: k - t))


def shifted_h_star(k, n):
    """Sum over weakly increasing i_1<=...<=i_k of
    (mu_{i_1}+u-k+1)(mu_{i_2}+u-k+2)...(mu_{i_k}+u)."""
    return cached(("h*", k, n),
                  lambda: _star_sum(combinations_with_replacement, k, n, lambda t: t - k))


def shifted_p_star(k, mu):
    """p*_k at a concrete weight: sum_i gamma_i (m_i+u)(m_i+u+1)...(m_i+u+k-1).

    The gammas are rational functions of the weight, so this one is evaluated
    pointwise and returns an exact polynomial in u.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    mu = _weight(mu)
    return cached(("p*", k, mu.mu), lambda: _p_star(k, mu))


def _p_star(k, mu):
    u = UPolynomial.variable()
    acc = UPolynomial()
    for mi, gi in zip(mu.m_values(), mu.gammas()):
        prod = UPolynomial.const(gi)
        for j in range(k):
            prod = prod * (u + (mi + j))
        acc = acc + prod
    return acc


def pp_eigen_trEk(k, mu):
    """Closed-form eigenvalue sum_i gamma_i m_i^k of the k-th Gelfand invariant."""
    if k < 0:
        raise ValueError("k must be >= 0")
    mu = _weight(mu)
    acc = QZERO
    for mi, gi in zip(mu.m_values(), mu.gammas()):
        acc = acc + gi * mi ** k
    return acc


# ---------------------------------------------------------------------------
# evaluation homomorphism and U(gl_n) machinery

def ev_hom(x):
    """Evaluation: t[1,i,j] -> e[i,j], t[r,i,j] -> 0 for r >= 2.

    Accepts an AlgebraElement of the yangian instance or a USeries of them;
    results are normal-ordered in U(gl_n).
    """
    if isinstance(x, USeries):
        return x.map_coeffs(ev_hom)
    if not isinstance(x, AlgebraElement) or x.ctx.kind != "yangian":
        raise ValueError("ev_hom expects a yangian element or series")
    n = x.ctx.n
    gl = gl_context(n)
    raw = []
    for word, c in x.terms.items():
        image = []
        dead = False
        for gid in word:
            r, i, j = decode_t(n, gid)
            if r >= 2:
                dead = True
                break
            image.append(encode_e(n, i, j))
        if dead:
            continue
        raw.append((c, tuple(image)))
    return gl.normal_form(raw)


def gl_matrix(n):
    """The n x n matrix of generators as a list of rows of AlgebraElements."""
    gl = gl_context(n)
    return [[gl.e(i, j) for j in range(1, n + 1)] for i in range(1, n + 1)]


def tr_E_power(k, n):
    """The Gelfand invariant tr E^k as an element of U(gl_n)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    gl = gl_context(n)
    if k == 0:
        return gl.scalar(n)
    return trace_of_product([gl_matrix(n)] * k)


def capelli_p(m, n):
    """tr((E+u)(E+u+1)...(E+u+m-1)) as a polynomial in u over U(gl_n)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    E = gl_matrix(n)
    one = gl_context(n).one()

    def shifted_E(c):
        """E + u + c with entries linear in u."""
        return [[UPolynomial({0: e + c, 1: one} if i == j else {0: e})
                 for j, e in enumerate(row)] for i, row in enumerate(E)]

    return trace_of_product([shifted_E(c) for c in range(m)])


def hw_eigenvalue(z, mu):
    """Highest-weight value of a normal-ordered U(gl_n) element.

    Monomials containing a raising generator annihilate the highest vector;
    monomials containing a lowering one cannot return to it; Cartan-only
    monomials contribute the product of their mu values.
    """
    if not isinstance(z, AlgebraElement) or z.ctx.kind != "gl":
        raise ValueError("hw_eigenvalue expects a U(gl_n) element")
    n = z.ctx.n
    mu = _weight(mu)
    if mu.n != n:
        raise ValueError("weight length mismatch")
    vals = [as_rational(x) for x in mu.mu]
    nn = n * n
    acc = QZERO
    for word, c in z.terms.items():
        v = c
        ok = True
        for gid in word:
            block = gid // nn
            if block != 1:
                ok = False
                break
            i = (gid % nn) // n
            v = v * vals[i]
        if ok:
            acc = acc + v
    return acc


def defining_rep_value(z):
    """Image of a U(gl_n) element under e_ij -> E_ij, as a rational n x n matrix."""
    if not isinstance(z, AlgebraElement) or z.ctx.kind != "gl":
        raise ValueError("defining_rep_value expects a U(gl_n) element")
    n = z.ctx.n
    out = [[QZERO] * n for _ in range(n)]
    for word, c in z.terms.items():
        if not word:
            for a in range(n):
                out[a][a] = out[a][a] + c
            continue
        # E_{i1 j1} ... E_{ik jk} is E_{i1 jk} if each j_t = i_{t+1}, else 0
        i, j = decode_e(n, word[0])
        for gid in word[1:]:
            i_next, j_next = decode_e(n, gid)
            if i_next != j:
                break
            j = j_next
        else:
            out[i - 1][j - 1] = out[i - 1][j - 1] + c
    return out


def is_scalar_matrix(M):
    """(True, scalar) if M = scalar * Id, else (False, None)."""
    n = len(M)
    s = M[0][0]
    for i in range(n):
        for j in range(n):
            if i == j:
                if M[i][j] != s:
                    return (False, None)
            elif M[i][j]:
                return (False, None)
    return (True, s)


# ---------------------------------------------------------------------------
# identity verification

def check_eh_star(m, n):
    """sum_k (-1)^k e*_k(u-k+1) h*_{m-k}(u-k) == delta_{m,0}, fully symbolic."""
    if m < 0:
        raise ValueError("m must be >= 0")
    acc = ShiftedPolynomial(n)
    for k in range(m + 1):
        term = shifted_e_star(k, n).shift(-k + 1) * \
            shifted_h_star(m - k, n).shift(-k)
        if k % 2:
            term = -term
        acc = acc + term
    target = 1 if m == 0 else 0
    return acc == target, acc - target


def check_star_composition(kind, k, mu):
    """The shifted function of the kind against its power-sum expansion at a
    weight, over the compositions (l_1, ..., l_m) of k with prefix sums
    a_1 < ... < a_m and the weights of `composition_weights`:
    e*_k(u-k) == sum (-1)^{k-m}/(a_1...a_m) p*_{l_1}(u-a_1)...p*_{l_m}(u-a_m),
    h*_k(u+k-1) == sum 1/(a_1...a_m) p*_{l_1}(u) p*_{l_2}(u+a_1)...p*_{l_m}(u+a_{m-1})."""
    step = kind_step(kind)
    mu = _weight(mu)
    star = shifted_e_star if step < 0 else shifted_h_star
    lhs = star(k, mu.n).shift(-k if step < 0 else k - 1).eval_mu(mu.mu)
    shifted = {}  # (part, shift) -> p*_part(u + shift), built once per check
    rhs = UPolynomial()
    for lam, weight in composition_weights(k, kind):
        prod = None
        prev_a = 0
        for part, a in zip(lam, lam.prefix_sums):
            key = (part, -a if step < 0 else prev_a)
            f = shifted.get(key)
            if f is None:
                f = shifted[key] = shifted_p_star(part, mu).shift(key[1])
            prod = f if prod is None else prod * f
            prev_a = a
        rhs = rhs + prod * weight
    return lhs == rhs, (lhs, rhs)


def ev_bridge(kind, k, n, N, mu):
    """ev(e_k(u)) * (u falling k) == e*_k(u-k+1), or ev(h_k(u)) * (u rising k)
    == h*_k(u+k-1), compared as rational series after taking highest-weight
    values at the given weight."""
    step = kind_step(kind)
    mu = _weight(mu)
    star = shifted_e_star if step < 0 else shifted_h_star
    hw_series = _ev_family(kind, k, n, N).map_coeffs(lambda c: hw_eigenvalue(c, mu))
    lhs = hw_series * factorial_power(UPolynomial.variable(), k, step).to_series(k, N)
    rhs = star(k, n).shift(step * (k - 1)).eval_mu(mu.mu).to_series(k, N)
    return lhs == rhs, (lhs, rhs)


def _ev_family(kind, k, n, N):
    """ev(e_k(u)) or ev(h_k(u)), built once per run in the family cache."""
    family = elem_e if kind_step(kind) < 0 else homog_h
    return cached(("ev", kind, k, n, N), lambda: ev_hom(family(k, n, N)))


def ev_p_bridge(m, n, N):
    """ev(p^+_m(u)) * (u rising m) == tr((E+u)...(E+u+m-1)), exactly in U(gl_n),
    and ev(p^-_m(u+m-1)) == ev(p^+_m(u))."""
    plus = ev_hom(power_p(m, +1, n, N))
    minus = ev_hom(power_p(m, -1, n, N).shift(m - 1))
    rf = factorial_power(UPolynomial.variable(), m, 1).to_series(m, N)
    lhs = plus * rf
    rhs = capelli_p(m, n).to_series(m, N)
    return (lhs == rhs) and (plus == minus), (lhs, rhs, plus, minus)


def ev_hminus_bridge(m, n, N):
    """ev(h^-_m(u)) == ev(h_m(u)), exactly in U(gl_n)."""
    lhs = ev_hom(h_minus(m, n, N))
    rhs = _ev_family("h", m, n, N)
    return lhs == rhs, (lhs, rhs)
