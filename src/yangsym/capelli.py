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
"""

from itertools import combinations, combinations_with_replacement, islice

from .rationals import Q, QONE, QZERO, as_rational
from .series import (ShiftedPolynomial, UPolynomial, USeries, falling_factorial,
                     rising_factorial)
from .pbw import AlgebraElement, decode_e, decode_t, encode_e, gl_context
from .symfun import (
    compositions,
    elem_e,
    homog_h,
    power_p,
    h_minus,
)


class HighestWeight:
    """Weakly decreasing integer weight of length n."""

    __slots__ = ("mu",)

    def __init__(self, mu):
        mu = tuple(int(x) for x in mu)
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
    return _star_sum(combinations, k, n, lambda t: k - t)


def shifted_h_star(k, n):
    """Sum over weakly increasing i_1<=...<=i_k of
    (mu_{i_1}+u-k+1)(mu_{i_2}+u-k+2)...(mu_{i_k}+u)."""
    return _star_sum(combinations_with_replacement, k, n, lambda t: t - k)


def shifted_p_star(k, mu):
    """p*_k at a concrete weight: sum_i gamma_i (m_i+u)(m_i+u+1)...(m_i+u+k-1).

    The gammas are rational functions of the weight, so this one is evaluated
    pointwise and returns an exact polynomial in u.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not isinstance(mu, HighestWeight):
        mu = HighestWeight(mu)
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
    if not isinstance(mu, HighestWeight):
        mu = HighestWeight(mu)
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


def _mat_mul(A, B):
    """Product of matrices given as lists of rows; each entry product keeps
    the A factor on the left, so entries need not commute."""
    out = []
    for row in A:
        out_row = []
        for j in range(len(B[0])):
            acc = None
            for a, b_row in zip(row, B):
                p = a * b_row[j]
                acc = p if acc is None else acc + p
            out_row.append(acc)
        out.append(out_row)
    return out


def tr_E_power(k, n):
    """The Gelfand invariant tr E^k as an element of U(gl_n)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    gl = gl_context(n)
    if k == 0:
        return gl.scalar(n)
    E = gl_matrix(n)
    M = E
    for _ in range(k - 1):
        M = _mat_mul(M, E)
    acc = gl.zero()
    for i in range(n):
        acc = acc + M[i][i]
    return acc


def capelli_p(m, n):
    """tr((E+u)(E+u+1)...(E+u+m-1)) as a polynomial in u over U(gl_n)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    gl = gl_context(n)
    one = gl.one()

    def shifted_E(c):
        rows = []
        for i in range(1, n + 1):
            row = []
            for j in range(1, n + 1):
                coeffs = {0: gl.e(i, j) + (one.scale(c) if i == j else gl.zero())}
                if i == j:
                    coeffs[1] = one
                row.append(UPolynomial(coeffs))
            rows.append(row)
        return rows

    M = shifted_E(0)
    for c in range(1, m):
        M = _mat_mul(M, shifted_E(c))
    acc = UPolynomial()
    for i in range(n):
        acc = acc + M[i][i]
    return acc


def hw_eigenvalue(z, mu):
    """Highest-weight value of a normal-ordered U(gl_n) element.

    Monomials containing a raising generator annihilate the highest vector;
    monomials containing a lowering one cannot return to it; Cartan-only
    monomials contribute the product of their mu values.
    """
    if not isinstance(z, AlgebraElement) or z.ctx.kind != "gl":
        raise ValueError("hw_eigenvalue expects a U(gl_n) element")
    n = z.ctx.n
    if not isinstance(mu, HighestWeight):
        mu = HighestWeight(mu)
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
        M = None
        for gid in word:
            i, j = decode_e(n, gid)
            unit = [[QONE if (a == i - 1 and b == j - 1) else QZERO
                     for b in range(n)] for a in range(n)]
            M = unit if M is None else _mat_mul(M, unit)
        if M is None:
            for a in range(n):
                out[a][a] = out[a][a] + c
        else:
            for a in range(n):
                for b in range(n):
                    if M[a][b]:
                        out[a][b] = out[a][b] + c * M[a][b]
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


def check_e_star_composition(k, mu):
    """e*_k(u-k) == sum over compositions of
    (-1)^{k-m}/(a_1...a_m) p*_{l_1}(u-a_1)...p*_{l_m}(u-a_m), at a weight."""
    if not isinstance(mu, HighestWeight):
        mu = HighestWeight(mu)
    n = mu.n
    lhs = shifted_e_star(k, n).shift(-k).eval_mu(mu.mu)
    rhs = UPolynomial()
    for lam in compositions(k):
        m = len(lam)
        denom = 1
        prod = None
        for part, a in zip(lam, lam.prefix_sums):
            denom *= a
            f = shifted_p_star(part, mu).shift(-a)
            prod = f if prod is None else prod * f
        rhs = rhs + prod * Q((-1) ** (k - m), denom)
    return lhs == rhs, (lhs, rhs)


def check_h_star_composition(k, mu):
    """h*_k(u+k-1) == sum over compositions of
    1/(a_1...a_m) p*_{l_1}(u) p*_{l_2}(u+a_1)...p*_{l_m}(u+a_{m-1})."""
    if not isinstance(mu, HighestWeight):
        mu = HighestWeight(mu)
    n = mu.n
    lhs = shifted_h_star(k, n).shift(k - 1).eval_mu(mu.mu)
    rhs = UPolynomial()
    for lam in compositions(k):
        denom = 1
        prod = None
        prev_a = 0
        for part, a in zip(lam, lam.prefix_sums):
            denom *= a
            f = shifted_p_star(part, mu).shift(prev_a)
            prod = f if prod is None else prod * f
            prev_a = a
        rhs = rhs + prod * Q(1, denom)
    return lhs == rhs, (lhs, rhs)


def ev_e_bridge(k, n, N, mu):
    """ev(e_k(u)) * (u falling k) == e*_k(u-k+1), compared as rational series
    after taking highest-weight values at the given weight."""
    if not isinstance(mu, HighestWeight):
        mu = HighestWeight(mu)
    img = ev_hom(elem_e(k, n, N))
    hw_series = img.map_coeffs(lambda c: hw_eigenvalue(c, mu))
    ff = falling_factorial(UPolynomial.variable(), k).to_series(k, N)
    lhs = hw_series * ff
    rhs = shifted_e_star(k, n).shift(1 - k).eval_mu(mu.mu).to_series(k, N)
    return lhs == rhs, (lhs, rhs)


def ev_h_bridge(k, n, N, mu):
    """ev(h_k(u)) * (u rising k) == h*_k(u+k-1), as rational series at a weight."""
    if not isinstance(mu, HighestWeight):
        mu = HighestWeight(mu)
    img = ev_hom(homog_h(k, n, N))
    hw_series = img.map_coeffs(lambda c: hw_eigenvalue(c, mu))
    rf = rising_factorial(UPolynomial.variable(), k).to_series(k, N)
    lhs = hw_series * rf
    rhs = shifted_h_star(k, n).shift(k - 1).eval_mu(mu.mu).to_series(k, N)
    return lhs == rhs, (lhs, rhs)


def ev_p_bridge(m, n, N):
    """ev(p^+_m(u)) * (u rising m) == tr((E+u)...(E+u+m-1)), exactly in U(gl_n),
    and ev(p^-_m(u+m-1)) == ev(p^+_m(u))."""
    plus = ev_hom(power_p(m, +1, n, N))
    minus = ev_hom(power_p(m, -1, n, N).shift(m - 1))
    rf = rising_factorial(UPolynomial.variable(), m).to_series(m, N)
    lhs = plus * rf
    rhs = capelli_p(m, n).to_series(m, N)
    return (lhs == rhs) and (plus == minus), (lhs, rhs, plus, minus)


def ev_hminus_bridge(m, n, N):
    """ev(h^-_m(u)) == ev(h_m(u)), exactly in U(gl_n)."""
    lhs = ev_hom(h_minus(m, n, N))
    rhs = ev_hom(homog_h(m, n, N))
    return lhs == rhs, (lhs, rhs)
