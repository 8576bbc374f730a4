"""Evaluation to U(gl_n), Capelli-type central polynomials and shifted
symmetric functions.

The evaluation homomorphism sends the generating matrix to 1 + E/u, i.e.
level-1 generators to gl generators and all higher levels to zero.  Central
elements are probed two independent ways: by reading the highest-weight
eigenvalue off the Cartan-only monomials (the PBW order puts raising
generators rightmost precisely to enable this) and by the defining
representation e_ij -> E_ij.
"""

from itertools import combinations, combinations_with_replacement

from .rationals import Q, QONE, QZERO, as_rational, binomial
from .series import USeries, UPolynomial, falling_factorial, rising_factorial
from .pbw import AlgebraElement, decode_e, decode_t, encode_e, gl_context
from .symfun import (
    compositions,
    elem_e,
    homog_h,
    power_p,
    h_minus,
    default_context,
)

_DEFAULT_GL = {}


def default_gl_context(n):
    ctx = _DEFAULT_GL.get(n)
    if ctx is None:
        ctx = _DEFAULT_GL[n] = gl_context(n)
    return ctx


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
    out = []
    for tup in combinations_with_replacement(range(4, -4, -1), n):
        out.append(HighestWeight(tup))
        if len(out) >= count:
            break
    return out


# ---------------------------------------------------------------------------
# exact polynomials in mu_1..mu_n and u

class ShiftedPolynomial:
    """Polynomial in the commuting variables mu_1..mu_n and u over Q.

    Exponent keys are (a_1, ..., a_n, b) with b the power of u.
    """

    __slots__ = ("n", "coeffs")

    def __init__(self, n, coeffs=None):
        self.n = n
        cc = {}
        if coeffs:
            for e, c in coeffs.items():
                c = as_rational(c)
                if c:
                    cc[tuple(e)] = c
        self.coeffs = cc

    @classmethod
    def const(cls, n, q):
        e = (0,) * (n + 1)
        return cls(n, {e: q})

    @classmethod
    def linear(cls, n, mu_index=None, u_coeff=0, const=0):
        """c + u_coeff*u + (mu_{mu_index} if given)."""
        out = {}
        if mu_index is not None:
            e = [0] * (n + 1)
            e[mu_index - 1] = 1
            out[tuple(e)] = QONE
        if u_coeff:
            e = [0] * (n + 1)
            e[n] = 1
            out[tuple(e)] = as_rational(u_coeff)
        if const:
            out[(0,) * (n + 1)] = as_rational(const)
        return cls(n, out)

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __add__(self, other):
        if not isinstance(other, ShiftedPolynomial):
            other = ShiftedPolynomial.const(self.n, other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = out.get(e, QZERO) + c
            if s:
                out[e] = s
            elif e in out:
                del out[e]
        return ShiftedPolynomial(self.n, out)

    __radd__ = __add__

    def __neg__(self):
        return ShiftedPolynomial(self.n, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        if not isinstance(other, ShiftedPolynomial):
            other = ShiftedPolynomial.const(self.n, other)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, ShiftedPolynomial):
            q = as_rational(other)
            if not q:
                return ShiftedPolynomial(self.n)
            return ShiftedPolynomial(self.n, {e: c * q for e, c in self.coeffs.items()})
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, QZERO) + c1 * c2
                if s:
                    out[e] = s
                elif e in out:
                    del out[e]
        return ShiftedPolynomial(self.n, out)

    __rmul__ = __mul__

    def shift_u(self, a):
        """Substitute u -> u + a."""
        a = as_rational(a)
        if not a:
            return self
        n = self.n
        out = ShiftedPolynomial(n)
        for e, c in self.coeffs.items():
            b = e[n]
            p = QONE
            for j in range(b, -1, -1):
                q = binomial(b, j) * p * c
                e2 = e[:n] + (j,)
                s = out.coeffs.get(e2, QZERO) + q
                if s:
                    out.coeffs[e2] = s
                elif e2 in out.coeffs:
                    del out.coeffs[e2]
                p = p * a
        return out

    def eval_mu(self, mu):
        """Substitute an integer weight for mu, leaving a polynomial in u."""
        vals = [as_rational(x) for x in mu]
        if len(vals) != self.n:
            raise ValueError("weight length mismatch")
        out = UPolynomial()
        for e, c in self.coeffs.items():
            q = c
            for i, a in enumerate(e[:self.n]):
                for _ in range(a):
                    q = q * vals[i]
            s = out.coeffs.get(e[self.n], QZERO) + q
            if s:
                out.coeffs[e[self.n]] = s
            elif e[self.n] in out.coeffs:
                del out.coeffs[e[self.n]]
        return out

    def __eq__(self, other):
        if not isinstance(other, ShiftedPolynomial):
            if other == 0:
                return not self.coeffs
            other = ShiftedPolynomial.const(self.n, other)
        return self.n == other.n and self.coeffs == other.coeffs

    def __repr__(self):
        if not self.coeffs:
            return "ShiftedPolynomial(0)"
        names = [f"mu{i+1}" for i in range(self.n)] + ["u"]
        parts = []
        for e in sorted(self.coeffs):
            mono = "*".join(f"{names[i]}^{a}" for i, a in enumerate(e) if a) or "1"
            parts.append(f"({self.coeffs[e]})*{mono}")
        return " + ".join(parts)


def shifted_e_star(k, n):
    """Sum over strict k-subsets i_1<...<i_k of
    (mu_{i_1}+u+k-1)(mu_{i_2}+u+k-2)...(mu_{i_k}+u)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return ShiftedPolynomial.const(n, QONE)
    acc = ShiftedPolynomial(n)
    for subset in combinations(range(1, n + 1), k):
        prod = ShiftedPolynomial.const(n, QONE)
        for t, idx in enumerate(subset, start=1):
            prod = prod * ShiftedPolynomial.linear(n, mu_index=idx, u_coeff=1,
                                                   const=k - t)
        acc = acc + prod
    return acc


def shifted_h_star(k, n):
    """Sum over weakly increasing i_1<=...<=i_k of
    (mu_{i_1}+u-k+1)(mu_{i_2}+u-k+2)...(mu_{i_k}+u)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return ShiftedPolynomial.const(n, QONE)
    acc = ShiftedPolynomial(n)
    for subset in combinations_with_replacement(range(1, n + 1), k):
        prod = ShiftedPolynomial.const(n, QONE)
        for t, idx in enumerate(subset, start=1):
            prod = prod * ShiftedPolynomial.linear(n, mu_index=idx, u_coeff=1,
                                                   const=-k + t)
        acc = acc + prod
    return acc


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

def ev_hom(x, glctx=None):
    """Evaluation: t[1,i,j] -> e[i,j], t[r,i,j] -> 0 for r >= 2.

    Accepts an AlgebraElement of the yangian instance or a USeries of them;
    results are normal-ordered in U(gl_n).
    """
    if isinstance(x, USeries):
        gl = glctx
        for c in x.coeffs.values():
            gl = gl or default_gl_context(c.ctx.n)
            break
        if gl is None:
            return USeries.zero(x.order)
        return x.map_coeffs(lambda c: ev_hom(c, gl))
    if not isinstance(x, AlgebraElement) or x.ctx.kind != "yangian":
        raise ValueError("ev_hom expects a yangian element or series")
    n = x.ctx.n
    gl = glctx or default_gl_context(n)
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


def gl_matrix(n, glctx=None):
    """The n x n matrix of generators as a list of rows of AlgebraElements."""
    gl = glctx or default_gl_context(n)
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


def tr_E_power(k, n, glctx=None):
    """The Gelfand invariant tr E^k as an element of U(gl_n)."""
    gl = glctx or default_gl_context(n)
    if k == 0:
        return gl.scalar(n)
    E = gl_matrix(n, gl)
    M = E
    for _ in range(k - 1):
        M = _mat_mul(M, E)
    acc = gl.zero()
    for i in range(n):
        acc = acc + M[i][i]
    return acc


def capelli_p(m, n, glctx=None):
    """tr((E+u)(E+u+1)...(E+u+m-1)) as a polynomial in u over U(gl_n)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    gl = glctx or default_gl_context(n)
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


def defining_rep_value(z, n=None):
    """Image of a U(gl_n) element under e_ij -> E_ij, as a rational matrix."""
    if not isinstance(z, AlgebraElement) or z.ctx.kind != "gl":
        raise ValueError("defining_rep_value expects a U(gl_n) element")
    n = n or z.ctx.n
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
    acc = ShiftedPolynomial(n)
    for k in range(m + 1):
        term = shifted_e_star(k, n).shift_u(-k + 1) * \
            shifted_h_star(m - k, n).shift_u(-k)
        if k % 2:
            term = -term
        acc = acc + term
    target = ShiftedPolynomial.const(n, QONE) if m == 0 else ShiftedPolynomial(n)
    return acc == target, acc - target


def check_e_star_composition(k, mu):
    """e*_k(u-k) == sum over compositions of
    (-1)^{k-m}/(a_1...a_m) p*_{l_1}(u-a_1)...p*_{l_m}(u-a_m), at a weight."""
    if not isinstance(mu, HighestWeight):
        mu = HighestWeight(mu)
    n = mu.n
    lhs = shifted_e_star(k, n).shift_u(-k).eval_mu(mu.mu)
    rhs = UPolynomial()
    for lam in compositions(k):
        m = len(lam)
        denom = 1
        prod = None
        for part, a in zip(lam, lam.prefix_sums):
            denom *= a
            f = shifted_p_star(part, mu).shift_arg(-a)
            prod = f if prod is None else prod * f
        rhs = rhs + prod * Q((-1) ** (k - m), denom)
    return lhs == rhs, (lhs, rhs)


def check_h_star_composition(k, mu):
    """h*_k(u+k-1) == sum over compositions of
    1/(a_1...a_m) p*_{l_1}(u) p*_{l_2}(u+a_1)...p*_{l_m}(u+a_{m-1})."""
    if not isinstance(mu, HighestWeight):
        mu = HighestWeight(mu)
    n = mu.n
    lhs = shifted_h_star(k, n).shift_u(k - 1).eval_mu(mu.mu)
    rhs = UPolynomial()
    for lam in compositions(k):
        denom = 1
        prod = None
        prev_a = 0
        for part, a in zip(lam, lam.prefix_sums):
            denom *= a
            f = shifted_p_star(part, mu).shift_arg(prev_a)
            prod = f if prod is None else prod * f
            prev_a = a
        rhs = rhs + prod * Q(1, denom)
    return lhs == rhs, (lhs, rhs)


def ev_e_bridge(k, n, N, mu, ctx=None, glctx=None):
    """ev(e_k(u)) * (u falling k) == e*_k(u-k+1), compared as rational series
    after taking highest-weight values at the given weight."""
    ctx = ctx or default_context(n, N)
    gl = glctx or default_gl_context(n)
    if not isinstance(mu, HighestWeight):
        mu = HighestWeight(mu)
    img = ev_hom(elem_e(k, n, N, ctx), gl)
    hw_series = img.map_coeffs(lambda c: hw_eigenvalue(c, mu))
    ff = falling_factorial(UPolynomial.variable(), k).to_series(k, N)
    lhs = hw_series * ff
    rhs = shifted_e_star(k, n).shift_u(1 - k).eval_mu(mu.mu).to_series(k, N)
    return lhs == rhs, (lhs, rhs)


def ev_h_bridge(k, n, N, mu, ctx=None, glctx=None):
    """ev(h_k(u)) * (u rising k) == h*_k(u+k-1), as rational series at a weight."""
    ctx = ctx or default_context(n, N)
    gl = glctx or default_gl_context(n)
    if not isinstance(mu, HighestWeight):
        mu = HighestWeight(mu)
    img = ev_hom(homog_h(k, n, N, ctx), gl)
    hw_series = img.map_coeffs(lambda c: hw_eigenvalue(c, mu))
    rf = rising_factorial(UPolynomial.variable(), k).to_series(k, N)
    lhs = hw_series * rf
    rhs = shifted_h_star(k, n).shift_u(k - 1).eval_mu(mu.mu).to_series(k, N)
    return lhs == rhs, (lhs, rhs)


def ev_p_bridge(m, n, N, ctx=None, glctx=None):
    """ev(p^+_m(u)) * (u rising m) == tr((E+u)...(E+u+m-1)), exactly in U(gl_n),
    and ev(p^-_m(u+m-1)) == ev(p^+_m(u))."""
    ctx = ctx or default_context(n, N)
    gl = glctx or default_gl_context(n)
    plus = ev_hom(power_p(m, +1, n, N, ctx), gl)
    minus = ev_hom(power_p(m, -1, n, N, ctx).shift(m - 1), gl)
    rf = rising_factorial(UPolynomial.variable(), m).to_series(m, N)
    lhs = plus * rf
    rhs = capelli_p(m, n, gl).to_series(m, N)
    return (lhs == rhs) and (plus == minus), (lhs, rhs, plus, minus)


def ev_hminus_bridge(m, n, N, ctx=None, glctx=None):
    """ev(h^-_m(u)) == ev(h_m(u)), exactly in U(gl_n)."""
    ctx = ctx or default_context(n, N)
    gl = glctx or default_gl_context(n)
    lhs = ev_hom(h_minus(m, n, N, ctx), gl)
    rhs = ev_hom(homog_h(m, n, N, ctx), gl)
    return lhs == rhs, (lhs, rhs)
