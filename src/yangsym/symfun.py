"""Symmetric functions of the Yangian generating matrix.

Elementary, homogeneous and power-sum series; their shift-operator forms;
Bethe-subalgebra generators with a scalar twist; composition sums; Newton
identities; determinant formulas; the inverse of the alternating generating
operator; and Jacobi-Trudi style Schur series.

Everything is computed in the exact engine: series coefficients are
AlgebraElements of the Yangian (one context per n, see `pbw`), and
identities are checked coefficient-by-coefficient.  Family values are cached
on (family, n, parameters, order).
"""

from math import factorial

from .rationals import Q, QONE, as_rational
from .series import USeries
from .tau import TauOperator
from .pbw import yangian_context
from .tensor import (
    TensorMatrix,
    RingSpec,
    antisymmetrizer,
    symmetrizer,
    b_factor,
    t_leg,
    t_product,
    tm_mul,
    trace_full,
    z_leg,
)


# ---------------------------------------------------------------------------
# small combinatorial carriers

class Composition:
    """Ordered list of positive parts; the order of parts matters."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        parts = tuple(int(p) for p in parts)
        if any(p < 1 for p in parts):
            raise ValueError("composition parts must be positive")
        self.parts = parts

    @property
    def prefix_sums(self):
        out, acc = [], 0
        for p in self.parts:
            acc += p
            out.append(acc)
        return out

    def __len__(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __eq__(self, other):
        return isinstance(other, Composition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"Composition{self.parts}"


def compositions(k):
    """All 2^(k-1) compositions of k, in a fixed order."""
    if k < 1:
        raise ValueError("k must be >= 1")
    out = []
    for mask in range(1 << (k - 1)):
        parts, run = [], 1
        for pos in range(k - 1):
            if mask & (1 << pos):
                parts.append(run)
                run = 1
            else:
                run += 1
        parts.append(run)
        out.append(Composition(parts))
    return out


class Partition:
    """Weakly decreasing non-negative parts; trailing zeros are dropped."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        parts = [int(p) for p in parts]
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError("partition parts must be weakly decreasing")
        if any(p < 0 for p in parts):
            raise ValueError("partition parts must be non-negative")
        while parts and parts[-1] == 0:
            parts.pop()
        self.parts = tuple(parts)

    def conjugate(self):
        if not self.parts:
            return Partition(())
        cols = self.parts[0]
        return Partition(tuple(sum(1 for p in self.parts if p >= c)
                               for c in range(1, cols + 1)))

    def size(self):
        return sum(self.parts)

    def __len__(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"Partition{self.parts}"


class BetheTwist:
    """A rational n x n twist matrix."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        n = len(matrix)
        if any(len(row) != n for row in matrix):
            raise ValueError("twist must be square")
        self.matrix = tuple(tuple(as_rational(v) for v in row) for row in matrix)

    @property
    def n(self):
        return len(self.matrix)

    @classmethod
    def identity(cls, n):
        return cls([[QONE if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def random(cls, n, rng):
        """Random integer-entried twist (entries in [-5, 5], not all zero)."""
        while True:
            m = [[Q(rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)]
            if any(v for row in m for v in row):
                return cls(m)


# ---------------------------------------------------------------------------
# caching

_CACHE = {}


def _cached(key, builder):
    val = _CACHE.get(key)
    if val is None:
        val = _CACHE[key] = builder()
    return val


_PROJ_CACHE = {}


def cached_projector(kind, k, n):
    key = (kind, k, n)
    m = _PROJ_CACHE.get(key)
    if m is None:
        build = antisymmetrizer if kind == "A" else symmetrizer
        m = _PROJ_CACHE[key] = build(k, n, method="group_sum")
    return m


def unit_series(n, N):
    return USeries.const(yangian_context(n).one(), N)


# ---------------------------------------------------------------------------
# the three families

def elem_e(k, n, N):
    """Trace of A_k T_1(u) T_2(u-1) ... T_k(u-k+1); zero for k > n."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return unit_series(n, N)
    if k > n:
        return USeries.zero(N)

    def build():
        A = cached_projector("A", k, n)
        prod = t_product([-s for s in range(k)], N, yangian_context(n), left=A)
        return trace_full(prod)

    return _cached(("e", n, k, N), build)


def homog_h(k, n, N):
    """Trace of S_k T_1(u) T_2(u+1) ... T_k(u+k-1)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return unit_series(n, N)

    def build():
        S = cached_projector("S", k, n)
        prod = t_product(list(range(k)), N, yangian_context(n), left=S)
        return trace_full(prod)

    return _cached(("h", n, k, N), build)


def power_p(k, sign, n, N):
    """Trace of the plain matrix product T(u) T(u+sign) ... T(u+sign*(k-1))."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")

    def build():
        ctx = yangian_context(n)
        acc = None
        for s in range(k):
            leg = t_leg(1, sign * s, 1, N, ctx)
            acc = leg if acc is None else tm_mul(acc, leg)
        return trace_full(acc)

    return _cached(("p", n, k, sign, N), build)


# ---------------------------------------------------------------------------
# shift-operator forms

def e_tau(k, n, N):
    """e_k(u) attached to tau^{-k}."""
    if k == 0:
        return TauOperator.from_series(unit_series(n, N), 0)
    return TauOperator.from_series(elem_e(k, n, N), -k)


def h_tau(k, n, N):
    """h_k(u) attached to tau^{+k}."""
    if k == 0:
        return TauOperator.from_series(unit_series(n, N), 0)
    return TauOperator.from_series(homog_h(k, n, N), k)


def p_tau(k, sign, n, N):
    """p^sign_k(u) attached to tau^{sign*k}."""
    return TauOperator.from_series(power_p(k, sign, n, N), sign * k)


def _tau_trace(left, d, legs, k, n, N):
    """tr(left (T(u) tau^d)_{legs[0]} ... (T(u) tau^d)_{legs[-1]}) on k legs,
    evaluated in the shift-operator calculus instead of through the closed
    forms; an independent oracle for e_tau, h_tau and p_tau."""
    ctx = yangian_context(n)
    ring = RingSpec(TauOperator.zero())
    acc = left
    for s in legs:
        leg = t_leg(s, 0, k, N, ctx)
        tau_leg = TensorMatrix(n, k, {
            r: {c: TauOperator.from_series(v, d) for c, v in row.items()}
            for r, row in leg.rows.items()}, ring)
        acc = tau_leg if acc is None else tm_mul(acc, tau_leg)
    tr = trace_full(acc)
    return tr if isinstance(tr, TauOperator) else TauOperator.zero()


def e_tau_direct(k, n, N):
    """tr(A_k ((T(u) tau^{-1})_1 ... (T(u) tau^{-1})_k))."""
    return _tau_trace(cached_projector("A", k, n), -1, range(1, k + 1), k, n, N)


def h_tau_direct(k, n, N):
    """tr(S_k ((T(u) tau^{+1})_1 ... (T(u) tau^{+1})_k))."""
    return _tau_trace(cached_projector("S", k, n), 1, range(1, k + 1), k, n, N)


def p_tau_direct(k, sign, n, N):
    """tr((T(u) tau^{sign})^k) on a single leg."""
    return _tau_trace(None, sign, [1] * k, 1, n, N)


# ---------------------------------------------------------------------------
# Bethe generators

def bethe_b(k, Z, n, N):
    """Trace over n legs of A_n T_1(u)...T_k(u-k+1) Z_{k+1}...Z_n."""
    if not (1 <= k <= n):
        raise ValueError("need 1 <= k <= n")
    if isinstance(Z, BetheTwist):
        Zm = Z.matrix
    else:
        Zm = BetheTwist(Z).matrix
    ctx = yangian_context(n)
    acc = cached_projector("A", n, n)
    for s in range(1, k + 1):
        acc = tm_mul(acc, t_leg(s, -(s - 1), n, N, ctx))
    for s in range(k + 1, n + 1):
        acc = tm_mul(acc, z_leg(Zm, s, n, acc.ring))
    return trace_full(acc)


def prop_eB_traces(k, variant, n, N):
    """The four alternative trace presentations.

    1: tr(B^-_k T_1(u)...T_k(u-k+1))   -> e_k(u)
    2: tr(B^+_k T_1(u)...T_k(u+k-1))   -> h_k(u)
    3: tr(A_k  T_1(u)...T_k(u+k-1))    -> e_k(u+k-1)
    4: tr(S_k  T_1(u)...T_k(u-k+1))    -> h_k(u-k+1)
    """
    if variant in (1, 2):
        sign = -1 if variant == 1 else +1
        left = TensorMatrix.identity(n, k) if k == 1 else b_factor(k, sign, k, n)
    elif variant == 3:
        left = cached_projector("A", k, n)
    elif variant == 4:
        left = cached_projector("S", k, n)
    else:
        raise ValueError("variant must be 1..4")
    dec = [-s for s in range(k)]
    inc = list(range(k))
    shifts = dec if variant in (1, 4) else inc
    return trace_full(t_product(shifts, N, yangian_context(n), left=left))


# ---------------------------------------------------------------------------
# composition sums and Newton identities

def composition_sum(k, kind, n, N):
    """Sum over compositions of k of scaled products of power sums (tau form)."""
    if kind not in ("e", "h"):
        raise ValueError("kind must be 'e' or 'h'")
    sign = -1 if kind == "e" else +1
    total = None
    for lam in compositions(k):
        m = len(lam)
        denom = 1
        for a in lam.prefix_sums:
            denom *= a
        coeff = Q((-1) ** (k - m), denom) if kind == "e" else Q(1, denom)
        prod = None
        for part in lam:
            f = p_tau(part, sign, n, N)
            prod = f if prod is None else prod * f
        prod = prod.scale(coeff)
        total = prod if total is None else total + prod
    return total


def newton_check(m, kind, n, N):
    """Both sides of the Newton identity at degree m; returns (ok, lhs, rhs)."""
    if kind not in ("e", "h"):
        raise ValueError("kind must be 'e' or 'h'")
    lhs = None
    for k in range(m):
        if kind == "e":
            term = (e_tau(k, n, N) * p_tau(m - k, -1, n, N)) \
                .scale(Q((-1) ** (m - k - 1)))
        else:
            term = h_tau(k, n, N) * p_tau(m - k, +1, n, N)
        lhs = term if lhs is None else lhs + term
    rhs = (e_tau(m, n, N) if kind == "e" else h_tau(m, n, N)).scale(m)
    return (lhs == rhs, lhs, rhs)


# ---------------------------------------------------------------------------
# row determinants and determinant formulas

def rdet(rows):
    """Row determinant sum_sigma sgn(sigma) a_{1,sigma(1)} ... a_{m,sigma(m)}.

    Expands along the first row and memoizes each minor on its set of
    remaining columns: O(m 2^m) products instead of m! m.  Every product
    keeps the row order, so the entries need not commute.
    """
    m = len(rows)
    if any(len(r) != m for r in rows):
        raise ValueError("rdet needs a square matrix")
    if m == 0:
        raise ValueError("rdet of an empty matrix")
    memo = {}

    def minor(cols):
        # rdet of the last len(cols) rows on the columns cols; None if zero
        if cols in memo:
            return memo[cols]
        i = m - len(cols)
        acc = None
        for pos, c in enumerate(cols):
            v = rows[i][c]
            if not v:
                continue
            if i < m - 1:
                sub = minor(cols[:pos] + cols[pos + 1:])
                if sub is None:
                    continue
                v = v * sub
            term = -v if pos % 2 else v
            acc = term if acc is None else acc + term
        memo[cols] = acc if acc else None
        return memo[cols]

    acc = minor(tuple(range(m)))
    if acc is None:
        z = rows[0][0]
        return z - z if not isinstance(z, int) else 0
    return acc


def det_formulas(m, which, n, N):
    """One of the four determinant presentations, normalized to its target.

    e_from_p -> e_m(u); h_from_p -> h_m(u); p_from_e -> p^-_m(u);
    p_from_h -> p^+_m(u).
    """
    one = unit_series(n, N)
    zero = USeries.zero(N)

    def scalar(q):
        return one.scale(q)

    rows = []
    for i in range(1, m + 1):
        row = []
        for j in range(1, m + 1):
            if j > i + 1:
                row.append(zero)
            elif j == i + 1:
                if which == "e_from_p":
                    row.append(scalar(i))
                elif which == "h_from_p":
                    row.append(scalar(-i))
                else:
                    row.append(one)
            else:
                d = i - j + 1
                if which == "e_from_p":
                    row.append(power_p(d, -1, n, N).shift(-(j - 1)))
                elif which == "h_from_p":
                    row.append(power_p(d, +1, n, N).shift(j - 1))
                elif which == "p_from_e":
                    # the degree weight sits on the last row (the factor the
                    # Newton recursion attaches to the final part)
                    s = elem_e(d, n, N).shift(-(j - 1))
                    row.append(s.scale(d) if i == m else s)
                elif which == "p_from_h":
                    s = homog_h(d, n, N).shift(j - 1)
                    row.append(s.scale(d) if i == m else s)
                else:
                    raise ValueError(f"unknown determinant formula {which!r}")
        rows.append(row)
    d = rdet(rows)
    if which in ("e_from_p", "h_from_p"):
        return d.scale(Q(1, factorial(m)))
    if which == "p_from_h":
        return d.scale(Q((-1) ** (m - 1)))
    return d


# ---------------------------------------------------------------------------
# the inverse generating operator

def h_minus(m, n, N):
    """h^-_m(u) from its determinant in downward power sums at climbing
    arguments: entry (i,j) is p^-_{i-j+1}(u+i-1) for j <= i, the superdiagonal
    entry of row i is -i, zeros above."""
    if m < 0:
        raise ValueError("m must be >= 0")
    if m == 0:
        return unit_series(n, N)

    def build():
        one = unit_series(n, N)
        zero = USeries.zero(N)
        rows = []
        for i in range(1, m + 1):
            row = []
            for j in range(1, m + 1):
                if j > i + 1:
                    row.append(zero)
                elif j == i + 1:
                    row.append(one.scale(-i))
                else:
                    row.append(power_p(i - j + 1, -1, n, N).shift(i - 1))
            rows.append(row)
        return rdet(rows).scale(Q(1, factorial(m)))

    return _cached(("h_minus", n, m, N), build)


def h_minus_from_inverse(m, n, N):
    """h^-_m(u) as the unique solution of the inverse identity; independent
    cross-check of the determinant layout."""
    hs = [unit_series(n, N)]
    for t in range(1, m + 1):
        acc = None
        for k in range(1, min(n, t) + 1):
            term = (elem_e(k, n, N).shift(t - 1) * hs[t - k]).scale(Q((-1) ** k))
            acc = term if acc is None else acc + term
        hs.append(acc.scale(-1))
    return hs[m]


def gen_E(n, N):
    """The alternating generating operator sum_k (-1)^k e_k(u) tau^{-k}."""
    acc = TauOperator.zero()
    for k in range(n + 1):
        acc = acc + e_tau(k, n, N).scale(Q((-1) ** k))
    return acc


def gen_Hminus(L, n, N):
    """sum_{l=0..L} tau^{-l} h^-_l(u), normalized with coefficients on the left."""
    if L < 0:
        raise ValueError("L must be >= 0")
    acc = TauOperator.zero()
    for l in range(L + 1):
        acc = acc + TauOperator.from_series(h_minus(l, n, N).shift(-l), -l)
    return acc


def e_from_h_minus(k, n, N):
    """e_k(u) as the Jacobi-Trudi style rdet in h^- with sliding arguments."""
    one = unit_series(n, N)
    zero = USeries.zero(N)
    rows = []
    for i in range(1, k + 1):
        row = []
        for j in range(1, k + 1):
            d = j - i + 1
            if d < 0:
                row.append(zero)
            elif d == 0:
                row.append(one)
            else:
                row.append(h_minus(d, n, N).shift(-(j - 1)))
        rows.append(row)
    return rdet(rows)


# ---------------------------------------------------------------------------
# Schur series

def schur_s(lam, via, n, N):
    """Schur series for a partition, via the h^- route or the e route."""
    if not isinstance(lam, Partition):
        lam = Partition(lam)
    if len(lam) == 0:
        raise ValueError("partition must be non-empty")
    one = unit_series(n, N)
    zero = USeries.zero(N)

    def entry_h(i, j):
        d = lam.parts[i - 1] - i + j
        if d < 0:
            return zero
        if d == 0:
            return one
        return h_minus(d, n, N).shift(-(j - 1))

    def entry_e(i, j, conj):
        # arguments climb by column, mirroring the h^- route
        d = conj.parts[i - 1] - i + j
        if d < 0:
            return zero
        if d == 0:
            return one
        return elem_e(d, n, N).shift(j - 1)

    if via == "h":
        k = len(lam)
        rows = [[entry_h(i, j) for j in range(1, k + 1)] for i in range(1, k + 1)]
    elif via == "e":
        conj = lam.conjugate()
        kp = len(conj)
        rows = [[entry_e(i, j, conj) for j in range(1, kp + 1)] for i in range(1, kp + 1)]
    else:
        raise ValueError("via must be 'h' or 'e'")
    return rdet(rows)
