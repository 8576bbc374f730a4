"""Leg calculus on (C^n)^{tensor k}.

Square matrices on a tensor power, stored sparsely as dict-of-rows over
multi-indices encoded in base n (leg 1 is the most significant digit).
Entries live in any ring: rationals for permutation operators, rational
R-matrices and (anti)symmetrizers; series over an algebra for products of
generating-matrix legs; shift operators for the tau calculus.

Entry products never reorder factors, so matrices with noncommutative
entries multiply correctly.
"""

from itertools import permutations
from math import factorial

from .rationals import Q, QONE, QZERO, RATIONAL_TYPES, as_rational
from .series import USeries


class RingSpec:
    """Zero and one of the entry ring, plus a flag for rational entries."""

    __slots__ = ("zero", "one", "rational")

    def __init__(self, zero, one, rational=False):
        self.zero = zero
        self.one = one
        self.rational = rational


Q_RING = RingSpec(QZERO, QONE, rational=True)


def series_ring(order, ctx=None):
    """Ring of USeries at a fixed order, rational or algebra-valued."""
    one = USeries.one(order) if ctx is None else USeries.const(ctx.one(), order)
    return RingSpec(USeries.zero(order), one)


def algebra_ring(ctx):
    return RingSpec(ctx.zero(), ctx.one())


class TensorMatrix:
    """Square matrix on (C^n)^{tensor k} with sparse rows."""

    __slots__ = ("n", "k", "rows", "ring")

    def __init__(self, n, k, rows=None, ring=Q_RING):
        self.n = n
        self.k = k
        self.rows = rows if rows is not None else {}
        self.ring = ring

    @property
    def dim(self):
        return self.n ** self.k

    # -- constructors ---------------------------------------------------------

    @classmethod
    def identity(cls, n, k, ring=Q_RING):
        one = ring.one
        return cls(n, k, {i: {i: one} for i in range(n ** k)}, ring)

    @classmethod
    def from_permutation(cls, sigma, k, n, coeff=QONE):
        """Operator sending e_{j_1} x ... x e_{j_k} to the basis vector whose
        sigma(t)-th slot holds j_t; sigma is a tuple with sigma[t-1] = sigma(t)."""
        powers = [n ** (k - 1 - t) for t in range(k)]
        rows = {}
        for col in range(n ** k):
            digits = _digits(col, n, k)
            row = 0
            for t in range(k):
                row += digits[t] * powers[sigma[t] - 1]
            rows.setdefault(row, {})[col] = coeff
        return cls(n, k, rows)

    # -- elementwise ----------------------------------------------------------

    def entry(self, r, c):
        row = self.rows.get(r)
        if row is None:
            return self.ring.zero
        return row.get(c, self.ring.zero)

    def set_entry(self, r, c, v):
        if v:
            self.rows.setdefault(r, {})[c] = v
        else:
            row = self.rows.get(r)
            if row and c in row:
                del row[c]
                if not row:
                    del self.rows[r]

    def scale(self, q):
        q = as_rational(q)
        if not q:
            return TensorMatrix(self.n, self.k, {}, self.ring)
        rows = {}
        for r, row in self.rows.items():
            rows[r] = {c: q * v for c, v in row.items()}
        return TensorMatrix(self.n, self.k, rows, self.ring)

    def __add__(self, other):
        _check_shape(self, other)
        rows = {r: dict(row) for r, row in self.rows.items()}
        for r, row in other.rows.items():
            dst = rows.setdefault(r, {})
            for c, v in row.items():
                s = dst.get(c)
                s = v if s is None else s + v
                if s:
                    dst[c] = s
                elif c in dst:
                    del dst[c]
            if not dst:
                del rows[r]
        return TensorMatrix(self.n, self.k, rows, self.ring)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __mul__(self, other):
        if isinstance(other, RATIONAL_TYPES):
            return self.scale(other)
        return tm_mul(self, other)

    def __rmul__(self, other):
        if isinstance(other, RATIONAL_TYPES):
            return self.scale(other)
        return NotImplemented

    def embed(self, extra_legs, ring=None):
        """Tensor with the identity on `extra_legs` additional trailing legs."""
        if extra_legs == 0:
            return self
        n, k = self.n, self.k
        m = n ** extra_legs
        ring = ring or self.ring
        rows = {}
        for r, row in self.rows.items():
            for d in range(m):
                rows[r * m + d] = {c * m + d: v for c, v in row.items()}
        return TensorMatrix(n, k + extra_legs, rows, ring)

    def equal(self, other):
        if self.n != other.n or self.k != other.k:
            return False
        keys = set(self.rows) | set(other.rows)
        for r in keys:
            ra = self.rows.get(r, {})
            rb = other.rows.get(r, {})
            for c in set(ra) | set(rb):
                va, vb = ra.get(c), rb.get(c)
                if va is None:
                    if vb:
                        return False
                elif vb is None:
                    if va:
                        return False
                elif va != vb:
                    return False
        return True

    def is_zero(self):
        return all(not v for row in self.rows.values() for v in row.values())

    def __repr__(self):
        return f"TensorMatrix(n={self.n}, k={self.k}, nnz={sum(len(r) for r in self.rows.values())})"


def _digits(idx, n, k):
    out = [0] * k
    for t in range(k - 1, -1, -1):
        idx, out[t] = divmod(idx, n)
    return out


def _index(digits, n):
    idx = 0
    for d in digits:
        idx = idx * n + d
    return idx


def _check_shape(a, b):
    if a.n != b.n or a.k != b.k:
        raise ValueError(f"shape mismatch: ({a.n},{a.k}) vs ({b.n},{b.k})")


# ---------------------------------------------------------------------------
# permutation operators and R-matrices

def perm_op(l, m, k, n):
    """The swap P_{l,m} of legs l and m on (C^n)^{tensor k}."""
    if not (1 <= l < m <= k):
        raise ValueError(f"need 1 <= l < m <= k, got l={l}, m={m}, k={k}")
    sigma = list(range(1, k + 1))
    sigma[l - 1], sigma[m - 1] = m, l
    return TensorMatrix.from_permutation(tuple(sigma), k, n)


def r_matrix(l, m, c, k, n):
    """Yang matrix 1 - P_{l,m}/c at a nonzero rational argument c."""
    c = as_rational(c)
    if not c:
        raise ValueError("R-matrix argument must be nonzero (pole of the Yang matrix)")
    return TensorMatrix.identity(n, k) + perm_op(l, m, k, n).scale(-QONE / c)


def _perm_sign(sigma):
    sign = 1
    seen = [False] * len(sigma)
    for s in range(len(sigma)):
        if seen[s]:
            continue
        length = 0
        t = s
        while not seen[t]:
            seen[t] = True
            t = sigma[t] - 1
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _projector_group_sum(k, n, signed):
    acc = TensorMatrix(n, k)
    for sigma in permutations(range(1, k + 1)):
        coeff = Q(_perm_sign(sigma), factorial(k)) if signed else Q(1, factorial(k))
        acc = acc + TensorMatrix.from_permutation(sigma, k, n, coeff=coeff)
    return acc


def _projector_fusion(k, n, signed):
    # product over i = k-1..1 of the groups (R_{i,k} R_{i,k-1} ... R_{i,i+1})
    # at arguments v_i - v_j where v_j walks down (up) by one per leg
    acc = TensorMatrix.identity(n, k)
    for i in range(k - 1, 0, -1):
        for j in range(k, i, -1):
            arg = Q(j - i) if signed else Q(i - j)
            acc = tm_mul(acc, r_matrix(i, j, arg, k, n))
    return acc.scale(Q(1, factorial(k)))


def b_factor(l, sign, k, n):
    """B_l on k legs: (1/l!) R_{l-1,l}(s/(l-1)) ... R_{1,2}(s) with s = -sign.

    sign=+1 builds the symmetrizer factors (negative R arguments), sign=-1
    the antisymmetrizer ones.
    """
    if l < 2 or l > k:
        raise ValueError("need 2 <= l <= k")
    acc = TensorMatrix.identity(n, k)
    for p in range(l - 1, 0, -1):
        acc = tm_mul(acc, r_matrix(p, p + 1, Q(-sign, p), k, n))
    return acc.scale(Q(1, factorial(l)))


def _projector_b_product(k, n, signed):
    sign = -1 if signed else +1
    acc = TensorMatrix.identity(n, k)
    for l in range(2, k + 1):
        acc = tm_mul(acc, b_factor(l, sign, k, n))
    return acc


_PROJ_METHODS = {
    "group_sum": _projector_group_sum,
    "fusion": _projector_fusion,
    "b_product": _projector_b_product,
}


def antisymmetrizer(k, n, method="group_sum"):
    """Projector onto the antisymmetric subspace of (C^n)^{tensor k}."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if method not in _PROJ_METHODS:
        raise ValueError(f"unknown method {method!r}")
    if k == 1:
        return TensorMatrix.identity(n, 1)
    return _PROJ_METHODS[method](k, n, signed=True)


def symmetrizer(k, n, method="group_sum"):
    """Projector onto the symmetric subspace of (C^n)^{tensor k}."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if method not in _PROJ_METHODS:
        raise ValueError(f"unknown method {method!r}")
    if k == 1:
        return TensorMatrix.identity(n, 1)
    return _PROJ_METHODS[method](k, n, signed=False)


def fusion_step(proj, direction):
    """One fusion step: from the projector on k legs to the one on k+1.

    direction "A" uses R_{k,k+1}(1/k), direction "S" uses R_{k,k+1}(-1/k).
    """
    if direction not in ("A", "S"):
        raise ValueError("direction must be 'A' or 'S'")
    n, k = proj.n, proj.k
    ext = proj.embed(1)
    arg = Q(1, k) if direction == "A" else Q(-1, k)
    r = r_matrix(k, k + 1, arg, k + 1, n)
    return tm_mul(tm_mul(ext, r), ext).scale(Q(1, k + 1))


# ---------------------------------------------------------------------------
# generating-matrix legs and scalar-twist legs

def t_series(ctx, i, j, a, N):
    """The series entry t_ij(u+a) at order N over a yangian context."""
    coeffs = {}
    if i == j:
        coeffs[0] = ctx.one()
    for r in range(1, N + 1):
        coeffs[r] = ctx.t(r, i, j)
    s = USeries(N, coeffs)
    return s.shift(a) if a else s


def t_leg(s, a, k, n, N, ctx):
    """T_s(u+a) on k legs: leg s carries the generating matrix entries."""
    if not (1 <= s <= k):
        raise ValueError("leg index out of range")
    if ctx.kind != "yangian":
        raise ValueError("t_leg needs a yangian context")
    ring = series_ring(N, ctx)
    table = [[t_series(ctx, i, j, a, N) for j in range(1, n + 1)]
             for i in range(1, n + 1)]
    pow_s = n ** (k - s)
    rows = {}
    for col in range(n ** k):
        j_s = (col // pow_s) % n
        base = col - j_s * pow_s
        for i_s in range(n):
            rows.setdefault(base + i_s * pow_s, {})[col] = table[i_s][j_s]
    return TensorMatrix(n, k, rows, ring)


def matrix_on_leg(M, s, k, n, ring=Q_RING):
    """An n x n matrix with arbitrary ring entries acting on leg s."""
    if not (1 <= s <= k):
        raise ValueError("leg index out of range")
    pow_s = n ** (k - s)
    rows = {}
    for col in range(n ** k):
        j_s = (col // pow_s) % n
        base = col - j_s * pow_s
        for i_s in range(n):
            v = M[i_s][j_s]
            if v:
                rows.setdefault(base + i_s * pow_s, {})[col] = v
    return TensorMatrix(n, k, rows, ring)


def z_leg(Z, s, k, n, ring=Q_RING):
    """A scalar n x n matrix Z acting on leg s (identity elsewhere)."""
    Zq = [[as_rational(v) for v in row] for row in Z]
    return matrix_on_leg(Zq, s, k, n, ring)


def t_product(shifts, k, n, N, ctx, left=None, legs=None, right=None):
    """Ordered product of T_{legs[t]}(u+shifts[t]) on k legs, legs 1, 2, ...
    by default, between optional rational matrices on the left and right
    (factor order is preserved)."""
    if legs is None:
        legs = range(1, len(shifts) + 1)
    acc = left
    for s, a in zip(legs, shifts):
        leg = t_leg(s, a, k, n, N, ctx)
        acc = leg if acc is None else tm_mul(acc, leg)
    if right is not None:
        acc = tm_mul(acc, right)
    return acc


# ---------------------------------------------------------------------------
# products and traces

def tm_mul(a, b):
    """Matrix product; entry order is preserved (left entry first)."""
    _check_shape(a, b)
    ring = b.ring if a.ring.rational else a.ring
    rows_out = {}
    brows = b.rows
    for r, row_a in a.rows.items():
        acc = {}
        for mid, va in row_a.items():
            row_b = brows.get(mid)
            if not row_b:
                continue
            for c, vb in row_b.items():
                p = va * vb
                if not p:
                    continue
                s = acc.get(c)
                s = p if s is None else s + p
                if s:
                    acc[c] = s
                elif c in acc:
                    del acc[c]
        if acc:
            rows_out[r] = acc
    return TensorMatrix(a.n, a.k, rows_out, ring)


def trace_full(a):
    """Sum of diagonal entries, a ring element."""
    acc = None
    for r, row in a.rows.items():
        v = row.get(r)
        if v is not None:
            acc = v if acc is None else acc + v
    return a.ring.zero if acc is None else acc


def trace_partial(a, legs):
    """Partial trace over the listed legs (1-based), keeping the rest.

    Any subset is accepted; the remaining legs keep their relative order.
    """
    legs = sorted(set(legs))
    if not legs:
        return a
    if legs[0] < 1 or legs[-1] > a.k:
        raise ValueError("traced legs out of range")
    n, k = a.n, a.k
    keep = [t for t in range(1, k + 1) if t not in legs]
    k_out = len(keep)
    rows_out = {}
    for r, row in a.rows.items():
        rd = _digits(r, n, k)
        r_traced = [rd[t - 1] for t in legs]
        r_keep = _index([rd[t - 1] for t in keep], n)
        for c, v in row.items():
            cd = _digits(c, n, k)
            if [cd[t - 1] for t in legs] != r_traced:
                continue
            c_keep = _index([cd[t - 1] for t in keep], n)
            dst = rows_out.setdefault(r_keep, {})
            s = dst.get(c_keep)
            s = v if s is None else s + v
            if s:
                dst[c_keep] = s
            elif c_keep in dst:
                del dst[c_keep]
    rows_out = {r: row for r, row in rows_out.items() if row}
    return TensorMatrix(n, k_out, rows_out, a.ring)
