"""Leg calculus on (C^n)^{tensor k}.

Square matrices on a tensor power, stored sparsely as dict-of-rows over
multi-indices encoded in base n (leg 1 is the most significant digit).
Entries live in any ring: rationals for permutation operators, rational
R-matrices and (anti)symmetrizers; series over an algebra for products of
generating-matrix legs; shift operators for the tau calculus.

Entry products never reorder factors, so matrices with noncommutative
entries multiply correctly.  `trace_tm_mul` is tr(a b) formed from the
diagonal pairs only, and `trace_of_product` does the same for the last
product of plain n x n matrices given as lists of rows (power sums, Gelfand
invariants, Capelli polynomials).  Each entry of a product is one
`series.sum_of_products` over its pairs of entries, so series entries
accumulate their coefficients in place instead of building a series per
pair.

The trace oracles multiply legs by the integral k!*A_k, k!*S_k
(`permutation_sum`) and k!*B_k (`r_chain`), so no 1/k! enters the leg
products, and divide each trace by k! once; `antisymmetrizer`, `symmetrizer`
and `b_factor` are the normalized projectors.
"""

from itertools import permutations
from math import factorial

from .rationals import Q, QONE, QZERO, RATIONAL_TYPES, as_rational
from .series import USeries, sum_of_products


class RingSpec:
    """Zero of the entry ring, plus a flag for rational entries."""

    __slots__ = ("zero", "rational")

    def __init__(self, zero, rational=False):
        self.zero = zero
        self.rational = rational


Q_RING = RingSpec(QZERO, rational=True)


def algebra_ring(ctx):
    return RingSpec(ctx.zero())


class TensorMatrix:
    """Square matrix on (C^n)^{tensor k} with sparse rows."""

    __slots__ = ("n", "k", "rows", "ring")

    def __init__(self, n, k, rows=None, ring=Q_RING):
        self.n = n
        self.k = k
        self.rows = rows if rows is not None else {}
        self.ring = ring

    # -- constructors ---------------------------------------------------------

    @classmethod
    def identity(cls, n, k):
        return cls(n, k, {i: {i: QONE} for i in range(n ** k)})

    @classmethod
    def from_permutation(cls, sigma, k, n, coeff=QONE):
        """Operator sending e_{j_1} x ... x e_{j_k} to the basis vector whose
        sigma(t)-th slot holds j_t; sigma is a tuple with sigma[t-1] = sigma(t)."""
        if not coeff:
            return cls(n, k)
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

    def embed(self):
        """Tensor with the identity on one additional trailing leg."""
        n = self.n
        rows = {}
        for r, row in self.rows.items():
            for d in range(n):
                rows[r * n + d] = {c * n + d: v for c, v in row.items()}
        return TensorMatrix(n, self.k + 1, rows, self.ring)

    def equal(self, other):
        # every constructor and operation prunes zero entries and empty rows
        return self.n == other.n and self.k == other.k and self.rows == other.rows

    def is_zero(self):
        return not self.rows

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


def permutation_sum(k, n, signed):
    """Sum over S_k of the permutation operators on k legs, each times its
    sign when signed: k!*A_k or k!*S_k, with int entries."""
    acc = TensorMatrix(n, k)
    for sigma in permutations(range(1, k + 1)):
        coeff = _perm_sign(sigma) if signed else 1
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


def r_chain(l, sign, k, n):
    """l!*B_l on k legs: R_{l-1,l}(s/(l-1)) ... R_{1,2}(s) with s = -sign, each
    factor 1 + sign*p*P_{p,p+1} integral.  sign=+1 builds the symmetrizer
    factors (negative R arguments), sign=-1 the antisymmetrizer ones."""
    if l < 2 or l > k:
        raise ValueError("need 2 <= l <= k")
    acc = TensorMatrix.identity(n, k)
    for p in range(l - 1, 0, -1):
        acc = tm_mul(acc, r_matrix(p, p + 1, Q(-sign, p), k, n))
    return acc


def b_factor(l, sign, k, n):
    """B_l on k legs: r_chain(l, sign, k, n) / l!."""
    return r_chain(l, sign, k, n).scale(Q(1, factorial(l)))


def _projector_b_product(k, n, signed):
    sign = -1 if signed else +1
    acc = TensorMatrix.identity(n, k)
    for l in range(2, k + 1):
        acc = tm_mul(acc, b_factor(l, sign, k, n))
    return acc


_PROJ_METHODS = {
    "group_sum": lambda k, n, signed: permutation_sum(k, n, signed).scale(Q(1, factorial(k))),
    "fusion": _projector_fusion,
    "b_product": _projector_b_product,
}


def _projector(k, n, method, signed):
    if k < 1:
        raise ValueError("k must be >= 1")
    if method not in _PROJ_METHODS:
        raise ValueError(f"unknown method {method!r}")
    if k == 1:
        return TensorMatrix.identity(n, 1)
    return _PROJ_METHODS[method](k, n, signed)


def antisymmetrizer(k, n, method="group_sum"):
    """Projector onto the antisymmetric subspace of (C^n)^{tensor k}."""
    return _projector(k, n, method, signed=True)


def symmetrizer(k, n, method="group_sum"):
    """Projector onto the symmetric subspace of (C^n)^{tensor k}."""
    return _projector(k, n, method, signed=False)


def fusion_step(proj, direction):
    """One fusion step: from the projector on k legs to the one on k+1.

    direction "A" uses R_{k,k+1}(1/k), direction "S" uses R_{k,k+1}(-1/k).
    """
    if direction not in ("A", "S"):
        raise ValueError("direction must be 'A' or 'S'")
    n, k = proj.n, proj.k
    ext = proj.embed()
    arg = Q(1, k) if direction == "A" else Q(-1, k)
    r = r_matrix(k, k + 1, arg, k + 1, n)
    return tm_mul(tm_mul(ext, r), ext).scale(Q(1, k + 1))


# ---------------------------------------------------------------------------
# generating-matrix legs

def t_series(ctx, i, j, a, N):
    """The series entry t_ij(u+a) at order N over a yangian context."""
    coeffs = {}
    if i == j:
        coeffs[0] = ctx.one()
    for r in range(1, N + 1):
        coeffs[r] = ctx.t(r, i, j)
    s = USeries(N, coeffs)
    return s.shift(a) if a else s


def t_table(ctx, a, N):
    """The generating matrix T(u+a) at order N as a list of rows of series."""
    idx = range(1, ctx.n + 1)
    return [[t_series(ctx, i, j, a, N) for j in idx] for i in idx]


def t_leg(s, a, k, N, ctx):
    """T_s(u+a) on k legs over the (C^n)^{tensor k} of the yangian context
    ctx: leg s carries the generating matrix entries."""
    if not (1 <= s <= k):
        raise ValueError("leg index out of range")
    if ctx.kind != "yangian":
        raise ValueError("t_leg needs a yangian context")
    return matrix_on_leg(t_table(ctx, a, N), s, k, RingSpec(USeries.zero(N)))


def matrix_on_leg(M, s, k, ring):
    """An n x n matrix (n = len(M)) with arbitrary ring entries acting on leg s."""
    if not (1 <= s <= k):
        raise ValueError("leg index out of range")
    n = len(M)
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


def t_product(shifts, N, ctx, left=None, legs=None, right=None):
    """Ordered product of T_{legs[t]}(u+shifts[t]) on k = len(shifts) legs,
    legs 1, 2, ... by default, between optional rational matrices on the left
    and right (factor order is preserved)."""
    k = len(shifts)
    if legs is None:
        legs = range(1, k + 1)
    acc = left
    for s, a in zip(legs, shifts):
        leg = t_leg(s, a, k, N, ctx)
        acc = leg if acc is None else tm_mul(acc, leg)
    if right is not None:
        acc = tm_mul(acc, right)
    return acc


# ---------------------------------------------------------------------------
# products and traces

def tm_mul(a, b):
    """Matrix product; entry order is preserved (left entry first).  Each
    output entry is one `sum_of_products` over its pairs of entries."""
    _check_shape(a, b)
    ring = b.ring if a.ring.rational else a.ring
    rows_out = {}
    brows = b.rows
    for r, row_a in a.rows.items():
        pairs = {}
        for mid, va in row_a.items():
            for c, vb in brows.get(mid, {}).items():
                pairs.setdefault(c, []).append((va, vb))
        acc = {}
        for c, entry_pairs in pairs.items():
            s = sum_of_products(entry_pairs)
            if s:
                acc[c] = s
        if acc:
            rows_out[r] = acc
    return TensorMatrix(a.n, a.k, rows_out, ring)


def trace_tm_mul(a, b):
    """tr(a b) without forming the product: one `sum_of_products` over the
    pairs a[r][mid] * b[mid][r], left entry first; the ring's zero when no
    pair meets."""
    _check_shape(a, b)
    brows = b.rows
    tr = sum_of_products((va, vb) for r, row_a in a.rows.items()
                         for mid, va in row_a.items()
                         if (vb := brows.get(mid, {}).get(r)) is not None)
    if tr is not None:
        return tr
    return (b.ring if a.ring.rational else a.ring).zero


def trace_of_product(mats):
    """tr(M_1 M_2 ... M_k) for k >= 1 square matrices given as lists of rows.

    Every entry product keeps the left factor on the left, so entries need
    not commute; of the last product only the diagonal is formed.
    """
    prod = mats[0]
    for M in mats[1:-1]:
        prod = [[_dot(row, M, j) for j in range(len(M))] for row in prod]
    if len(mats) == 1:
        diag = [row[i] for i, row in enumerate(prod)]
    else:
        diag = [_dot(row, mats[-1], i) for i, row in enumerate(prod)]
    return sum(diag[1:], diag[0])


def _dot(row, M, j):
    """Entry j of the row vector `row` times M."""
    return sum_of_products((a, m_row[j]) for a, m_row in zip(row, M))


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
