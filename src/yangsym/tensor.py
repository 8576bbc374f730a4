"""Leg calculus on (C^n)^{tensor k}.

Square matrices on a tensor power, stored sparsely as dict-of-rows over
multi-indices encoded in base n (leg 1 is the most significant digit).
Entries live in any ring: rationals for permutation operators, rational
R-matrices and (anti)symmetrizers; series over an algebra for products of
generating-matrix legs; shift operators for the tau calculus; algebra
elements and polynomials in u over U(gl_n).  A matrix keeps the zero of its
ring, and a product takes the zero of its non-rational factor.  Entries of
the rational ring follow `rationals.demote`: the constructors build ints,
and `scale`, `+`, `tm_mul` and `trace_partial` store an integral Fraction
as an int, so the integral projectors k!*A_k and k!*S_k multiply in ints.

`TensorMatrix` is the one matrix type: an n x n matrix is a matrix on one
leg (`matrix_on_leg(M, 1, 1, zero)`).  Entry products never reorder
factors, so matrices with noncommutative entries multiply correctly.
`trace_of_product` is the one trace of a product, of leg products and of
n x n matrix products alike (power sums, Gelfand invariants, Capelli
polynomials): it multiplies all but the last matrix with `tm_mul` and
forms only the diagonal pairs of the last product.  Each entry of a product
is one `series.sum_of_products` over its pairs of entries, so series
entries accumulate their coefficients in place instead of building a
series per pair.  A product of two rational matrices follows the clearing
rule of `rationals`: its rows are cleared of their denominators, the
entries accumulate in ints and each is divided once, so no Fraction is
built inside the loop (and a float entry raises TypeError).

The trace oracles multiply legs by the integral k!*A_k, k!*S_k
(`permutation_sum`) and k!*B_k (`r_chain`), so no 1/k! enters the leg
products, and divide each trace by k! once; `antisymmetrizer`, `symmetrizer`
and `b_factor` are the normalized projectors.
"""

from functools import reduce
from itertools import permutations
from math import factorial, lcm

from .pbw import AlgebraElement, as_size
from .rationals import Q, RATIONAL_TYPES, cleared, demote
from .series import SparseCoeffs, USeries, sum_of_products


class TensorMatrix:
    """Square matrix on (C^n)^{tensor k} with sparse rows and the zero of
    its entry ring."""

    __slots__ = ("n", "k", "rows", "zero")

    def __init__(self, n, k, rows=None, zero=0):
        if type(n) is not int or type(k) is not int or n < 1 or k < 0:
            n, k = as_size(n), as_size(k, "k", 0)  # zero legs: a scalar
        self.n = n
        self.k = k
        self.rows = rows if rows is not None else {}
        self.zero = zero

    # -- constructors ---------------------------------------------------------

    @classmethod
    def identity(cls, n, k):
        n, k = as_size(n), as_size(k, "k")
        return cls(n, k, {i: {i: 1} for i in range(n ** k)})

    @classmethod
    def from_permutation(cls, sigma, k, n, coeff=1):
        """Operator sending e_{j_1} x ... x e_{j_k} to the basis vector whose
        sigma(t)-th slot holds j_t; sigma is a tuple with sigma[t-1] = sigma(t)."""
        n, k = as_size(n), as_size(k, "k")
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
            return self.zero
        return row.get(c, self.zero)

    def scale(self, q):
        q = demote(q)
        if not q:
            return TensorMatrix(self.n, self.k, {}, self.zero)
        rows = {}
        for r, row in self.rows.items():
            rows[r] = {c: _stored(q * v) for c, v in row.items()}
        return TensorMatrix(self.n, self.k, rows, self.zero)

    def __add__(self, other):
        _check_shape(self, other)
        rows = {r: dict(row) for r, row in self.rows.items()}
        for r, row in other.rows.items():
            dst = rows.setdefault(r, {})
            for c, v in row.items():
                s = dst.get(c)
                s = v if s is None else _stored(s + v)
                if s:
                    dst[c] = s
                elif c in dst:
                    del dst[c]
            if not dst:
                del rows[r]
        return TensorMatrix(self.n, self.k, rows, self.zero)

    def __sub__(self, other):
        return self + other.scale(-1)

    def embed(self):
        """Tensor with the identity on one additional trailing leg."""
        n = self.n
        rows = {}
        for r, row in self.rows.items():
            for d in range(n):
                rows[r * n + d] = {c * n + d: v for c, v in row.items()}
        return TensorMatrix(n, self.k + 1, rows, self.zero)

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


def _stored(v):
    """A rational entry in stored form (`rationals.demote`); any other
    entry as it is."""
    return demote(v) if type(v) is Q else v


def _check_shape(a, b):
    if a.n != b.n or a.k != b.k:
        raise ValueError(f"shape mismatch: ({a.n},{a.k}) vs ({b.n},{b.k})")


def _product_zero(a, b):
    """The zero of a product: that of its non-rational factor."""
    return b.zero if isinstance(a.zero, RATIONAL_TYPES) else a.zero


# ---------------------------------------------------------------------------
# permutation operators and R-matrices

def perm_op(l, m, k, n):
    """The swap P_{l,m} of legs l and m on (C^n)^{tensor k}."""
    k = as_size(k, "k")
    if not (1 <= l < m <= k):
        raise ValueError(f"need 1 <= l < m <= k, got l={l}, m={m}, k={k}")
    sigma = list(range(1, k + 1))
    sigma[l - 1], sigma[m - 1] = m, l
    return TensorMatrix.from_permutation(tuple(sigma), k, n)


def r_matrix(l, m, c, k, n):
    """Yang matrix 1 - P_{l,m}/c at a nonzero rational argument c."""
    c = demote(c)
    if not c:
        raise ValueError("R-matrix argument must be nonzero (pole of the Yang matrix)")
    return TensorMatrix.identity(n, k) + perm_op(l, m, k, n).scale(Q(-1, c))


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
    acc = TensorMatrix(n, as_size(k, "k"))
    for sigma in permutations(range(1, k + 1)):
        coeff = _perm_sign(sigma) if signed else 1
        acc = acc + TensorMatrix.from_permutation(sigma, k, n, coeff=coeff)
    return acc


def _projector_fusion(k, n, signed):
    # product over i = k-1..1 of the groups (R_{i,k} R_{i,k-1} ... R_{i,i+1})
    # at arguments v_i - v_j where v_j walks down (up) by one per leg; the
    # 1/k! is folded into the last product's one division
    factors = [r_matrix(i, j, j - i if signed else i - j, k, n)
               for i in range(k - 1, 0, -1) for j in range(k, i, -1)]
    return _rational_mul(reduce(tm_mul, factors[:-1], TensorMatrix.identity(n, k)),
                         factors[-1], factorial(k))


def r_chain(l, sign, k, n):
    """l!*B_l on k legs: R_{l-1,l}(s/(l-1)) ... R_{1,2}(s) with s = -sign, each
    factor 1 + sign*p*P_{p,p+1} integral.  sign=+1 builds the symmetrizer
    factors (negative R arguments), sign=-1 the antisymmetrizer ones."""
    k = as_size(k, "k")
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
    k = as_size(k, "k")
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
    """One fusion step: from the rational projector P on k legs to the one
    on k+1, (P x 1) R_{k,k+1}(1/k) (P x 1)/(k+1) for direction "A" and the
    same with R_{k,k+1}(-1/k) for "S"; the 1/(k+1) is folded into the last
    product's one division.
    """
    if direction not in ("A", "S"):
        raise ValueError("direction must be 'A' or 'S'")
    n, k = proj.n, proj.k
    ext = proj.embed()
    arg = Q(1, k) if direction == "A" else Q(-1, k)
    r = r_matrix(k, k + 1, arg, k + 1, n)
    return _rational_mul(tm_mul(ext, r), ext, k + 1)


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


def t_leg(s, a, k, N, ctx):
    """T_s(u+a) on k legs over the (C^n)^{tensor k} of the yangian context
    ctx: leg s carries the generating matrix entries."""
    k, N = as_size(k, "k"), as_size(N, "order", 0)
    if not (1 <= s <= k):
        raise ValueError("leg index out of range")
    if ctx.kind != "yangian":
        raise ValueError("t_leg needs a yangian context")
    idx = range(1, ctx.n + 1)
    return matrix_on_leg([[t_series(ctx, i, j, a, N) for j in idx] for i in idx],
                         s, k, USeries.zero(N))


def matrix_on_leg(M, s, k, zero):
    """A square n x n matrix M (n = len(M), a list of rows) with entries in
    the ring of `zero` acting on leg s of k.  Rational entries are stored as
    `rationals.demote` gives them; an entry that is neither a rational nor an
    algebra element or carrier (a float) raises TypeError."""
    k = as_size(k, "k")
    if not (1 <= s <= k):
        raise ValueError("leg index out of range")
    n = len(M)
    if any(len(row) != n for row in M):
        raise ValueError(f"matrix must be square, got rows of lengths {[len(row) for row in M]}")
    M = [[v if isinstance(v, (AlgebraElement, SparseCoeffs)) else demote(v) for v in row]
         for row in M]
    pow_s = n ** (k - s)
    rows = {}
    for col in range(n ** k):
        j_s = (col // pow_s) % n
        base = col - j_s * pow_s
        for i_s in range(n):
            v = M[i_s][j_s]
            if v:
                rows.setdefault(base + i_s * pow_s, {})[col] = v
    return TensorMatrix(n, k, rows, zero)


# ---------------------------------------------------------------------------
# products and traces

def tm_mul(a, b):
    """Matrix product; entry order is preserved (left entry first).  Each
    output entry is one `sum_of_products` over its pairs of entries, except
    in a product of two rational matrices (`_rational_mul`)."""
    _check_shape(a, b)
    if type(a.zero) in RATIONAL_TYPES and type(b.zero) in RATIONAL_TYPES:
        return _rational_mul(a, b)
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
                acc[c] = _stored(s)
        if acc:
            rows_out[r] = acc
    return TensorMatrix(a.n, a.k, rows_out, _product_zero(a, b))


def _rational_mul(a, b, div=1):
    """The product of two rational matrices, divided by the int div, on
    ints: every row of a and of b is cleared of its denominators
    (`rationals.cleared`), an entry of a row of a is raised to the lcm db of
    the row denominators of b before it meets its row of b, so each row of
    the product accumulates in ints over one denominator, and each entry is
    divided by it (times div) once."""
    brows = {mid: cleared(row) for mid, row in b.rows.items()}
    db = lcm(*(d for _, d in brows.values()))
    rows_out = {}
    for r, row_a in a.rows.items():
        row_a, d = cleared(row_a)
        acc = {}
        for mid, va in row_a.items():
            got = brows.get(mid)
            if got is None:
                continue
            row_b, d_mid = got
            if d_mid != db:
                va *= db // d_mid
            for c, vb in row_b.items():
                acc[c] = acc.get(c, 0) + va * vb
        d *= db * div
        acc = {c: v if d == 1 else demote(Q(v, d)) for c, v in acc.items() if v}
        if acc:
            rows_out[r] = acc
    return TensorMatrix(a.n, a.k, rows_out, b.zero)


def trace_of_product(mats):
    """tr(M_1 M_2 ... M_k) for k >= 1 matrices of one shape.

    All but the last matrix are multiplied with `tm_mul`; of the product
    with the last only the diagonal pairs a[r][mid] * b[mid][r] are formed,
    in one `sum_of_products`, left factor first, so entries need not
    commute.  The ring's zero when no pair meets.
    """
    if not mats:
        raise ValueError("trace_of_product needs at least one matrix")
    if len(mats) == 1:
        return trace_full(mats[0])
    a, b = reduce(tm_mul, mats[:-1]), mats[-1]
    _check_shape(a, b)
    brows = b.rows
    tr = sum_of_products((va, vb) for r, row_a in a.rows.items()
                         for mid, va in row_a.items()
                         if (vb := brows.get(mid, {}).get(r)) is not None)
    return _product_zero(a, b) if tr is None else tr


def trace_full(a):
    """Sum of diagonal entries, a ring element."""
    acc = None
    for r, row in a.rows.items():
        v = row.get(r)
        if v is not None:
            acc = v if acc is None else acc + v
    return a.zero if acc is None else acc


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
            s = v if s is None else _stored(s + v)
            if s:
                dst[c_keep] = s
            elif c_keep in dst:
                del dst[c_keep]
    rows_out = {r: row for r, row in rows_out.items() if row}
    return TensorMatrix(n, k_out, rows_out, a.zero)
