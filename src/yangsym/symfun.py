"""Symmetric functions of the Yangian generating matrix.

Elementary, homogeneous and power-sum series; their shift-operator forms;
Bethe-subalgebra generators with a scalar twist; composition sums; Newton
identities; determinant formulas; the inverse of the alternating generating
operator; and Jacobi-Trudi style Schur series.

Each e/h pair is one body that takes the kind "e" or "h" and reads the
differences as data from `kind_step`: the u-shift step (-1 or +1), strict or
weak index sets, and signed minors or permanents.  `composition_weights`
gives the power-sum weights of both kinds as integer numerators over k!,
and `tau_form` attaches e_k or h_k to its tau degree.

Everything is computed in the exact engine: series coefficients are
AlgebraElements of the Yangian (one context per n, see `pbw`), and
identities are checked coefficient-by-coefficient.  Family values are cached
on (family, n, parameters, order).  The family cache also holds the leg
chains T_1(u) T_2(u+step) ... T_k(u+step(k-1)) (`leg_chain`), which the
`intertwining` and `eb-traces` checks share; `eb-traces`, their last reader
in suite order, releases them (`release_leg_chains`).

e_k, h_k and b_k are defined as traces over tensor powers of C^n of a
projector times ordered products of generating-matrix legs.  They are built
from products of generating-matrix entries instead: e_k as a sum of quantum
minors, h_k as a sum of quantum permanents, and b_k as quantum minors paired
with the complementary minors of the twist.  The trace definitions stay as
independent oracles (`prop_eB_traces`, `tau_direct`, the suites and tests).
The power sums are traces of plain matrix products, built as
`tensor.trace_of_product` of one-leg generating matrices.

The determinant layer is one memoized row expansion (`_row_expansion`):
`rdet` is its signed form over the columns of a matrix, and the quantum
minors and permanents expand the table of generating-matrix factors directly.
The Newton-type formulas (`det_formulas`, `h_minus`) are lower-Hessenberg
determinants from one builder (`_hessenberg_det`), and `schur_s` fills one
Jacobi-Trudi matrix for either route; e_k is schur_s((1,)*k, "h").
"""

from itertools import accumulate, combinations, combinations_with_replacement
from math import comb, factorial, prod

from .rationals import Q, demote
from .series import USeries, sum_of_products
from .tau import TauOperator
from .pbw import as_size, yangian_context
from .tensor import (TensorMatrix, permutation_sum, r_chain, t_leg, t_series, tm_mul,
                     trace_of_product)


# ---------------------------------------------------------------------------
# small combinatorial carriers: compositions are plain tuples of positive
# parts; partitions and twists are validated on construction

def compositions(k):
    """All 2^(k-1) compositions of k as tuples of parts, in a fixed order."""
    k = as_size(k, "k")
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
        out.append(tuple(parts))
    return out


class Partition:
    """Weakly decreasing non-negative integer parts; trailing zeros are
    dropped."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        parts = [as_size(p, "partition part", 0) for p in parts]
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError("partition parts must be weakly decreasing")
        while parts and parts[-1] == 0:
            parts.pop()
        self.parts = tuple(parts)

    def conjugate(self):
        if not self.parts:
            return Partition(())
        cols = self.parts[0]
        return Partition(tuple(sum(1 for p in self.parts if p >= c)
                               for c in range(1, cols + 1)))

    def __len__(self):
        return len(self.parts)

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __repr__(self):
        return f"Partition{self.parts}"


class BetheTwist:
    """A rational n x n twist matrix."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        n = len(matrix)
        if any(len(row) != n for row in matrix):
            raise ValueError("twist must be square")
        self.matrix = tuple(tuple(demote(v) for v in row) for row in matrix)

    @classmethod
    def identity(cls, n):
        n = as_size(n)
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def random(cls, n, rng):
        """Random integer-entried twist (entries in [-5, 5], not all zero)."""
        n = as_size(n)
        while True:
            m = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            if any(v for row in m for v in row):
                return cls(m)


# ---------------------------------------------------------------------------
# caching

_CACHE = {}


def cached(key, builder):
    """The value of `key` in the family cache, built by `builder()` on a miss.
    A builder that raises stores nothing.  Values are shared between callers
    and never modified in place."""
    val = _CACHE.get(key)
    if val is None:
        val = _CACHE[key] = builder()
    return val


# bench/tracer.py wraps the family cache by this name (and rebinds every
# module attribute bound to the same function), so the name stays until the
# benchmark changes.
_cached = cached


def cached_projector(kind, k, n):
    """k!*A_k (kind "A") or k!*S_k (kind "S") on (C^n)^{tensor k}, int entries."""
    k, n = as_size(k, "k"), as_size(n)
    return cached(("proj", kind, k, n), lambda: permutation_sum(k, n, signed=kind == "A"))


def leg_chain(k, step, n, N):
    """The leg chain T_1(u) T_2(u+step) ... T_k(u+step(k-1)) on k legs, step
    -1 or +1: the chain on k - 1 legs, embedded, times the last leg.  Both
    readers, the `intertwining` and `eb-traces` checks, take it from the
    family cache, where it stays until `release_leg_chains`."""
    n, k, N = as_size(n), as_size(k, "k"), as_size(N, "order", 0)
    if step not in (1, -1):
        raise ValueError("step must be +1 or -1")

    def build():
        last = t_leg(k, step * (k - 1), k, N, yangian_context(n))
        return last if k == 1 else tm_mul(leg_chain(k - 1, step, n, N).embed(), last)

    return cached(("chain", n, k, step, N), build)


def release_leg_chains():
    """Drop every leg chain from the family cache.  The cache dict is changed
    in place, not replaced, since it is shared by reference."""
    for key in [key for key in _CACHE if key[0] == "chain"]:
        del _CACHE[key]


def unit_series(n, N):
    return USeries.const(yangian_context(n).one(), N)


# ---------------------------------------------------------------------------
# the three families

def _quantum_minor(rows, cols, step, signed, n, N):
    """Sum over the distinct rearrangements b of the sorted tuple `rows` of
    [sgn b] t_{b_1 c_1}(u) t_{b_2 c_2}(u+step) ... t_{b_k c_k}(u+step(k-1)),
    where c = cols: the row expansion of the factors t_{r c_p}(u + step p).
    """
    ctx = yangian_context(n)
    table = [{r: t_series(ctx, r, c, step * p, N) for r in dict.fromkeys(rows)}
             for p, c in enumerate(cols)]
    return _row_expansion(table, tuple(rows), signed) or USeries.zero(N)


def kind_step(kind):
    """The u-shift step of a family kind: -1 for the elementary "e" (strict
    index sets, signed quantum minors, falling arguments), +1 for the
    homogeneous "h" (weak index sets, quantum permanents, rising arguments).
    Each e/h identity is one statement read at either step."""
    if kind not in ("e", "h"):
        raise ValueError("kind must be 'e' or 'h'")
    return -1 if kind == "e" else 1


def _minor_sum(kind, k, n, N):
    """The sum over the index sets a of quantum minors (kind "e") or quantum
    permanents (kind "h") on rows = columns a, with factors at u, u+step, ...;
    one term per distinct rearrangement of the rows, no 1/k!."""
    n, k, N = as_size(n), as_size(k, "k", 0), as_size(N, "order", 0)
    if k == 0:
        return unit_series(n, N)
    step = kind_step(kind)
    index_sets = combinations if step < 0 else combinations_with_replacement

    def build():
        return sum((_quantum_minor(a, a, step, step < 0, n, N)
                    for a in index_sets(range(1, n + 1), k)), USeries.zero(N))

    return cached((kind, n, k, N), build)


def elem_e(k, n, N):
    """e_k(u) = tr(A_k T_1(u) T_2(u-1) ... T_k(u-k+1)); zero for k > n.

    Built as the sum of the quantum minors on rows = columns a_1 < ... < a_k.
    """
    return _minor_sum("e", k, n, N)


def homog_h(k, n, N):
    """h_k(u) = tr(S_k T_1(u) T_2(u+1) ... T_k(u+k-1)).

    Built as the sum of the quantum permanents on a_1 <= ... <= a_k.
    """
    return _minor_sum("h", k, n, N)


def power_p(k, sign, n, N):
    """Trace of the plain matrix product T(u) T(u+sign) ... T(u+sign*(k-1))."""
    n, k, N = as_size(n), as_size(k, "k"), as_size(N, "order", 0)
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")

    def build():
        ctx = yangian_context(n)
        return trace_of_product([t_leg(1, sign * s, 1, N, ctx) for s in range(k)])

    return cached(("p", n, k, sign, N), build)


# ---------------------------------------------------------------------------
# shift-operator forms

def tau_form(kind, k, n, N):
    """e_k(u) attached to tau^{-k} for kind "e", or h_k(u) attached to
    tau^{+k} for kind "h"; `tau_direct` is its oracle."""
    step = kind_step(kind)
    family = elem_e if step < 0 else homog_h
    return TauOperator.from_series(family(k, n, N), step * k)


def p_tau(k, sign, n, N):
    """p^sign_k(u) attached to tau^{sign*k}."""
    return TauOperator.from_series(power_p(k, sign, n, N), sign * k)


def _tau_trace(left, d, legs, k, n, N):
    """(1/k!) tr(left (T(u) tau^d)_{legs[0]} ... (T(u) tau^d)_{legs[-1]}) on k
    legs, left k! times a projector (the identity on one leg), in the
    shift-operator calculus, not the closed forms; an oracle for `tau_form`
    and p_tau.  Of the product with the last leg only the diagonal is formed."""
    ctx = yangian_context(n)
    tau_legs = [TensorMatrix(n, k, {
        r: {c: TauOperator.from_series(v, d) for c, v in row.items()}
        for r, row in t_leg(s, 0, k, N, ctx).rows.items()}, TauOperator.zero()) for s in legs]
    return trace_of_product([left, *tau_legs]).scale(Q(1, factorial(k)))


def tau_direct(kind, k, n, N):
    """tr(A_k (T(u) tau^{-1})_1 ... (T(u) tau^{-1})_k) for kind "e", or
    tr(S_k (T(u) tau^{+1})_1 ... (T(u) tau^{+1})_k) for kind "h"."""
    step = kind_step(kind)
    proj = cached_projector("A" if step < 0 else "S", k, n)
    return _tau_trace(proj, step, range(1, k + 1), k, n, N)


def p_tau_direct(k, sign, n, N):
    """tr((T(u) tau^{sign})^k) on a single leg."""
    return _tau_trace(TensorMatrix.identity(n, 1), sign, [1] * k, 1, n, N)


# ---------------------------------------------------------------------------
# Bethe generators

def bethe_b(k, Z, n, N):
    """b_k(u) = tr(A_n T_1(u) ... T_k(u-k+1) Z_{k+1} ... Z_n) over n legs.

    Built as C(n,k)^{-1} sum_{|I|=|J|=k} (-1)^{sum I + sum J} T^I_J(u)
    det Z^{I^c}_{J^c}, with T^I_J the quantum minor on rows I and columns J
    and det 1 for the empty minor at k = n.
    """
    n, k = as_size(n), as_size(k, "k")
    if k > n:
        raise ValueError(f"need k <= n, got k={k}, n={n}")
    Zm = (Z if isinstance(Z, BetheTwist) else BetheTwist(Z)).matrix
    if len(Zm) != n:
        raise ValueError(f"twist must be {n} x {n}, got {len(Zm)} x {len(Zm)}")
    idx = range(1, n + 1)
    acc = USeries.zero(N)
    for I in combinations(idx, k):
        Ic = [i for i in idx if i not in I]
        for J in combinations(idx, k):
            Jc = [j for j in idx if j not in J]
            c = rdet([[Zm[i - 1][j - 1] for j in Jc] for i in Ic]) if Ic else 1
            if c:
                c = -c if (sum(I) + sum(J)) % 2 else c
                acc = acc + _quantum_minor(I, J, -1, True, n, N).scale(c)
    return acc.scale(Q(1, comb(n, k)))


def prop_eB_traces(k, variant, n, N):
    """The four alternative trace presentations.

    1: tr(B^-_k T_1(u)...T_k(u-k+1))   -> e_k(u)
    2: tr(B^+_k T_1(u)...T_k(u+k-1))   -> h_k(u)
    3: tr(A_k  T_1(u)...T_k(u+k-1))    -> e_k(u+k-1)
    4: tr(S_k  T_1(u)...T_k(u-k+1))    -> h_k(u-k+1)

    The trace of the integral k! times B^-_k, B^+_k, A_k or S_k against the
    leg chain of its step (`leg_chain`: -1 for variants 1 and 4, +1 for 2
    and 3), forming only the diagonal of that product, divided by k! once.
    """
    if variant not in (1, 2, 3, 4):
        raise ValueError("variant must be 1..4")
    step = -1 if variant in (1, 4) else 1
    chain = leg_chain(k, step, n, N)
    if variant in (3, 4):
        left = cached_projector("A" if variant == 3 else "S", k, n)
    else:
        left = TensorMatrix.identity(n, k) if k == 1 else r_chain(k, step, k, n)
    return trace_of_product([left, chain]).scale(Q(1, factorial(k)))


# ---------------------------------------------------------------------------
# composition sums and Newton identities

def composition_weights(k, kind):
    """Each composition lam = (l_1, ..., l_m) of k with the integer numerator
    over k! of its weight in the power-sum expansion of e_k (kind "e") or h_k
    (kind "h"): the weight is (-1)^{k-m}/(a_1...a_m) or 1/(a_1...a_m),
    a_1 < ... < a_m = k the prefix sums of lam, distinct parts of k!, so
    their product divides k!.  At p_i = 1 the weights sum to
    e_k = delta_{k,1} and h_k = 1: the numerators to k! delta_{k,1} and k!."""
    k = as_size(k, "k")
    step, top = kind_step(kind), factorial(k)
    return ((lam, step ** (k - len(lam)) * (top // prod(accumulate(lam))))
            for lam in compositions(k))


def composition_sum(k, kind, n, N):
    """Sum over compositions of k of weighted products of power sums (tau
    form): the products are summed with the integer numerators of
    `composition_weights`, and the sum is divided by k! once."""
    step = kind_step(kind)
    total = None
    for lam, weight in composition_weights(k, kind):
        term = None
        for part in lam:
            f = p_tau(part, step, n, N)
            term = f if term is None else term * f
        if weight != 1:
            term = term.scale(weight)
        total = term if total is None else total + term
    return total if k == 1 else total.scale(Q(1, factorial(k)))


def newton_check(m, kind, n, N):
    """Both sides of the Newton identity at degree m in the tau forms,
    m e_m = sum_k (-1)^{m-k-1} e_k p^-_{m-k} or m h_m = sum_k h_k p^+_{m-k}
    (k < m); returns (the sum, m e_m or m h_m)."""
    m = as_size(m, "m")
    step = kind_step(kind)
    lhs = None
    for k in range(m):
        term = tau_form(kind, k, n, N) * p_tau(m - k, step, n, N)
        if step ** (m - k - 1) < 0:
            term = -term
        lhs = term if lhs is None else lhs + term
    return lhs, tau_form(kind, m, n, N).scale(m)


# ---------------------------------------------------------------------------
# row determinants and determinant formulas

def _row_expansion(table, labels, signed):
    """Sum over the distinct rearrangements b of the sorted tuple `labels` of
    [sgn b] table[0][b_0] table[1][b_1] ..., factors kept in order; None if
    the sum is zero.

    Expands along the first factor and memoizes on the labels still to place:
    O(m 2^m) products for m distinct labels instead of m! m.  A repeated label
    (permanents only) is placed once per value; zero entries and zero minors
    are skipped.  Every product keeps the factor order, so the entries need
    not commute.
    """
    m = len(labels)
    memo = {}

    def rest(left):
        if left in memo:
            return memo[left]
        p = m - len(left)
        if p == m - 1:
            acc = table[p][left[0]]
        else:
            pairs = []
            for pos, b in enumerate(left):
                if pos and left[pos - 1] == b:
                    continue
                v = table[p][b]
                sub = rest(left[:pos] + left[pos + 1:]) if v else None
                if sub is not None:
                    pairs.append((-v if signed and pos % 2 else v, sub))
            acc = sum_of_products(pairs)
        memo[left] = acc if acc else None
        return memo[left]

    return rest(labels)


def rdet(rows):
    """Row determinant sum_sigma sgn(sigma) a_{1,sigma(1)} ... a_{m,sigma(m)},
    the signed row expansion over the column labels."""
    m = len(rows)
    if any(len(r) != m for r in rows):
        raise ValueError("rdet needs a square matrix")
    if m == 0:
        raise ValueError("rdet of an empty matrix")
    acc = _row_expansion(rows, tuple(range(m)), True)
    if acc is None:
        z = rows[0][0]
        return z - z if not isinstance(z, int) else 0
    return acc


def _hessenberg_det(m, sup, entry, n, N):
    """rdet of the m x m lower-Hessenberg matrix with entry(i, j) for j <= i,
    sup(i) times the unit at (i, i+1) and zeros above (1-based i, j)."""
    one = unit_series(n, N)
    zero = USeries.zero(N)
    return rdet([[entry(i, j) if j <= i else one.scale(sup(i)) if j == i + 1 else zero
                  for j in range(1, m + 1)] for i in range(1, m + 1)])


def det_formulas(m, which, n, N):
    """One of the four determinant presentations, normalized to its target.

    e_from_p -> e_m(u); h_from_p -> h_m(u); p_from_e -> p^-_m(u);
    p_from_h -> p^+_m(u).
    """
    m = as_size(m, "m")

    def powers(sign):
        return lambda i, j: power_p(i - j + 1, sign, n, N).shift(sign * (j - 1))

    def weighted(family, sign):
        # the degree weight sits on the last row (the factor the Newton
        # recursion attaches to the final part)
        def entry(i, j):
            s = family(i - j + 1, n, N).shift(sign * (j - 1))
            return s.scale(i - j + 1) if i == m else s
        return entry

    formulas = {  # which: (superdiagonal, entry, final scalar)
        "e_from_p": (lambda i: i, powers(-1), Q(1, factorial(m))),
        "h_from_p": (lambda i: -i, powers(+1), Q(1, factorial(m))),
        "p_from_e": (lambda i: 1, weighted(elem_e, -1), 1),
        "p_from_h": (lambda i: 1, weighted(homog_h, +1), (-1) ** (m - 1)),
    }
    if which not in formulas:
        raise ValueError(f"unknown determinant formula {which!r}")
    sup, entry, scalar = formulas[which]
    return _hessenberg_det(m, sup, entry, n, N).scale(scalar)


# ---------------------------------------------------------------------------
# the inverse generating operator

def h_minus(m, n, N):
    """h^-_m(u) from its determinant in downward power sums at climbing
    arguments: entry (i,j) is p^-_{i-j+1}(u+i-1) for j <= i, the superdiagonal
    entry of row i is -i, zeros above."""
    n, m, N = as_size(n), as_size(m, "m", 0), as_size(N, "order", 0)
    if m == 0:
        return unit_series(n, N)

    def build():
        return _hessenberg_det(m, lambda i: -i,
                               lambda i, j: power_p(i - j + 1, -1, n, N).shift(i - 1),
                               n, N).scale(Q(1, factorial(m)))

    return cached(("h_minus", n, m, N), build)


def h_minus_from_inverse(m, n, N):
    """h^-_m(u) as the unique solution of the inverse identity; independent
    cross-check of the determinant layout."""
    m = as_size(m, "m", 0)
    hs = [unit_series(n, N)]
    for t in range(1, m + 1):
        hs.append(sum_of_products((elem_e(k, n, N).shift(t - 1).scale((-1) ** (k + 1)),
                                   hs[t - k]) for k in range(1, min(n, t) + 1)))
    return hs[m]


def gen_E(n, N):
    """The alternating generating operator sum_k (-1)^k e_k(u) tau^{-k}."""
    n = as_size(n)
    acc = TauOperator.zero()
    for k in range(n + 1):
        acc = acc + tau_form("e", k, n, N).scale((-1) ** k)
    return acc


def gen_Hminus(L, n, N):
    """sum_{l=0..L} tau^{-l} h^-_l(u), normalized with coefficients on the left."""
    L = as_size(L, "L", 0)
    acc = TauOperator.zero()
    for l in range(L + 1):
        acc = acc + TauOperator.from_series(h_minus(l, n, N).shift(-l), -l)
    return acc


# ---------------------------------------------------------------------------
# Schur series

def schur_s(lam, via, n, N):
    """Schur series for a partition by Jacobi-Trudi: det[h^-_{lam_i-i+j}(u-j+1)]
    via "h", or det[e_{lam'_i-i+j}(u+j-1)] over the conjugate partition via
    "e" (0-based i, j; the unit on d = 0 and zeros below)."""
    if not isinstance(lam, Partition):
        lam = Partition(lam)
    if len(lam) == 0:
        raise ValueError("partition must be non-empty")
    if via == "h":
        parts, family, sign = lam.parts, h_minus, -1
    elif via == "e":
        parts, family, sign = lam.conjugate().parts, elem_e, 1
    else:
        raise ValueError("via must be 'h' or 'e'")
    one = unit_series(n, N)
    zero = USeries.zero(N)

    def entry(i, j):
        d = parts[i] - i + j
        return family(d, n, N).shift(sign * j) if d > 0 else one if d == 0 else zero

    k = len(parts)
    return rdet([[entry(i, j) for j in range(k)] for i in range(k)])
