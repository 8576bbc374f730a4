from functools import reduce
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from yangsym.rationals import Q, QZERO, binomial
from yangsym.series import USeries, sum_of_products
from yangsym.tau import TauOperator
from yangsym.pbw import free_context, yangian_context
from yangsym.tensor import (
    RingSpec,
    TensorMatrix,
    algebra_ring,
    antisymmetrizer,
    b_factor,
    fusion_step,
    matrix_on_leg,
    perm_op,
    r_matrix,
    symmetrizer,
    t_leg,
    t_product,
    tm_mul,
    trace_full,
    trace_partial,
    trace_tm_mul,
)


def test_swap_matrix_entries():
    P = perm_op(1, 2, 2, 2)
    # basis order 11, 12, 21, 22
    expected = {(0, 0), (1, 2), (2, 1), (3, 3)}
    got = {(r, c) for r, row in P.rows.items() for c, v in row.items() if v}
    assert got == expected
    assert all(P.entry(r, c) == 1 for r, c in expected)


def test_swap_is_involution():
    for n, k, l, m in [(2, 2, 1, 2), (3, 3, 1, 3), (2, 4, 2, 3)]:
        P = perm_op(l, m, k, n)
        assert tm_mul(P, P).equal(TensorMatrix.identity(n, k))


def test_three_cycle_composition_oracle():
    # compose the two swaps directly on basis indices
    n, k = 3, 3
    lhs = tm_mul(perm_op(1, 3, k, n), perm_op(1, 2, k, n))
    for col in range(n ** k):
        digits = [(col // n ** (k - 1 - t)) % n for t in range(k)]
        # (1 2) then (1 3): position images 1->2->2? track vector slots
        after12 = [digits[1], digits[0], digits[2]]
        after = [after12[2], after12[1], after12[0]]
        row = after[0] * n * n + after[1] * n + after[2]
        assert lhs.entry(row, col) == 1
        assert sum(1 for r in lhs.rows if lhs.entry(r, col)) == 1


def test_perm_out_of_range():
    with pytest.raises(ValueError):
        perm_op(2, 2, 3, 2)
    with pytest.raises(ValueError):
        perm_op(1, 4, 3, 2)


def test_r_matrix_basics():
    R = r_matrix(1, 2, 1, 2, 2)
    A2 = antisymmetrizer(2, 2)
    assert R.equal(A2.scale(2))
    with pytest.raises(ValueError):
        r_matrix(1, 2, 0, 2, 2)


def test_r_matrix_unitarity():
    for c in (Q(1), Q(2), Q(1, 2), Q(-3)):
        prod = tm_mul(r_matrix(1, 2, c, 2, 3), r_matrix(1, 2, -c, 2, 3))
        expected = TensorMatrix.identity(3, 2).scale(1 - 1 / (c * c))
        assert prod.equal(expected)


def test_r_matrix_vanishes_for_single_dimension():
    assert r_matrix(1, 2, 1, 2, 1).is_zero()


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_projector_methods_and_traces(n, k):
    A = {m: antisymmetrizer(k, n, m) for m in ("group_sum", "fusion", "b_product")}
    S = {m: symmetrizer(k, n, m) for m in ("group_sum", "fusion", "b_product")}
    assert A["group_sum"].equal(A["fusion"])
    assert A["group_sum"].equal(A["b_product"])
    assert S["group_sum"].equal(S["fusion"])
    assert S["group_sum"].equal(S["b_product"])
    assert tm_mul(A["group_sum"], A["group_sum"]).equal(A["group_sum"])
    assert tm_mul(S["group_sum"], S["group_sum"]).equal(S["group_sum"])
    assert trace_full(A["group_sum"]) == binomial(n, k)
    assert trace_full(S["group_sum"]) == binomial(n + k - 1, k)


def test_explicit_three_leg_factorizations():
    for n in (2, 3):
        A3 = antisymmetrizer(3, n)
        fused = tm_mul(tm_mul(r_matrix(2, 3, 1, 3, n), r_matrix(1, 3, 2, 3, n)),
                       r_matrix(1, 2, 1, 3, n)).scale(Q(1, 6))
        chained = tm_mul(tm_mul(r_matrix(1, 2, 1, 3, n), r_matrix(2, 3, Q(1, 2), 3, n)),
                         r_matrix(1, 2, 1, 3, n)).scale(Q(1, 12))
        assert A3.equal(fused)
        assert A3.equal(chained)


def test_b_factor_products():
    for n in (2, 3):
        for k in (2, 3, 4):
            accA = TensorMatrix.identity(n, k)
            accS = TensorMatrix.identity(n, k)
            for l in range(2, k + 1):
                accA = tm_mul(accA, b_factor(l, -1, k, n))
                accS = tm_mul(accS, b_factor(l, +1, k, n))
            assert accA.equal(antisymmetrizer(k, n))
            assert accS.equal(symmetrizer(k, n))


def test_fusion_step_chain():
    for n in (2, 3):
        proj = TensorMatrix.identity(n, 1)
        for k in range(2, 5):
            proj = fusion_step(proj, "A")
            assert proj.equal(antisymmetrizer(k, n))
    assert fusion_step(TensorMatrix.identity(2, 1), "A").equal(
        antisymmetrizer(2, 2))


def test_fusion_beyond_top_degree_vanishes():
    for n in (2, 3):
        assert fusion_step(antisymmetrizer(n, n), "A").is_zero()
        assert antisymmetrizer(n + 1, n).is_zero()


def test_t_leg_constant_term_is_identity():
    ctx = yangian_context(2)
    T = t_leg(1, 0, 2, 2, ctx)
    for col in range(4):
        for row in range(4):
            c = T.entry(row, col)
            if isinstance(c, USeries):
                assert c.coeff(0) == (ctx.one() if row == col else 0)


def test_t_leg_level_one_entries():
    ctx = yangian_context(2)
    T = t_leg(1, 0, 1, 1, ctx)
    for i in (1, 2):
        for j in (1, 2):
            s = T.entry(i - 1, j - 1)
            assert s.coeff(1) == ctx.t(1, i, j)


def test_t_leg_shift_oracle():
    # entry (1,1) of T(u-1) at order 2: 1 + t1 u^-1 + (t1+t2) u^-2
    ctx = yangian_context(2)
    T = t_leg(1, -1, 1, 2, ctx)
    s = T.entry(0, 0)
    assert s.coeff(0) == ctx.one()
    assert s.coeff(1) == ctx.t(1, 1, 1)
    assert s.coeff(2) == ctx.t(1, 1, 1) + ctx.t(2, 1, 1)


def test_trace_full_identity():
    assert trace_full(TensorMatrix.identity(3, 3)) == 27


def test_partial_trace_of_swap():
    P = perm_op(1, 2, 2, 3)
    assert trace_partial(P, [2]).equal(TensorMatrix.identity(3, 1))
    assert trace_partial(P, [1]).equal(TensorMatrix.identity(3, 1))


def test_partial_trace_projector_factor():
    # contraction of the last leg rescales the smaller projector by (n-m)/(m+1)
    for n in (2, 3):
        for m in range(1, n):
            tr = trace_partial(antisymmetrizer(m + 1, n), [m + 1])
            expected = antisymmetrizer(m, n).scale(Q(n - m, m + 1))
            assert tr.equal(expected)
    # explicit values
    assert trace_partial(antisymmetrizer(2, 3), [2]).equal(
        TensorMatrix.identity(3, 1).scale(Q(1)))
    assert trace_partial(antisymmetrizer(3, 3), [3]).equal(
        antisymmetrizer(2, 3).scale(Q(1, 3)))


def test_partial_trace_arbitrary_subset():
    A = antisymmetrizer(3, 2)
    assert trace_full(trace_partial(A, [1, 3])) == trace_full(A)
    assert trace_partial(A, [1, 2, 3]).k == 0


def test_trace_lemma_on_free_entries():
    # tr(P_{k-1,k}...P_{1,2} (X1)_1...(Xk)_k) = tr(X1 X2 ... Xk)
    n = 2
    for k in (2, 3, 4):
        fc = free_context(k * n * n)
        ring = algebra_ring(fc)
        mats = [[[fc.gen(s * n * n + i * n + j) for j in range(n)]
                 for i in range(n)] for s in range(k)]
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
            prod = [[sum((prod[i][t] * M[t][j] for t in range(n)), fc.zero())
                     for j in range(n)] for i in range(n)]
        rhs = sum((prod[i][i] for i in range(n)), fc.zero())
        assert lhs == rhs


def test_intertwining_small():
    # A_2 T1(u) T2(u-1) = T2(u-1) T1(u) A_2 at order 2
    n, N, k = 2, 2, 2
    ctx = yangian_context(n)
    A = antisymmetrizer(k, n)
    lhs = t_product([0, -1], N, ctx, left=A)
    rhs = tm_mul(tm_mul(t_leg(2, -1, k, N, ctx), t_leg(1, 0, k, N, ctx)), A)
    assert lhs.equal(rhs)


def _from_entries(n, k, entry):
    """The matrix with entry(r, c) at (r, c), drawn row by row; zeros are not stored."""
    rows = {}
    for r in range(n ** k):
        for c in range(n ** k):
            v = entry(r, c)
            if v:
                rows.setdefault(r, {})[c] = v
    return TensorMatrix(n, k, rows)


def test_trace_is_cyclic_for_commuting_entries():
    import random
    rng = random.Random(5)
    n, k = 2, 2
    for _ in range(5):
        a, b = (_from_entries(n, k, lambda r, c: Q(rng.randint(-3, 3))) for _ in range(2))
        assert trace_full(tm_mul(a, b)) == trace_full(tm_mul(b, a))


def test_tm_mul_shape_mismatch():
    with pytest.raises(ValueError):
        tm_mul(TensorMatrix.identity(2, 2), TensorMatrix.identity(2, 3))


def test_t_leg_reads_n_from_its_context():
    # the trace of T(u) over gl_3 reaches the third diagonal generator
    ctx = yangian_context(3)
    T = t_leg(1, 0, 1, 2, ctx)
    assert T.n == 3
    assert trace_full(T).coeff(1) == ctx.t(1, 1, 1) + ctx.t(1, 2, 2) + ctx.t(1, 3, 3)
    assert t_product([0, -1, -2], 2, ctx).k == 3


# -- stored form: no zero entries, no empty rows ---------------------------------

_ENTRIES = st.sampled_from([Q(0), Q(0), Q(1), Q(-1), Q(1, 2), Q(-3, 2)])


@st.composite
def _matrix_pairs(draw):
    n = draw(st.integers(1, 3))
    k = draw(st.integers(1, 2 if n == 3 else 3))

    return tuple(_from_entries(n, k, lambda r, c: draw(_ENTRIES)) for _ in range(2))


def _assert_pruned(m):
    for row in m.rows.values():
        assert row
        assert all(v for v in row.values())


def _entrywise_equal(a, b):
    dim = a.n ** a.k
    return all(a.entry(r, c) == b.entry(r, c) for r in range(dim) for c in range(dim))


@settings(max_examples=40, deadline=None)
@given(pair=_matrix_pairs(), data=st.data())
def test_operations_keep_the_stored_form(pair, data):
    a, b = pair
    n, k = a.n, a.k
    q = data.draw(_ENTRIES)
    legs = data.draw(st.sets(st.integers(1, k)))
    sigma = data.draw(st.sampled_from(list(permutations(range(1, k + 1)))))
    results = [a.scale(q), a + b, a - b, a - a, tm_mul(a, b), a.embed(),
               trace_partial(a, legs), TensorMatrix.from_permutation(sigma, k, n, q)]
    for m in results:
        _assert_pruned(m)
    assert (a - a).is_zero() and (a - a).equal(TensorMatrix(n, k))
    assert a.equal(b) == _entrywise_equal(a, b) == (a - b).is_zero()


# -- the trace of a product from its diagonal pairs -------------------------------

@settings(max_examples=40, deadline=None)
@given(pair=_matrix_pairs())
def test_trace_tm_mul_of_rational_matrices(pair):
    a, b = pair
    assert trace_tm_mul(a, b) == trace_full(tm_mul(a, b))


def _free_series_leg(fc, s, k, n, N):
    """A leg on k legs whose entry (i, j) holds at each u^{-m}, m >= 1, a
    generator of the free algebra fc of its own, so no two entries commute."""
    first = (s - 1) * N * n * n
    M = [[USeries(N, {m: fc.gen(first + (m - 1) * n * n + i * n + j) for m in range(1, N + 1)})
          for j in range(n)] for i in range(n)]
    return matrix_on_leg(M, s, k, RingSpec(USeries.zero(N)))


def _swapped_trace(a, b):
    """sum of b[mid][r] * a[r][mid]: the diagonal pairs with the factors swapped."""
    return sum_of_products((b.entry(mid, r), va) for r, row in a.rows.items()
                           for mid, va in row.items() if b.entry(mid, r))


@pytest.mark.parametrize("k", [2, 3])
def test_trace_tm_mul_keeps_the_factor_order_of_noncommuting_series(k):
    n, N = 2, 2
    fc = free_context(k * N * n * n)
    legs = [_free_series_leg(fc, s, k, n, N) for s in range(1, k + 1)]
    a = reduce(tm_mul, legs[:-1], antisymmetrizer(k, n))
    tr = trace_tm_mul(a, legs[-1])
    assert tr == trace_full(tm_mul(a, legs[-1]))
    assert tr != _swapped_trace(a, legs[-1])  # the entries do not commute
    # a rational factor on the right
    S = symmetrizer(k, n)
    assert trace_tm_mul(tm_mul(a, legs[-1]), S) == trace_full(tm_mul(tm_mul(a, legs[-1]), S))


def test_trace_tm_mul_of_yangian_legs():
    n, N, k = 2, 3, 2
    ctx = yangian_context(n)
    a = tm_mul(antisymmetrizer(k, n), t_leg(1, 0, k, N, ctx))
    b = t_leg(2, -1, k, N, ctx)
    tr = trace_tm_mul(a, b)
    assert tr == trace_full(tm_mul(a, b)) == trace_full(t_product([0, -1], N, ctx,
                                                                   left=antisymmetrizer(k, n)))


def test_trace_tm_mul_of_shift_operators():
    n, N, k = 2, 3, 2
    ctx = yangian_context(n)
    ring = RingSpec(TauOperator.zero())

    def tau_leg(s, d):
        return TensorMatrix(n, k, {
            r: {c: TauOperator.from_series(v, d) for c, v in row.items()}
            for r, row in t_leg(s, 0, k, N, ctx).rows.items()}, ring)

    for d in (-1, 1):
        a = tm_mul(antisymmetrizer(k, n), tau_leg(1, d))
        tr = trace_tm_mul(a, tau_leg(2, d))
        assert isinstance(tr, TauOperator) and tr
        assert tr == trace_full(tm_mul(a, tau_leg(2, d)))


@pytest.mark.parametrize("zero,one", [
    (QZERO, 1),
    (USeries.zero(3), USeries.const(1, 3)),
    (TauOperator.zero(), TauOperator.from_series(USeries.const(1, 3), 1)),
], ids=["rational", "series", "tau"])
def test_trace_tm_mul_without_diagonal_pairs_is_the_ring_zero(zero, one):
    ring = RingSpec(zero, rational=zero is QZERO)
    empty = TensorMatrix(2, 2, ring=ring)
    corner = TensorMatrix(2, 2, {0: {1: one}}, ring)  # a[0][1]; b has no row 1 back to 0
    for a, b in ((empty, empty), (TensorMatrix.identity(2, 2), empty), (corner, corner)):
        tr = trace_tm_mul(a, b)
        assert type(tr) is type(zero) and tr == zero == trace_full(tm_mul(a, b))
        if isinstance(zero, USeries):
            assert tr.order == zero.order


def test_trace_tm_mul_shape_mismatch():
    with pytest.raises(ValueError):
        trace_tm_mul(TensorMatrix.identity(2, 2), TensorMatrix.identity(2, 3))
