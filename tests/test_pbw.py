import gc
import random
import weakref
from contextlib import contextmanager
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

from yangsym import pbw, symfun
from yangsym.capelli import default_weight_grid
from yangsym.rationals import Q
from yangsym.pbw import (
    AlgebraContext,
    AlgebraElement,
    RewriteSystem,
    free_context,
    gl_context,
    yangian_context,
    yangian_commutator_words,
    encode_e,
    encode_t,
    max_level,
)
from yangsym.serialize import algebra_element_jsonable
from yangsym.series import SparseCoeffs, USeries
from yangsym.suites import (
    SUITES,
    SuiteConfig,
    _check_termination,
    _one_step_results,
    _proportionality,
    run_suite,
    run_suites,
)
from yangsym.symfun import BetheTwist, bethe_b
from yangsym.tensor import (
    TensorMatrix,
    antisymmetrizer,
    fusion_step,
    permutation_sum,
    r_chain,
    r_matrix,
    symmetrizer,
    trace_partial,
)


# -- independent oracle: the defining exchange relation, expanded in a free
#    double series with its own index bookkeeping ----------------------------

def _tgen(ctx, r, i, j):
    """t^{(r)}_{ij} as an element; level 0 is the scalar delta."""
    if r == 0:
        return ctx.one() if i == j else ctx.zero()
    return ctx.t(r, i, j)


def _pair(ctx, first, second):
    return _tgen(ctx, *first) * _tgen(ctx, *second)


def _exchange_equation_holds(ctx, n, i, j, k, l, a, b):
    # coefficient of u^{-a} v^{-b} after clearing the Yang-matrix denominator:
    # [t^(a+1)_ij, t^(b)_kl] - [t^(a)_ij, t^(b+1)_kl]
    #   = (P T1 T2 - T2 T1 P) entry ((i,k),(j,l)) at those powers
    def comm(r, s):
        x, y = _tgen(ctx, r, i, j), _tgen(ctx, s, k, l)
        return x * y - y * x

    lhs = comm(a + 1, b) - comm(a, b + 1)
    rhs = _pair(ctx, (a, k, j), (b, i, l)) - _pair(ctx, (b, k, j), (a, i, l))
    return lhs == rhs


@pytest.mark.parametrize("n", [1, 2, 3])
def test_engine_satisfies_exchange_relation(n):
    ctx = yangian_context(n)
    idx = range(1, n + 1)
    for a in range(0, 3):
        for b in range(0, 3):
            for i in idx:
                for j in idx:
                    for k in idx:
                        for l in idx:
                            assert _exchange_equation_holds(ctx, n, i, j, k, l, a, b)


def test_level_one_commutator_closed_form():
    n = 2
    ctx = yangian_context(n)
    d = lambda a, b: 1 if a == b else 0
    for i in (1, 2):
        for j in (1, 2):
            for k in (1, 2):
                for l in (1, 2):
                    x, y = ctx.t(1, i, j), ctx.t(1, k, l)
                    expected = d(k, j) * ctx.t(1, i, l) - d(i, l) * ctx.t(1, k, j)
                    assert x * y - y * x == expected


def test_mixed_level_commutators_agree():
    # the (1,1)-power coefficient forces [t^(2), t^(1)] = [t^(1), t^(2)]
    ctx = yangian_context(2)
    for i in (1, 2):
        for j in (1, 2):
            a = ctx.t(2, i, j)
            b = ctx.t(1, 2, 1)
            c = ctx.t(1, i, j)
            e = ctx.t(2, 2, 1)
            assert a.commutator(b) == c.commutator(e)


def test_commutator_with_itself_vanishes():
    ctx = yangian_context(2)
    x = ctx.t(3, 1, 2)
    assert x * x - x * x == ctx.zero()


def _closed_form_commutator(n, r, i, j, s, k, l):
    """[t^(r)_ij, t^(s)_kl] as free words, by Molev's closed form
    sum_{a=1}^{min(r,s)} (t^(a-1)_kj t^(r+s-a)_il - t^(r+s-a)_kj t^(a-1)_il),
    where t^(0) is the Kronecker delta; ids are (level-1, row-1, col-1) in
    base n, so they sort by (level, i, j)."""
    def factor(m, x, y):
        if m == 0:
            return (1, ()) if x == y else (0, ())
        return (1, ((((m - 1) * n + x - 1) * n + y - 1),))

    out = {}
    for a in range(1, min(r, s) + 1):
        for first, second, sign in (((a - 1, k, j), (r + s - a, i, l), 1),
                                    ((r + s - a, k, j), (a - 1, i, l), -1)):
            (c1, w1), (c2, w2) = factor(*first), factor(*second)
            out[w1 + w2] = out.get(w1 + w2, 0) + sign * c1 * c2
    return {w: c for w, c in out.items() if c}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_exchange_table_matches_the_closed_form(n):
    idx = range(1, n + 1)
    for r in range(1, 7):
        for s in range(1, 7):
            for i in idx:
                for j in idx:
                    for k in idx:
                        for l in idx:
                            assert yangian_commutator_words(n, r, i, j, s, k, l) == \
                                _closed_form_commutator(n, r, i, j, s, k, l), (r, i, j, s, k, l)
    for bad in [(0, 1, 1, 1, 1, 1), (1, 1, 1, 0, 1, 1), (1, n + 1, 1, 1, 1, 1), (1, 1, 1, 1, 1, 0)]:
        with pytest.raises(ValueError, match="bad yangian commutator"):
            yangian_commutator_words(n, *bad)


def test_extracted_words_match_engine():
    n, ctx = 2, yangian_context(2)
    words = yangian_commutator_words(n, 2, 1, 1, 1, 2, 2)
    rebuilt = ctx.normal_form([(c, w) for w, c in words.items()])
    x, y = ctx.t(2, 1, 1), ctx.t(1, 2, 2)
    assert rebuilt == x * y - y * x


# -- gl straightening ---------------------------------------------------------

def test_gl_defining_relations():
    gl = gl_context(3)
    e = gl.e
    assert e(1, 2) * e(2, 1) - e(2, 1) * e(1, 2) == e(1, 1) - e(2, 2)
    assert e(1, 1) * e(2, 2) == e(2, 2) * e(1, 1)
    assert e(1, 2) * e(2, 3) - e(2, 3) * e(1, 2) == e(1, 3)


def test_gl_straightening_step():
    gl = gl_context(2)
    e = gl.e
    assert e(1, 2) * e(2, 1) == e(2, 1) * e(1, 2) + e(1, 1) - e(2, 2)


def test_normal_form_idempotent_and_linear():
    gl = gl_context(2)
    x = gl.e(1, 2) * gl.e(2, 1) + gl.e(1, 1).scale(3)
    # feeding a normal-ordered element back in changes nothing
    assert gl.normal_form([(c, w) for w, c in x.terms.items()]) == x
    # linearity: straightening a scaled sum of raw words
    a = next(iter(gl.e(1, 2).terms))[0]
    b = next(iter(gl.e(2, 1).terms))[0]
    lhs = gl.normal_form([(Q(2), (a, b)), (Q(3), (b, a))])
    assert lhs == (gl.e(1, 2) * gl.e(2, 1)).scale(2) + (gl.e(2, 1) * gl.e(1, 2)).scale(3)


def test_already_ordered_monomial_unchanged():
    ctx = yangian_context(2)
    x = ctx.normal_form([(Q(1), (encode_t(2, 1, 1, 1), encode_t(2, 2, 1, 1)))])
    assert list(x.terms) == [bytes((encode_t(2, 1, 1, 1), encode_t(2, 2, 1, 1)))]


def test_yangian_two_level_word_difference():
    ctx = yangian_context(2)
    hi, lo = ctx.t(2, 1, 1), ctx.t(1, 1, 1)
    words = yangian_commutator_words(2, 2, 1, 1, 1, 1, 1)
    comm = ctx.normal_form([(c, w) for w, c in words.items()])
    assert hi * lo - lo * hi == comm


def test_product_unit_and_mismatch():
    ctx = yangian_context(2)
    x = ctx.t(1, 1, 2) * ctx.t(2, 2, 1)
    assert x * ctx.one() == x
    assert ctx.one() * x == x
    gl = gl_context(2)
    with pytest.raises(ValueError):
        x * gl.e(1, 1)


def test_scalar_arithmetic_on_elements():
    gl = gl_context(2)
    x = gl.e(1, 1)
    assert 2 * x + x == x.scale(3)
    assert (x - x).is_zero()
    assert gl.scalar(Q(5, 3)).as_scalar() == Q(5, 3)
    assert x.as_scalar() is None


def test_one_yangian_context_per_n():
    assert yangian_context(2) is yangian_context(2)
    assert yangian_context(2) is not yangian_context(3)
    assert (yangian_context(2).t(2, 1, 2) * yangian_context(2).t(1, 2, 1)).level() == 3


def test_free_context_has_no_relations():
    fc = free_context(3)
    a, b = fc.gen(0), fc.gen(2)
    assert a * b != b * a
    assert (a * b).coeff((0, 2)) == 1


@pytest.mark.parametrize("kind, n", [("yangian", n) for n in range(1, 5)]
                         + [("gl", n) for n in range(1, 10)])
def test_spell_inverts_the_encoders(kind, n):
    rs = AlgebraContext(kind, n).rs
    for g in rs.gens:
        letter, *idx = rs.spell(g)
        if kind == "yangian":
            assert letter == "t" and encode_t(n, *idx) == g and rs.level(g) == idx[0]
        else:
            assert letter == "e" and encode_e(n, *idx) == g and rs.level(g) == 1


@pytest.mark.parametrize("x, name, gens", [
    (yangian_context(2).t(2, 1, 2), "t[2,1,2]", ["t", 2, 1, 2]),
    (gl_context(2).e(1, 2), "e[1,2]", ["e", 1, 2]),
    (free_context(8).gen(7), "x7", ["x", 7]),
])
def test_names_and_json_spell_each_kind_of_generator(x, name, gens):
    (word,) = x.terms
    assert x.gen_name(word[0]) == name and repr(x) == f"(1)*{name}"
    assert algebra_element_jsonable(x) == {
        "algebra": x.ctx.kind, "n": x.ctx.n, "monomials": [{"gens": [gens], "coeff": "1"}]}


def test_free_bracket_takes_the_shared_suffix_path():
    fc = free_context(3)
    assert type(fc.rs) is pbw.FreeSystem
    x0, x1, x2 = (fc.gen(g) for g in range(3))
    # [x0 x1, x2] = x0 [x1, x2] + [x0, x2] x1 = x0 x1 x2 - x2 x0 x1
    terms = fc.bracket(x2.terms)((x0 * x1).terms)
    assert terms == {bytes((0, 1, 2)): 1, bytes((2, 0, 1)): -1}
    assert AlgebraElement(fc, terms) == x0 * x1 * x2 - x2 * x0 * x1


@contextmanager
def _fresh_engine():
    """Empty exchange tables, memos and family cache, restored on exit."""
    with patch.dict(pbw._SHARED, clear=True), patch.dict(pbw._CONTEXTS, clear=True), \
            patch.dict(symfun._CACHE, clear=True):
        yield


def test_termination_measure_on_tables():
    assert _check_termination(2) is True and _check_termination(3) is True
    with _fresh_engine():
        # a correction at the level of its pair breaks the measure
        rs = yangian_context(2).rs
        a, b = encode_t(2, 2, 1, 1), encode_t(2, 1, 2, 2)
        rs.table[a * pbw.ALPHABET + b] = rs.expansion(a, b) + ((1, (a, b)),)
        assert _check_termination(2) == (False, {"pair": ["t[2,1,1]", "t[1,2,2]"],
                                                 "word": "t[2,1,1]*t[1,2,2]"})


def test_termination_check_covers_the_same_pairs_whatever_ran_before(monkeypatch):
    # every pair a > b of level sum <= 5 (76 Yangian and 6 gl pairs at n = 2,
    # 396 and 36 at n = 3) is asked of the table and its words measured,
    # however much the table already holds
    asked, measured = [], []
    expansion, word_level = RewriteSystem.expansion, RewriteSystem.word_level

    def counting_expansion(rs, a, b):
        asked.append(rs.kind)
        return expansion(rs, a, b)

    def counting_word_level(rs, word):
        measured.append(word)
        return word_level(rs, word)

    monkeypatch.setattr(RewriteSystem, "expansion", counting_expansion)
    monkeypatch.setattr(RewriteSystem, "word_level", counting_word_level)

    def coverage():
        out = {}
        for n in (2, 3):
            asked.clear()
            measured.clear()
            assert _check_termination(n) is True
            out[n] = (asked.count("yangian"), asked.count("gl"), len(measured))
        return out

    with _fresh_engine():
        before = coverage()
        table = yangian_context(2).rs.table
        grown = len(table)
        run_suite("commutativity", SuiteConfig(n=2, order=4))
        assert len(table) > grown
        after = coverage()
    assert [before[n][:2] for n in (2, 3)] == [(76, 6), (396, 36)]
    assert after == before


def test_jacobi_small():
    ctx = yangian_context(2)
    gens = [ctx.t(r, i, j) for r in (1, 2) for i in (1, 2) for j in (1, 2)]
    for x in gens[:4]:
        for y in gens:
            for z in gens[4:]:
                if x.level() + y.level() + z.level() > 4:
                    continue
                jac = x.commutator(y.commutator(z)) \
                    + y.commutator(z.commutator(x)) \
                    + z.commutator(x.commutator(y))
                assert jac.is_zero()


def test_one_step_confluence_on_small_words():
    rs = yangian_context(2).rs
    gens = [encode_t(2, r, i, j) for r in (1, 2) for i in (1, 2) for j in (1, 2)]
    for a in gens:
        for b in gens:
            for c in gens:
                results = _one_step_results(rs, bytes((a, b, c)))
                if len(results) == 2:
                    assert results[0] == results[1]


# -- the straightener against a memo-free reference ----------------------------

def _reference_normal_form(rs, word, rng):
    """Normal form of `word` by rewriting a randomly chosen inversion of a
    randomly chosen unfinished word, with no memo, until all words are normal."""
    done, todo = {}, {word: 1}

    def acc(terms, w, c):
        s = terms.get(w, 0) + c
        if s:
            terms[w] = s
        else:
            terms.pop(w, None)

    while todo:
        w = rng.choice(sorted(todo))
        c = todo.pop(w)
        inversions = [p for p in range(len(w) - 1) if w[p] > w[p + 1]]
        if not inversions:
            acc(done, w, c)
            continue
        p = rng.choice(inversions)
        for q, mid in rs.expansion(w[p], w[p + 1]):
            acc(todo, w[:p] + mid + w[p + 2:], c * q)
    return done


_GL3_GENS = [encode_e(3, i, j) for i in (1, 2, 3) for j in (1, 2, 3)]


def _y2_words(max_level):
    """Words of Y(gl_2) generators of total level at most max_level."""
    def capped(levels):
        # the longest prefix within the level budget
        total = 0
        for m, r in enumerate(levels):
            total += r
            if total > max_level:
                return levels[:m]
        return levels

    def word(levels):
        return st.tuples(*(st.tuples(st.just(r), st.integers(1, 2), st.integers(1, 2))
                           for r in levels)).map(
            lambda gs: bytes(encode_t(2, *g) for g in gs))

    return st.lists(st.integers(1, max_level), max_size=max_level).map(capped).flatmap(word)


@settings(max_examples=100, deadline=None)
@given(word=st.lists(st.sampled_from(_GL3_GENS), max_size=8).map(bytes),
       rng=st.randoms(use_true_random=False))
def test_normal_word_matches_random_inversion_reference_gl3(word, rng):
    rs = gl_context(3).rs
    assert rs.normal_word(word) == _reference_normal_form(rs, word, rng)


@settings(max_examples=100, deadline=None)
@given(word=_y2_words(5), rng=st.randoms(use_true_random=False))
def test_normal_word_matches_random_inversion_reference_y2(word, rng):
    rs = yangian_context(2).rs
    assert rs.normal_word(word) == _reference_normal_form(rs, word, rng)


def _leftmost_normal_form(rs, raw):
    """Normal form of the raw (coeff, word) terms by rewriting the leftmost
    adjacent inversion of some unfinished word, with no memo, until every
    word is normal; a sum that is zero is dropped at the end."""
    done, todo = {}, []
    for c, w in raw:
        todo.append((bytes(w), Q(c)))
    while todo:
        w, c = todo.pop()
        p = next((p for p in range(len(w) - 1) if w[p] > w[p + 1]), None)
        if p is None:
            done[w] = done.get(w, 0) + c
            continue
        todo.extend((w[:p] + mid + w[p + 2:], c * q) for q, mid in rs.expansion(w[p], w[p + 1]))
    return {w: c for w, c in done.items() if c}


_Y3_GENS = [encode_t(3, r, i, j) for r in (1, 2) for i in (1, 2, 3) for j in (1, 2, 3)]
_GL4_GENS = [encode_e(4, i, j) for i in (1, 2, 3, 4) for j in (1, 2, 3, 4)]
_Y4_GENS = [encode_t(4, r, i, j) for r in (1, 2) for i in (1, 2, 3, 4) for j in (1, 2, 3, 4)]


def _runs(gens, max_size):
    """Words made of runs of one letter, at most max_size letters long."""
    return st.lists(st.tuples(st.sampled_from(gens), st.integers(1, 3)), max_size=3).map(
        lambda runs: tuple(g for g, k in runs for _ in range(k))[:max_size])


@settings(max_examples=100, deadline=None)
@given(kind_n_gens=st.sampled_from([("gl", 3, _GL3_GENS), ("yangian", 3, _Y3_GENS),
                                    ("gl", 4, _GL4_GENS), ("yangian", 4, _Y4_GENS)]),
       data=st.data())
@example(kind_n_gens=("gl", 3, _GL3_GENS), data=None)
def test_normal_form_matches_leftmost_inversion_straightening(kind_n_gens, data):
    kind, n, gens = kind_n_gens
    ctx = AlgebraContext(kind, n)
    if data is None:
        # the empty word, a repeated letter and a cancelling pair
        g = gens[-1]
        raws = [[], [(1, ())], [(3, (g, g, g))], [(Q(1, 2), (g, gens[0])), (Q(-1, 2), (g, gens[0]))]]
        letters = gens[:1]
    else:
        # runs of one letter meet corrections that end above the letter
        # exchanged, where the climb-back of an insertion branches
        size = 6 if n == 3 else 5
        words = (st.lists(st.sampled_from(gens[:4]) | st.sampled_from(gens),
                          max_size=size).map(tuple) | _runs(gens, size))
        coeffs = st.sampled_from([1, -1, 2, 0, Q(1, 2), Q(-3, 4)])
        raws = [data.draw(st.lists(st.tuples(coeffs, words), max_size=3))]
        letters = [data.draw(st.sampled_from(gens))]
    for raw in raws:
        x = ctx.normal_form(raw)
        assert x.terms == _leftmost_normal_form(ctx.rs, raw)
        assert all(type(c) is int or c.denominator > 1 for c in x.terms.values())
    for g in letters:
        assert ctx.rs.word_bracket(g, {b"": 1}) == ()


def test_insertion_memo_stays_small():
    # one entry per insertion into a normal word, plus the whole word
    rs = RewriteSystem("gl", 2)
    word = bytes((encode_e(2, 1, 2),) * 10 + (encode_e(2, 2, 1),) * 10)
    assert len(rs.normal_word(word)) == 285
    assert len(rs.nf_memo) <= 4000


def test_straightening_makes_few_extend_passes(fresh_python):
    # e12^6 e21^6 on gl2: the products of each inserted letter went through a
    # scratch dict and every exchange correction through `_extend`, 1,249
    # passes; writing straight into the sum and adding corrections that are
    # already normal whole leaves 882; climbing back with every term that
    # does not end above the exchanged letter taken whole, and one letter
    # appended in a single pass, leaves 356
    calls, memo, terms = fresh_python(
        "from yangsym import pbw\n"
        "calls = 0\n"
        "extend = pbw.RewriteSystem._extend\n"
        "def counted(self, *args):\n"
        "    global calls\n"
        "    calls += 1\n"
        "    return extend(self, *args)\n"
        "pbw.RewriteSystem._extend = counted\n"
        "ctx = pbw.gl_context(2)\n"
        "e12, e21 = pbw.encode_e(2, 1, 2), pbw.encode_e(2, 2, 1)\n"
        "x = ctx.normal_form([(1, (e12,) * 6 + (e21,) * 6)])\n"
        "print(calls, len(ctx.rs.nf_memo), len(x.terms))")
    assert int(calls) <= 356
    assert (int(memo), int(terms)) == (527, 83)


# -- coefficient format: an int when integral, a Fraction otherwise ----------

# U(gl_2) and Y(gl_2); the Yangian words use generators of levels 1 and 2
_FORMAT_CONTEXTS = {
    "gl2": (gl_context(2), [encode_e(2, i, j) for i in (1, 2) for j in (1, 2)]),
    "y2": (yangian_context(2),
           [encode_t(2, r, i, j) for r in (1, 2) for i in (1, 2) for j in (1, 2)]),
}

# numerators over denominators 1, 1, 2, 3: about half the coefficients integral
_coefficients = st.builds(Q, st.integers(-3, 3), st.sampled_from([1, 1, 2, 3]))


def _elements(ctx, gens, max_len=2):
    word = st.lists(st.sampled_from(gens), max_size=max_len).map(tuple)
    return st.lists(st.tuples(_coefficients, word), max_size=3).map(ctx.normal_form)


def _assert_stored_form(values):
    for c in values:
        assert type(c) is int or (type(c) is Q and c.denominator > 1), repr(c)


def _assert_engine_stored_form(ctx, *elements):
    for x in elements:
        _assert_stored_form(x.terms.values())
    for nf in ctx.rs.nf_memo.values():
        _assert_stored_form(nf.values())
    for exp in ctx.rs.table.values():
        _assert_stored_form(c for c, _ in exp)


@pytest.mark.parametrize("name", sorted(_FORMAT_CONTEXTS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_coefficients_are_int_or_proper_fraction(name, data):
    ctx, gens = _FORMAT_CONTEXTS[name]
    x = data.draw(_elements(ctx, gens))
    y = data.draw(_elements(ctx, gens))
    q = data.draw(_coefficients)
    results = [x, y, x * y, x + y, x - y, x.scale(q), q * x, x + q,
               ctx.scalar(q), x.scale(Q(1, 2)) + x.scale(Q(1, 2))]
    _assert_engine_stored_form(ctx, *results)
    for z in results:
        for w in list(z.terms) + [(gens[0],) * 3]:
            assert type(z.coeff(w)) is Q
    assert type(ctx.scalar(q).as_scalar()) is Q
    assert type((x - x).as_scalar()) is Q
    assert type(ctx.one().as_scalar()) is Q


def _stored_scalars(x):
    """Every rational inside a family-cache value, at any depth."""
    if isinstance(x, SparseCoeffs):
        for c in x.coeffs.values():
            yield from _stored_scalars(c)
    elif isinstance(x, AlgebraElement):
        yield from x.terms.values()
    elif isinstance(x, TensorMatrix):
        for row in x.rows.values():
            for v in row.values():
                yield from _stored_scalars(v)
    else:
        yield x


def test_every_suite_leaves_only_stored_forms_in_caches_and_memos():
    # the fast products skip `demote`, so a stray integral Fraction or a
    # float would surface in what a whole run keeps
    with _fresh_engine():
        records = run_suites(list(SUITES), SuiteConfig(n=2, order=3))
        assert {r.status for r in records} == {"pass"}
        assert symfun._CACHE
        for value in symfun._CACHE.values():
            _assert_stored_form(_stored_scalars(value))
        assert {("yangian", 2), ("gl", 2)} <= pbw._SHARED.keys()
        for rs in pbw._SHARED.values():
            for nf in rs.nf_memo.values():
                _assert_stored_form(nf.values())
            for terms in rs.comm_memo.values():
                _assert_stored_form(c for _, c in terms)
            for exp in rs.table.values():
                _assert_stored_form(c for c, _ in exp)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_tensor_twist_and_weight_rationals_are_int_or_proper_fraction(n):
    mats = [TensorMatrix.identity(n, 2), permutation_sum(3, n, True), permutation_sum(3, n, False),
            r_matrix(1, 2, 2, 2, n), r_matrix(1, 2, Q(-1, 2), 2, n),
            r_chain(3, 1, 3, n), r_chain(3, -1, 3, n),
            fusion_step(antisymmetrizer(2, n), "A"), fusion_step(symmetrizer(2, n), "S"),
            trace_partial(antisymmetrizer(3, n), [3]), trace_partial(symmetrizer(3, n), [1, 3])]
    for k in range(1, 5):
        for method in ("group_sum", "fusion", "b_product"):
            mats += [antisymmetrizer(k, n, method), symmetrizer(k, n, method)]
    for m in mats:
        _assert_stored_form(v for row in m.rows.values() for v in row.values())
    for Z in (BetheTwist.identity(n), BetheTwist.random(n, random.Random(n)),
              BetheTwist([[Q(2 * i + j, 2) for j in range(n)] for i in range(n)])):
        _assert_stored_form(v for row in Z.matrix for v in row)
    for mu in default_weight_grid(n):
        _assert_stored_form(mu.m_values() + mu.gammas())


@pytest.mark.parametrize("name", sorted(_FORMAT_CONTEXTS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_products_with_rational_coefficients(name, data):
    ctx, gens = _FORMAT_CONTEXTS[name]
    x, y, z = (data.draw(_elements(ctx, gens)) for _ in range(3))
    assert (x.scale(Q(1, 2)) * y).scale(2) == x * y
    assert (x * y) * z == x * (y * z)
    _assert_engine_stored_form(ctx, x * y)


@pytest.mark.parametrize("name", sorted(_FORMAT_CONTEXTS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_mul_terms_with_a_scalar_operand_matches_straightening(name, data):
    ctx, gens = _FORMAT_CONTEXTS[name]
    x, z = data.draw(_elements(ctx, gens)), data.draw(_elements(ctx, gens))
    q = ctx.scalar(data.draw(_coefficients)).terms
    for A, B in ((q, x.terms), (x.terms, q)):
        # the general route: straighten every concatenated pair of words
        want = ctx.normal_form([(ca * cb, wa + wb) for wa, ca in A.items()
                                for wb, cb in B.items()])
        got = ctx.mul_terms(A, B)
        assert got == want.terms
        _assert_stored_form(got.values())
        out = dict(z.terms)
        assert ctx.mul_terms(A, B, out) is out
        assert AlgebraElement(ctx, ctx._apply_cap(out)) == z + want


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_proportionality_constant_is_a_fraction(data):
    ctx, gens = _FORMAT_CONTEXTS["y2"]
    x = data.draw(_elements(ctx, gens).filter(bool))
    q = data.draw(_coefficients.filter(bool))
    base = USeries(2, {0: x, 2: x * x})
    ratio, ok = _proportionality(base.scale(q), base)
    assert ok
    assert type(ratio) is Q and ratio == q


# -- commutators: the memoized word-pair kernel against the product difference

_COMMUTATOR_ALGEBRAS = {
    "y2": ("yangian", 2, _FORMAT_CONTEXTS["y2"][1]),
    "y3": ("yangian", 3, [encode_t(3, r, i, j) for r in (1, 2)
                          for i in (1, 2, 3) for j in (1, 2, 3)]),
    "gl3": ("gl", 3, _GL3_GENS),
}


def _assert_commutator_oracle(ctx, x, y):
    """[x, y] == xy - yx and [y, x] == -[x, y]; the word commutators are
    integral, and the whole words wa+wb are not stored in `nf_memo` (the
    entry of a one-letter insertion is its whole word, so wb has two or more
    letters)."""
    memo = ctx.rs.nf_memo
    before = set(memo)
    comm = x.commutator(y)
    whole = {wa + wb for wa in x.terms for wb in y.terms if len(wb) > 1} \
        | {wb + wa for wa in x.terms for wb in y.terms if len(wa) > 1}
    assert not whole & (memo.keys() - before)
    assert comm == x * y - y * x
    assert y.commutator(x) == -comm
    for terms in ctx.rs.comm_memo.values():
        assert all(type(c) is int for _, c in terms)
    return comm


@pytest.mark.parametrize("name", sorted(_COMMUTATOR_ALGEBRAS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_commutator_matches_the_product_difference(name, data):
    kind, n, gens = _COMMUTATOR_ALGEBRAS[name]
    # a fresh rewrite system, so that every example fills its own entries
    with patch.dict(pbw._SHARED, clear=True):
        ctx = AlgebraContext(kind, n)
        x, y = (data.draw(_elements(ctx, gens)) for _ in range(2))
        _assert_commutator_oracle(ctx, x * y, y)
        _assert_commutator_oracle(ctx, x, x + y)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2 ** 32), ks=st.sampled_from([(1, 2), (1, 3), (2, 3)]),
       powers=st.tuples(st.integers(1, 3), st.integers(1, 3)), data=st.data())
def test_commutator_of_twisted_bethe_coefficients(seed, ks, powers, data):
    # Fraction coefficients: C(3,k)^{-1} and a random twist
    Z = BetheTwist.random(3, random.Random(seed))
    x, y = (bethe_b(k, Z, 3, 3).coeffs[m] for k, m in zip(ks, powers))
    ctx = yangian_context(3)
    assert not _assert_commutator_oracle(ctx, x, y)
    z = data.draw(_elements(ctx, _COMMUTATOR_ALGEBRAS["y3"][2]))
    _assert_commutator_oracle(ctx, x, z)


_BRACKET_ALGEBRAS = {
    "y2": _FORMAT_CONTEXTS["y2"],
    "gl3": (gl_context(3), _GL3_GENS),
    "free": (free_context(3), [0, 1, 2]),
}


@pytest.mark.parametrize("name", sorted(_BRACKET_ALGEBRAS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_one_bracket_serves_every_argument_in_any_order(name, data):
    # words of up to four letters, so that arguments share suffixes
    ctx, gens = _BRACKET_ALGEBRAS[name]
    b = data.draw(_elements(ctx, gens))
    xs = data.draw(st.lists(_elements(ctx, gens, 4), min_size=2, max_size=4))
    order = data.draw(st.permutations(range(len(xs))))
    bracket = ctx.bracket(b.terms)
    for i in order + order[:1]:  # the first again, from the words it kept
        terms = bracket(xs[i].terms)
        _assert_stored_form(terms.values())
        assert AlgebraElement(ctx, terms) == xs[i] * b - b * xs[i]


@pytest.mark.parametrize("name", sorted(_BRACKET_ALGEBRAS))
def test_a_bracket_map_is_freed_by_reference_counting(name):
    # the map and its store of word brackets form no reference cycle (a
    # recursive closure would), so they are freed at once, not at the next
    # cyclic collection
    ctx, gens = _BRACKET_ALGEBRAS[name]
    b = ctx.normal_form([(1, gens[-1:]), (2, gens[:2])])
    x = ctx.normal_form([(1, gens[:3]), (Q(1, 2), gens[2:0:-1] + gens[:2])])
    assert max(map(len, x.terms)) >= 3
    gc.collect()
    gc.disable()
    try:
        bracket = ctx.bracket(b.terms)
        terms = bracket(x.terms)
        ref = weakref.ref(bracket)
        del bracket
        assert ref() is None
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert AlgebraElement(ctx, terms) == x * b - b * x


def test_word_bracket_memoizes_each_letter_word_pair():
    rs = RewriteSystem("gl", 2)
    e11, e12, e21, e22 = (encode_e(2, i, j) for i, j in ((1, 1), (1, 2), (2, 1), (2, 2)))
    # [e12, e21] = e11 - e22
    assert dict(rs.word_bracket(e12, {bytes((e21,)): 1})) == {bytes((e11,)): 1, bytes((e22,)): -1}
    assert rs.word_bracket(e12, {bytes((e12, e12)): 1}) == ()
    assert dict(rs.word_bracket(e12, {bytes((e21,)): 3, bytes((e12, e12)): 5})) == \
        {bytes((e11,)): 3, bytes((e22,)): -3}
    # each pair (x, w) under the word x + w
    assert list(rs.comm_memo) == [bytes((e12, e21)), bytes((e12, e12, e12))]


_WORDS = st.sampled_from([(), (0,), (1,), (0, 1)])
_COEFFS = st.integers(-3, 3) | st.fractions(-3, 3, max_denominator=4)


@settings(max_examples=200, deadline=None)
@given(out=st.dictionaries(_WORDS, _COEFFS.filter(bool), max_size=4),
       batch=st.lists(st.tuples(_WORDS, _COEFFS), max_size=8), c=_COEFFS)
@example(out={(0,): 1}, batch=[], c=2)
@example(out={(0,): 1}, batch=[((0,), 1), ((1,), Q(1, 2))], c=0)
def test_add_terms_sums_first_and_drops_zeros_after(out, batch, c):
    sums = dict(out)
    for w, q in batch:
        sums[w] = sums.get(w, 0) + c * q
    expected = {w: v for w, v in sums.items() if v}
    result = pbw.add_terms(out, batch, c)
    assert result is out
    assert result == expected
    assert all(result.values())


def test_an_element_is_unhashable():
    ctx = yangian_context(2)
    assert ctx.scalar(2) == 2
    with pytest.raises(TypeError):
        hash(ctx.one())


def test_free_and_scalar_commutators():
    fc = free_context(3)
    a, b = fc.gen(0), fc.gen(2)
    assert a.commutator(b) == a * b - b * a
    assert a.commutator(a) == fc.zero()
    assert a.commutator(3) == fc.zero() == a.commutator(Q(1, 2))


# -- no global state: the interpreter's recursion limit is left alone ------------

def test_import_leaves_the_recursion_limit_alone(fresh_python):
    before, after = fresh_python(
        "import sys; before = sys.getrecursionlimit(); import yangsym.cli; "
        "print(before, sys.getrecursionlimit())")
    assert before == after


def test_deep_word_straightens_under_the_default_limit(fresh_python):
    # (e22)^500 (e11)^500 has 250k inversions of commuting generators, and
    # e12^12 e21^12 needs the corrections of every exchange
    limit, commuting, mixed = fresh_python(
        "import sys; from yangsym.pbw import encode_e, gl_context; "
        "e = lambda i, j, k: (encode_e(2, i, j),) * k; "
        "nf = lambda w: len(gl_context(2).normal_form([(1, w)]).terms); "
        "print(sys.getrecursionlimit(), nf(e(2, 2, 500) + e(1, 1, 500)), "
        "nf(e(1, 2, 12) + e(2, 1, 12)))")
    assert int(limit) <= 1000
    assert int(commuting) == 1
    assert int(mixed) == 454


# -- words are bytes -----------------------------------------------------------

def _straightened_and_bracketed():
    """e12^6 e21^6 in U(gl_2), one Y(gl_3) word and a bracket of each, in a
    fresh engine: (elements, rewrite systems)."""
    gl, y3 = gl_context(2), yangian_context(3)
    x = gl.normal_form([(1, (encode_e(2, 1, 2),) * 6 + (encode_e(2, 2, 1),) * 6)])
    y = y3.normal_form([(1, [encode_t(3, 2, 3, 1), encode_t(3, 1, 2, 2), encode_t(3, 1, 1, 3)])])
    elements = [x, y, x.commutator(gl.e(2, 1)), y.commutator(y3.t(1, 1, 2))]
    return elements, (gl.rs, y3.rs)


def test_terms_and_memo_keys_are_bytes():
    with _fresh_engine():
        elements, systems = _straightened_and_bracketed()
        assert all(type(w) is bytes for x in elements for w in x.terms)
        for rs in systems:
            assert rs.nf_memo and rs.comm_memo
            assert all(type(w) is bytes for w in rs.nf_memo)
            assert all(type(w) is bytes for nf in rs.nf_memo.values() for w in nf)
            assert all(type(w) is bytes for w in rs.comm_memo)
            assert all(type(w) is bytes for exp in rs.table.values() for _, w in exp)


def test_the_garbage_collector_tracks_no_nf_memo_entry():
    with _fresh_engine():
        _, systems = _straightened_and_bracketed()
        for rs in systems:
            for w, nf in rs.nf_memo.items():
                assert gc.is_tracked(w) is False and gc.is_tracked(nf) is False, w


def test_words_beyond_the_alphabet_are_refused():
    assert pbw.ALPHABET == 256
    for n, top in ((2, 64), (3, 28), (4, 16)):
        assert max_level(n) == top
        assert encode_t(n, top, n, n) < 256
        with pytest.raises(ValueError, match=f"Y\\(gl_{n}\\) words hold levels up to {top}"):
            encode_t(n, top + 1, 1, 1)
    assert encode_e(9, 8, 9) < 256
    with pytest.raises(ValueError, match="n <= 9"):
        encode_e(10, 2, 1)
    assert free_context(256).gen(255).coeff((255,)) == 1
    for route in (free_context, lambda n: AlgebraContext("free", n)):
        for n in (257, 300):
            with pytest.raises(ValueError, match=f"a free algebra on {n} generators is beyond "
                                                 "the word alphabet: words hold at most 256"):
                route(n)
    gl = gl_context(2)
    for word in ((0, 256), (-1,)):
        with pytest.raises(ValueError, match="a word holds generator ids below 256"):
            gl.normal_form([(1, word)])
        with pytest.raises(ValueError, match="a word holds generator ids below 256"):
            gl.one().coeff(word)
    with pytest.raises(TypeError, match="sequence of generator ids"):
        gl.normal_form([(1, 3)])
    # a correction of level 31 cannot be written in Y(gl_4)
    y4 = yangian_context(4)
    with pytest.raises(ValueError, match="levels up to 16"):
        y4.t(16, 2, 1) * y4.t(16, 1, 2)


@pytest.mark.parametrize("ctx, bad, name", [
    (gl_context(2), 40, "U\\(gl_2\\)"),       # decode_e would read e[1,1]
    (gl_context(2), 0, "U\\(gl_2\\)"),        # below every gl_2 id
    (gl_context(2), 8, "U\\(gl_2\\)"),        # a gap between the blocks
    (yangian_context(3), 252, "Y\\(gl_3\\)"),  # above level 28
    (free_context(3), 7, "the free algebra on 3 generators"),
])
def test_ids_that_are_no_generator_are_refused(ctx, bad, name):
    good = ctx.rs.gens[-1]
    match = f"id {bad} is no generator of {name}"
    with pytest.raises(ValueError, match=match):
        ctx.gen(bad)
    with pytest.raises(ValueError, match=match):
        ctx.one().coeff((good, bad))
    with pytest.raises(ValueError, match=match):
        ctx.normal_form([(1, (good, bad))])
    with pytest.raises(ValueError, match=match):
        ctx.normal_form([(1, (good,)), (2, bytes((bad, good)))])
    assert ctx.gen(good).coeff((good,)) == 1


def test_each_algebra_accepts_exactly_its_generator_ids():
    gl = gl_context(2)
    assert set(gl.rs.gens) == {encode_e(2, i, j) for i in (1, 2) for j in (1, 2)}
    assert gl.gen(encode_e(2, 1, 1)) == gl.e(1, 1)
    for n in (2, 3, 4):
        assert yangian_context(n).rs.gens == bytes(range(max_level(n) * n * n))
    assert free_context(3).rs.gens == bytes((0, 1, 2))
    assert free_context(256).rs.gens == bytes(range(256))
