import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from yangsym.rationals import Q
from yangsym.pbw import (
    free_context,
    gl_context,
    ugl_relations,
    yangian_context,
    yangian_relations,
    yangian_commutator_words,
    encode_e,
    encode_t,
)
from yangsym.series import USeries
from yangsym.suites import _proportionality


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
    assert list(x.terms) == [(encode_t(2, 1, 1, 1), encode_t(2, 2, 1, 1))]


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


def test_termination_measure_on_tables():
    rs = yangian_relations(2, 4)
    for (a, b), exp in rs.table.items():
        pair_level = rs.level(a) + rs.level(b)
        for c, w in exp:
            if w != (b, a):
                assert rs.word_level(w) < pair_level
    glrs = ugl_relations(3)
    for (a, b), exp in glrs.table.items():
        for c, w in exp:
            assert w == (b, a) or len(w) == 1


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
    rs = yangian_relations(2, 4)
    gens = [encode_t(2, r, i, j) for r in (1, 2) for i in (1, 2) for j in (1, 2)]
    for a in gens:
        for b in gens:
            for c in gens:
                word = (a, b, c)
                results = []
                for p in range(2):
                    if word[p] > word[p + 1]:
                        out = {}
                        head, tail = word[:p], word[p + 2:]
                        for q, mid in rs.expansion(word[p], word[p + 1]):
                            for w, r in rs.normal_word(head + mid + tail).items():
                                out[w] = out.get(w, 0) + q * r
                        results.append({w: v for w, v in out.items() if v})
                if len(results) == 2:
                    assert results[0] == results[1]


# -- coefficient format: an int when integral, a Fraction otherwise ----------

# U(gl_2) and Y(gl_2); the Yangian words use generators of levels 1 and 2
_FORMAT_CONTEXTS = {
    "gl2": (gl_context(2), [encode_e(2, i, j) for i in (1, 2) for j in (1, 2)]),
    "y2": (yangian_context(2),
           [encode_t(2, r, i, j) for r in (1, 2) for i in (1, 2) for j in (1, 2)]),
}

# numerators over denominators 1, 1, 2, 3: about half the coefficients integral
_coefficients = st.builds(Q, st.integers(-3, 3), st.sampled_from([1, 1, 2, 3]))


def _elements(ctx, gens):
    word = st.lists(st.sampled_from(gens), max_size=2).map(tuple)
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


@pytest.mark.parametrize("name", sorted(_FORMAT_CONTEXTS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_products_with_rational_coefficients(name, data):
    ctx, gens = _FORMAT_CONTEXTS[name]
    x, y, z = (data.draw(_elements(ctx, gens)) for _ in range(3))
    assert (x.scale(Q(1, 2)) * y).scale(2) == x * y
    assert (x * y) * z == x * (y * z)
    _assert_engine_stored_form(ctx, x * y)


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


# -- no global state: the interpreter's recursion limit is left alone ------------

def _fresh_python(code):
    """stdout of `code` in a fresh interpreter that imports this yangsym."""
    import yangsym

    src = os.path.dirname(os.path.dirname(os.path.abspath(yangsym.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                           capture_output=True, text=True).stdout.split()


def test_import_leaves_the_recursion_limit_alone():
    before, after = _fresh_python(
        "import sys; before = sys.getrecursionlimit(); import yangsym.cli; "
        "print(before, sys.getrecursionlimit())")
    assert before == after


def test_deep_word_straightens_under_the_default_limit():
    # e12^10 e21^10 recurses about 100 deep on a cold memo
    limit, terms = _fresh_python(
        "import sys; from yangsym.pbw import encode_e, gl_context; "
        "w = (encode_e(2, 1, 2),) * 10 + (encode_e(2, 2, 1),) * 10; "
        "print(sys.getrecursionlimit(), len(gl_context(2).normal_form([(1, w)]).terms))")
    assert int(limit) <= 1000
    assert int(terms) == 285
