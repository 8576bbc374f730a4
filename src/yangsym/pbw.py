"""Normal-ordering engine for algebras given by straightening rules.

Two instances are used throughout the package:

* the Yangian of gl_n, generated by t[r,i,j] (r >= 1; the level-0 entry
  of the generating matrix is the scalar delta_ij and is never stored),
  ordered by (level, i, j);
* U(gl_n), generated by e[i,j], ordered so that strictly lower-triangular
  generators come first, then diagonal, then strictly upper-triangular
  (raising generators rightmost), lexicographic in (i,j) within each block.

A monomial is a tuple of integer generator ids whose natural order is the
PBW order, so a monomial is normal-ordered iff the tuple is weakly
increasing.  The exchange rule for an out-of-order adjacent pair x_a x_b
(a > b) is x_b x_a plus correction terms of strictly smaller total level,
which guarantees straightening terminates.

The Yangian exchange table is not transcribed from anywhere: it is derived
mechanically from the defining exchange relation of the generating matrix
by clearing the (u-v) denominator of the Yang matrix, expanding both sides
as double series in u^{-1}, v^{-1} with free-word coefficients, and
eliminating along decreasing first level.

A free instance (no relations) is also provided; it is handy as a
relation-free oracle ring in tests.

Neither algebra is truncated.  The u^{-m} coefficient of a series of the
generating matrix has total level at most m, so a series of order N never
needs a generator above level N and no product drops a monomial;
`yangian_context(n)` and `gl_context(n)` return one context per n.

Coefficients in element terms, in the exchange table and in the
normal-form memo are plain ints when integral and Fractions (denominator
above 1) otherwise, never floats; `rationals.demote` puts a value into that
form.  The exchange table and the memo are integral, so straightening runs
on machine-sized ints.  `coeff` and `as_scalar` return Fractions.
"""

from .rationals import Q, RATIONAL_TYPES, demote


# ---------------------------------------------------------------------------
# generator ids

def encode_t(n, r, i, j):
    """Id of the Yangian generator t[r,i,j]; ids sort by (level, i, j)."""
    if not (r >= 1 and 1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"bad yangian generator t[{r},{i},{j}] for n={n}")
    return ((r - 1) * n + (i - 1)) * n + (j - 1)


def decode_t(n, gid):
    r, rem = divmod(gid, n * n)
    i, j = divmod(rem, n)
    return (r + 1, i + 1, j + 1)


def t_level(n, gid):
    return gid // (n * n) + 1


def _gl_block(i, j):
    if i > j:
        return 0
    return 1 if i == j else 2


def encode_e(n, i, j):
    """Id of the gl_n generator e[i,j]; lowering < diagonal < raising."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"bad gl generator e[{i},{j}] for n={n}")
    return _gl_block(i, j) * n * n + (i - 1) * n + (j - 1)


def decode_e(n, gid):
    rem = gid % (n * n)
    i, j = divmod(rem, n)
    return (i + 1, j + 1)


# ---------------------------------------------------------------------------
# mechanical extraction of the Yangian exchange table

def _gen_factor(n, r, x, y):
    """u^{-r} coefficient of entry (x,y) of the generating matrix.

    Returns (scalar, word); the level-0 coefficient is the scalar delta_xy.
    """
    if r == 0:
        return (1, ()) if x == y else (0, ())
    return (1, (encode_t(n, r, x, y),))


def _ordered_product(n, first, second):
    """Free word for a product of two generating-matrix coefficients."""
    c1, w1 = _gen_factor(n, *first)
    if not c1:
        return None
    c2, w2 = _gen_factor(n, *second)
    if not c2:
        return None
    return (c1 * c2, w1 + w2)


def _acc(out, term, sign):
    if term is None:
        return
    c, w = term
    if not c:
        return
    s = out.get(w, 0) + sign * c
    if s:
        out[w] = s
    elif w in out:
        del out[w]


def _exchange_rhs(n, i, j, k, l, a, b):
    """Free element Q(a,b) with
    [t^(a+1)_ij, t^(b)_kl] - [t^(a)_ij, t^(b+1)_kl] = Q(a,b),
    read off from the u^{-a} v^{-b} coefficient of the cleared relation."""
    out = {}
    # P T1(u) T2(v): the permutation swaps the two row indices
    _acc(out, _ordered_product(n, (a, k, j), (b, i, l)), 1)
    # T2(v) T1(u) P: the permutation swaps the two column indices
    _acc(out, _ordered_product(n, (b, k, j), (a, i, l)), -1)
    return out


def yangian_commutator_words(n, r, i, j, s, k, l):
    """[t[r,i,j], t[s,k,l]] as a map word -> coefficient.

    Triangular elimination of the coefficient equations: the relation at
    powers (r-1, s) expresses this commutator through the one with first
    level r-1, and level-0 entries are scalars, so the recursion grounds out.
    """
    out = {}
    a, b = r, s
    while a >= 1:
        for w, c in _exchange_rhs(n, i, j, k, l, a - 1, b).items():
            s2 = out.get(w, 0) + c
            if s2:
                out[w] = s2
            elif w in out:
                del out[w]
        a, b = a - 1, b + 1
    return out


def gl_commutator_words(n, i, j, k, l):
    """[e[i,j], e[k,l]] = delta_jk e[i,l] - delta_li e[k,j]."""
    out = {}
    if j == k:
        w = (encode_e(n, i, l),)
        out[w] = out.get(w, 0) + 1
    if l == i:
        w = (encode_e(n, k, j),)
        out[w] = out.get(w, 0) - 1
    return {w: c for w, c in out.items() if c}


# ---------------------------------------------------------------------------
# rewrite systems

class RewriteSystem:
    """Exchange table x_a x_b -> x_b x_a + corrections, for pairs a > b.

    Entries are derived on demand and cached; `prefill` materialises a
    level-bounded block eagerly.  The table and the normal-form memo are
    shared between all contexts over the same algebra.
    """

    def __init__(self, kind, n):
        if kind not in ("yangian", "gl", "free"):
            raise ValueError(f"unknown algebra kind {kind!r}")
        self.kind = kind
        self.n = n
        self.table = {}
        self.nf_memo = {}

    def level(self, gid):
        if self.kind == "yangian":
            return t_level(self.n, gid)
        return 1

    def word_level(self, word):
        if self.kind == "yangian":
            nn = self.n * self.n
            return sum(g // nn + 1 for g in word)
        return len(word)

    def expansion(self, a, b):
        """Terms of x_a x_b for an out-of-order pair a > b."""
        key = (a, b)
        exp = self.table.get(key)
        if exp is None:
            n = self.n
            if self.kind == "yangian":
                r, i, j = decode_t(n, a)
                s, k, l = decode_t(n, b)
                comm = yangian_commutator_words(n, r, i, j, s, k, l)
            elif self.kind == "gl":
                i, j = decode_e(n, a)
                k, l = decode_e(n, b)
                comm = gl_commutator_words(n, i, j, k, l)
            else:
                raise AssertionError("free algebra has no exchange rules")
            exp = ((1, (b, a)),) + tuple((c, w) for w, c in comm.items())
            self.table[key] = exp
        return exp

    def prefill(self, max_pair_level=None):
        n = self.n
        if self.kind == "gl":
            gens = [encode_e(n, i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
            for a in gens:
                for b in gens:
                    if a > b:
                        self.expansion(a, b)
        elif self.kind == "yangian":
            L = max_pair_level if max_pair_level is not None else 1
            for r in range(1, L + 1):
                for s in range(1, L + 2 - r):
                    # all pairs with r + s - 1 <= L
                    for i in range(1, n + 1):
                        for j in range(1, n + 1):
                            a = encode_t(n, r, i, j)
                            for k in range(1, n + 1):
                                for l in range(1, n + 1):
                                    b = encode_t(n, s, k, l)
                                    if a > b:
                                        self.expansion(a, b)
        return self

    def normal_word(self, word):
        """Normal form of a word as a map normal-word -> coefficient."""
        if self.kind == "free":
            return {word: 1}
        memo = self.nf_memo
        res = memo.get(word)
        if res is not None:
            return res
        prev = word[0] if word else 0
        pos = -1
        for p in range(1, len(word)):
            g = word[p]
            if prev > g:
                pos = p - 1
                break
            prev = g
        if pos < 0:
            res = {word: 1}
        else:
            head, tail = word[:pos], word[pos + 2:]
            out = {}
            for c, mid in self.expansion(word[pos], word[pos + 1]):
                for w, q in self.normal_word(head + mid + tail).items():
                    s = out.get(w, 0) + c * q
                    if s:
                        out[w] = s
                    elif w in out:
                        del out[w]
            res = out
        memo[word] = res
        return res


_SHARED = {}


def _shared_system(kind, n):
    key = (kind, n)
    rs = _SHARED.get(key)
    if rs is None:
        rs = _SHARED[key] = RewriteSystem(kind, n)
    return rs


def yangian_relations(n, L):
    """Exchange table for all generator pairs with level sum - 1 <= L."""
    if n < 1 or L < 1:
        raise ValueError("need n >= 1 and L >= 1")
    return _shared_system("yangian", n).prefill(L)


def ugl_relations(n):
    """The gl_n exchange table in the block PBW order."""
    if n < 1:
        raise ValueError("need n >= 1")
    return _shared_system("gl", n).prefill()


# ---------------------------------------------------------------------------
# contexts and elements

class AlgebraContext:
    """An algebra instance over the shared rewrite system of (kind, n)."""

    __slots__ = ("rs",)

    # Products drop nothing.  bench/tracer.py reads this count around
    # `_apply_cap` to report drops, so it stays until the benchmark changes.
    drop_count = 0

    def __init__(self, kind, n):
        self.rs = _shared_system(kind, n)

    @property
    def kind(self):
        return self.rs.kind

    @property
    def n(self):
        return self.rs.n

    # -- element constructors ------------------------------------------------

    def zero(self):
        return AlgebraElement(self, {})

    def one(self):
        return AlgebraElement(self, {(): 1})

    def scalar(self, q):
        q = demote(q)
        return AlgebraElement(self, {(): q} if q else {})

    def t(self, r, i, j):
        if self.kind != "yangian":
            raise ValueError("t generators live in the yangian instance")
        return AlgebraElement(self, {(encode_t(self.n, r, i, j),): 1})

    def e(self, i, j):
        if self.kind != "gl":
            raise ValueError("e generators live in the gl instance")
        return AlgebraElement(self, {(encode_e(self.n, i, j),): 1})

    def gen(self, gid):
        return AlgebraElement(self, {(gid,): 1})

    def normal_form(self, raw):
        """Normal-ordered element from raw (coeff, word) data or an element."""
        if isinstance(raw, AlgebraElement):
            items = [(c, w) for w, c in raw.terms.items()]
        else:
            items = list(raw)
        out = {}
        nw = self.rs.normal_word
        for c, w in items:
            c = demote(c)
            if not c:
                continue
            for w2, q in nw(tuple(w)).items():
                s = out.get(w2, 0) + c * q
                if s:
                    out[w2] = s
                elif w2 in out:
                    del out[w2]
        return AlgebraElement(self, self._apply_cap(out))

    def _apply_cap(self, terms):
        """terms with stored-form coefficients.  bench/tracer.py wraps this
        method by name around every product's output, so the name stays
        until the benchmark changes."""
        for w, c in terms.items():
            if type(c) is not int:
                terms[w] = demote(c)
        return terms

    def mul_terms(self, A, B):
        out = {}
        nw = self.rs.normal_word
        for wa, ca in A.items():
            for wb, cb in B.items():
                c = ca * cb
                if wa and wb:
                    for w, q in nw(wa + wb).items():
                        s = out.get(w, 0) + c * q
                        if s:
                            out[w] = s
                        elif w in out:
                            del out[w]
                else:
                    w = wa + wb
                    s = out.get(w, 0) + c
                    if s:
                        out[w] = s
                    elif w in out:
                        del out[w]
        return self._apply_cap(out)


_CONTEXTS = {}


def _interned_context(kind, n):
    ctx = _CONTEXTS.get((kind, n))
    if ctx is None:
        ctx = _CONTEXTS[kind, n] = AlgebraContext(kind, n)
    return ctx


def yangian_context(n):
    """The Y(gl_n) context; nothing is truncated, so one per n serves."""
    return _interned_context("yangian", n)


def gl_context(n):
    """The U(gl_n) context; U(gl_n) is never truncated, so one per n serves."""
    return _interned_context("gl", n)


def free_context(num_gens):
    return AlgebraContext("free", num_gens)


class AlgebraElement:
    """Normal-ordered linear combination of generator monomials."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx, terms):
        self.ctx = ctx
        self.terms = terms

    # -- ring protocol used by USeries --------------------------------------

    def ring_one(self):
        return self.ctx.one()

    def as_scalar(self):
        """The rational q if self == q * 1, else None."""
        if not self.terms:
            return Q(0)
        if len(self.terms) == 1 and () in self.terms:
            return Q(self.terms[()])
        return None

    # -- basic structure -----------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def level(self):
        """Largest total level among monomials (0 for scalars)."""
        wl = self.ctx.rs.word_level
        return max((wl(w) for w in self.terms), default=0)

    def coeff(self, word):
        return Q(self.terms.get(tuple(word), 0))

    def _compatible(self, other):
        return self.ctx.rs is other.ctx.rs

    def __add__(self, other):
        if isinstance(other, RATIONAL_TYPES):
            other = self.ctx.scalar(other)
        if not self._compatible(other):
            raise ValueError("algebra instance mismatch")
        out = dict(self.terms)
        for w, c in other.terms.items():
            s = out.get(w, 0) + c
            if s:
                out[w] = s if type(s) is int else demote(s)
            elif w in out:
                del out[w]
        return AlgebraElement(self.ctx, out)

    __radd__ = __add__

    def __neg__(self):
        return AlgebraElement(self.ctx, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, RATIONAL_TYPES):
            other = self.ctx.scalar(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, q):
        q = demote(q)
        if not q:
            return AlgebraElement(self.ctx, {})
        return AlgebraElement(self.ctx, {w: demote(q * c) for w, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, RATIONAL_TYPES):
            return self.scale(other)
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        if not self._compatible(other):
            raise ValueError("algebra instance mismatch")
        return AlgebraElement(self.ctx, self.ctx.mul_terms(self.terms, other.terms))

    def __rmul__(self, other):
        if isinstance(other, RATIONAL_TYPES):
            return self.scale(other)
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, RATIONAL_TYPES):
            q = demote(other)
            if not q:
                return not self.terms
            return self.terms == {(): q}
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.ctx.rs is other.ctx.rs and self.terms == other.terms

    def __hash__(self):
        return hash((self.ctx.rs.kind, self.ctx.rs.n,
                     frozenset(self.terms.items())))

    def commutator(self, other):
        return self * other - other * self

    def gen_name(self, gid):
        rs = self.ctx.rs
        if rs.kind == "yangian":
            r, i, j = decode_t(rs.n, gid)
            return f"t[{r},{i},{j}]"
        if rs.kind == "gl":
            i, j = decode_e(rs.n, gid)
            return f"e[{i},{j}]"
        return f"x{gid}"

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for w in sorted(self.terms):
            c = self.terms[w]
            mono = "*".join(self.gen_name(g) for g in w) if w else "1"
            parts.append(f"({c})*{mono}")
        return " + ".join(parts)
