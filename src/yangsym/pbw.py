"""Normal-ordering engine for algebras given by straightening rules.

Two instances are used throughout the package:

* the Yangian of gl_n, generated by t[r,i,j] (r >= 1; the level-0 entry
  of the generating matrix is the scalar delta_ij and is never stored),
  ordered by (level, i, j);
* U(gl_n), generated by e[i,j], ordered so that strictly lower-triangular
  generators come first, then diagonal, then strictly upper-triangular
  (raising generators rightmost), lexicographic in (i,j) within each block.

`encode_t` and `encode_e` lay the ids out in these orders, and
`RewriteSystem.spell` alone reads the layout back: it computes ("t", r, i,
j) or ("e", i, j) from an id, and levels, generator names, the JSON
encoding and the evaluation map read it.  A free algebra, the relation-free
oracle ring of the tests and of the trace lemma, is a `FreeSystem`: every
word is normal, `_extend` concatenates and an id spells ("x", g), so the
kernel below has no branch for it.

A monomial is a word: a `bytes` object of integer generator ids whose
natural order is the PBW order, so a monomial is normal-ordered iff its
bytes are weakly increasing.  Bytes compare, sort and iterate as the tuples
of their ids do, hash once (the object keeps its hash) and hold no
references, so the garbage collector tracks no word and no memo dict of
words and int coefficients.  A word holds ids below `ALPHABET` = 256:
Y(gl_n) up to level 256 // n^2 (64, 28, 16 for n = 2, 3, 4), U(gl_n) for
n <= 9 and free algebras of at most 256 generators; the encoders and
`free_context` refuse anything beyond, and `AlgebraContext.word` refuses,
once per raw word, an id that is no generator of its algebra
(`RewriteSystem.gens`).  `_L[g]` is the one-letter word of g and b'' the
word of a scalar.  The exchange rule for an out-of-order adjacent pair
x_a x_b (a > b) is x_b x_a plus correction terms of strictly smaller total
level, which guarantees straightening terminates.

Straightening works by insertion.  `RewriteSystem.normal_word` keeps the
longest normal prefix of a word and inserts the remaining generators one at
a time.  Inserting g into a normal word w moves g leftwards: past a letter
whose exchange entry is the bare swap it slides with no further work, and
at any other letter x it applies x g -> g x + corrections and continues
into the prefix before x in a loop, so the Python stack does not grow with
the length of a word or its number of inversions, only when a correction
term itself needs straightening.  The exchange entry of a pair a > b is
kept in `table` under the int a * ALPHABET + b, so the walk builds no
tuple key.  Climbing back, a term that does not end above x takes x and
the letters slid past whole (they are weakly increasing) and only the
others go through `_extend`; a correction that is already normal across
its two seams is added whole.  `_extend`, which appends letters to a batch
of normal words, writes the products of its last letter straight into the
sum it was given, and appends a single letter in one pass.  Straightening
has one memo, `nf_memo`, keyed by plain words: it holds each non-trivial
insertion under the word w + _L[g] and each whole word that `normal_word`
was asked for, and maps a word to its normal form either way.  Normal
words and slides are not memoized; `AlgebraContext.normal_form` of a single
raw term copies or scales the memoized normal form.

Commutators have a second memo, `comm_memo`, shared per (kind, n) like
`nf_memo`: it maps a letter x and a normal word w, keyed by the word
_L[x] + w, to the normal form of x*w - w*x as a tuple of (word, int) terms,
`()` if they commute.  `RewriteSystem.word_bracket(x, B)` fills it by
insertion and sums [x, B] from it for a term dict B.  Every commutator is a
bracket: `AlgebraContext.bracket(B)` is the linear map A -> [A, B], a
derivation.  It forms [w, B] once per word w of its arguments by the
Leibniz rule on the first letter, [x*v, B] = x*[v, B] + [x, B]*v, suffix by
suffix from the longest suffix it holds (`RewriteSystem.suffix_bracket`),
with each letter's [x, B] from `word_bracket`.  It keeps the nonzero terms of every
suffix bracket, so one map applied to many elements brackets each of their
suffixes against B once.  That store belongs to the map and is freed with
it, by reference counting alone; `AlgebraElement.commutator` makes a map
for one argument.

The Yangian exchange table is not transcribed from anywhere: it is derived
mechanically from the defining exchange relation of the generating matrix
by clearing the (u-v) denominator of the Yang matrix, expanding both sides
as double series in u^{-1}, v^{-1} with free-word coefficients, and
eliminating along decreasing first level, in one loop over integer
generator ids with the level-0 entries as Kronecker deltas.

Neither algebra is truncated.  The u^{-m} coefficient of a series of the
generating matrix has total level at most m, so a series of order N never
needs a generator above level N and no product drops a monomial;
`yangian_context(n)` and `gl_context(n)` return one context per n.

Coefficients in element terms, in the exchange table and in the two memos
follow `rationals.demote`, the stored form of every layer: plain ints when
integral and Fractions (denominator above 1) otherwise, never floats.  The
exchange table and both memos are integral, so straightening and
commutators run on machine-sized ints.  `coeff` and `as_scalar` alone
return Fractions, whatever the stored form.
"""

from .rationals import Q, RATIONAL_TYPES, cleared, demote


def add_terms(out, terms, c=1):
    """Add c*q into the term dict `out` for each (word, q) pair of `terms`,
    and return `out`.

    The one zero-dropping rule of every term dict: a sum that is zero is
    removed at once, so `out` never holds a zero and ends with the terms of
    summing everything first and dropping the zeros after."""
    for w, q in terms:
        s = out.get(w, 0) + c * q
        if s:
            out[w] = s
        elif w in out:
            del out[w]
    return out


# ---------------------------------------------------------------------------
# generator ids and words

# A word is bytes, so its generator ids lie below ALPHABET.
ALPHABET = 256
_L = tuple(bytes((g,)) for g in range(ALPHABET))  # the one-letter words


def max_level(n):
    """The highest level of a Y(gl_n) generator that a word can hold."""
    return ALPHABET // (n * n)


def encode_t(n, r, i, j):
    """Id of the Yangian generator t[r,i,j]; ids sort by (level, i, j)."""
    if not (r >= 1 and 1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"bad yangian generator t[{r},{i},{j}] for n={n}")
    if r > max_level(n):
        raise ValueError(f"t[{r},{i},{j}] is beyond the word alphabet: Y(gl_{n}) words "
                         f"hold levels up to {max_level(n)} (ids below {ALPHABET})")
    return ((r - 1) * n + (i - 1)) * n + (j - 1)


def _gl_block(i, j):
    if i > j:
        return 0
    return 1 if i == j else 2


# the largest n whose 3 n^2 ids of U(gl_n) lie below ALPHABET
MAX_GL_N = 9


def encode_e(n, i, j):
    """Id of the gl_n generator e[i,j]; lowering < diagonal < raising."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"bad gl generator e[{i},{j}] for n={n}")
    if n > MAX_GL_N:
        raise ValueError(f"U(gl_{n}) is beyond the word alphabet: words hold U(gl_n) "
                         f"for n <= {MAX_GL_N} (ids below {ALPHABET})")
    return _gl_block(i, j) * n * n + (i - 1) * n + (j - 1)


# ---------------------------------------------------------------------------
# mechanical extraction of the Yangian exchange table

def yangian_commutator_words(n, r, i, j, s, k, l):
    """[t[r,i,j], t[s,k,l]] as a map from free words, tuples of ids, to
    coefficients; `RewriteSystem.expansion` stores them as words.

    Triangular elimination: the u^{-a} v^{-b} coefficient of the relation,
    cleared of the (u-v) denominator of the Yang matrix, reads
      [t^(a+1)_ij, t^(b)_kl] - [t^(a)_ij, t^(b+1)_kl] = t^(a)_kj t^(b)_il - t^(b)_kj t^(a)_il
    (P T1(u) T2(v) swaps the row indices, T2(v) T1(u) P the columns), so the
    sum of its right sides over a = r-1, ..., 0 at b = s+r-1-a grounds out at
    the scalars t^(0)_xy = delta_xy.  Words are formed on ids as `encode_t`
    forms them.
    """
    if not (r >= 1 and s >= 1 and all(1 <= x <= n for x in (i, j, k, l))):
        raise ValueError(f"bad yangian commutator [t[{r},{i},{j}], t[{s},{k},{l}]] for n={n}")
    if r + s - 1 > max_level(n):
        raise ValueError(f"[t[{r},{i},{j}], t[{s},{k},{l}]] reaches level {r + s - 1}, beyond "
                         f"the word alphabet: Y(gl_{n}) words hold levels up to {max_level(n)}")
    nn = n * n
    kj, il = (k - 1) * n + j - 1, (i - 1) * n + l - 1
    terms = []
    for a in range(r - 1, -1, -1):
        b = s + r - 1 - a
        if a:
            terms.append((((a - 1) * nn + kj, (b - 1) * nn + il), 1))
            terms.append((((b - 1) * nn + kj, (a - 1) * nn + il), -1))
            continue
        if k == j:
            terms.append((((b - 1) * nn + il,), 1))
        if i == l:
            terms.append((((b - 1) * nn + kj,), -1))
    return add_terms({}, terms)


def gl_commutator_words(n, i, j, k, l):
    """[e[i,j], e[k,l]] = delta_jk e[i,l] - delta_li e[k,j]."""
    terms = []
    if j == k:
        terms.append(((encode_e(n, i, l),), 1))
    if l == i:
        terms.append(((encode_e(n, k, j),), -1))
    return add_terms({}, terms)


# ---------------------------------------------------------------------------
# rewrite systems

def as_size(value, name="n", least=1):
    """value as an int, refused unless it is an int >= least (a bool counts
    as its int).  The one rule for every size: the rank n, the degrees k, m
    and L and the truncation order.  Every route and every cache key that
    holds a size goes through it, so a size such as 2.0 never reaches the
    entry of 2."""
    if type(value) is int:
        if value >= least:
            return value
    elif isinstance(value, int) and value >= least:
        return int(value)
    raise ValueError(f"need {name} >= {least} and an int, got {value!r}")


class RewriteSystem:
    """Exchange table x_a x_b -> x_b x_a + corrections, for pairs a > b, of
    Y(gl_n) or U(gl_n).

    Entries are derived on demand (`expansion`) and cached in `table` under
    the int a * ALPHABET + b.  The table and both memos are shared between
    all contexts over the same algebra.  `gens` holds the ids of the
    algebra's generators as a word, and `name` names the algebra.  `spell`
    is the one reader of the id layout.
    """

    def __init__(self, kind, n):
        n = as_size(n)
        if kind == "yangian":
            ids, self.name = range(max_level(n) * n * n), f"Y(gl_{n})"
            self._commutator_words = yangian_commutator_words
        elif kind == "gl":
            ids = () if n > MAX_GL_N else (
                encode_e(n, i, j) for i in range(1, n + 1) for j in range(1, n + 1))
            self.name, self._commutator_words = f"U(gl_{n})", gl_commutator_words
        else:
            raise ValueError(f"unknown algebra kind {kind!r}")
        self.kind, self.n, self.gens = kind, n, bytes(ids)
        self.table, self.nf_memo, self.comm_memo = {}, {}, {}

    def spell(self, gid):
        """The generator of an id: ("t", r, i, j) for t[r,i,j] of Y(gl_n),
        ("e", i, j) for e[i,j] of U(gl_n); computed from the layout of
        `encode_t` and `encode_e`, which it inverts."""
        n = self.n
        block, rem = divmod(gid, n * n)
        i, j = divmod(rem, n)
        if self.kind == "yangian":
            return ("t", block + 1, i + 1, j + 1)
        return ("e", i + 1, j + 1)

    def level(self, gid):
        """The level r of t[r,i,j], read from the block of its id as `spell`
        reads it; 1 for a generator of any other algebra."""
        return gid // (self.n * self.n) + 1 if self.kind == "yangian" else 1

    def word_level(self, word):
        return sum(map(self.level, word))

    def expansion(self, a, b):
        """Terms of x_a x_b for an out-of-order pair a > b."""
        key = a * ALPHABET + b
        exp = self.table.get(key)
        if exp is None:
            comm = self._commutator_words(self.n, *self.spell(a)[1:], *self.spell(b)[1:])
            exp = ((1, _L[b] + _L[a]),) + tuple((c, bytes(w)) for w, c in comm.items())
            self.table[key] = exp
        return exp

    def normal_word(self, word):
        """Normal form of a word as a map normal-word -> coefficient.

        The longest normal prefix is kept and the remaining generators are
        inserted one at a time (`_extend`).  A word that is already normal
        is returned as is and not memoized."""
        memo = self.nf_memo
        res = memo.get(word)
        if res is not None:
            return res
        p, end = 1, len(word)
        while p < end and word[p - 1] <= word[p]:
            p += 1
        if p >= end:
            return {word: 1}
        res = memo[word] = self._extend({word[:p]: 1}, word[p:], {})
        return res

    def word_bracket(self, x, B):
        """Nonzero terms of [x, B], as a tuple of (word, int) terms, for a
        letter x and a term dict B with int coefficients.  Each [x, w] is
        memoized in `comm_memo` under the word _L[x] + w: the normal form
        of x*w minus that of w*x."""
        memo, out, xl = self.comm_memo, {}, _L[x]
        for w, c in B.items():
            key = xl + w
            terms = memo.get(key)
            if terms is None:
                comm = self._extend({xl: 1}, w, {})
                self._extend({w: -1}, xl, comm)
                terms = memo[key] = tuple(comm.items())
            add_terms(out, terms, c)
        return tuple(out.items())

    def suffix_bracket(self, word, B, store):
        """Nonzero terms of [word, B], as a tuple of (word, int) terms, for a
        normal word and a term dict B with int coefficients, by the Leibniz
        rule on the first letter: [x*v, B] = x*[v, B] + [x, B]*v.

        `store` maps words to their brackets with B, the empty word b'' to (),
        and holds every suffix of each word it holds.  The longest suffix of
        `word` in it is the start; each longer suffix is formed from the one
        before it and the bracket of its first letter (`word_bracket`), and
        stored.  This is a loop, so the stack stays flat and no recursive
        closure keeps a bracket map alive past its last reference."""
        i = 1
        while word[i:] not in store:
            i += 1
        terms = store[word[i:]]
        for j in range(i - 1, -1, -1):
            x, v = word[j], word[j + 1:]
            xl = _L[x]
            xb = store.get(xl)
            if xb is None:
                xb = store[xl] = self.word_bracket(x, B)
            if not v:
                terms = xb
                continue
            out = {}
            # x*[v, B]: x goes in front of a word that does not start below x,
            # else is inserted
            for u, c in terms:
                if not u or x <= u[0]:
                    w = xl + u
                    s = out.get(w, 0) + c
                    if s:
                        out[w] = s
                    elif w in out:
                        del out[w]
                else:
                    self._extend({xl: c}, u, out)
            # [x, B]*v, nothing when x commutes with B
            if xb:
                self._extend(dict(xb), v, out)
            terms = store[word[j:]] = tuple(out.items())
        return terms

    def _extend(self, terms, letters, out):
        """Add the normal form of sum c*v*letters over the normal words
        v -> c of `terms` into `out`, inserting the letters one at a time,
        and return `out`.  The products of the last letter go straight into
        `out`, so one letter takes a single pass over `terms`."""
        if len(letters) > 1:
            # from `tail` on, the letters are weakly increasing, so a word
            # whose last generator does not exceed the next letter takes the
            # rest whole
            last = tail = len(letters) - 1
            while tail > 0 and letters[tail - 1] <= letters[tail]:
                tail -= 1
            for i in range(last):
                g, nxt = letters[i], {}
                for v, c in terms.items():
                    if v and v[-1] > g:
                        for w, q in self._insert(v, g).items():
                            s = nxt.get(w, 0) + c * q
                            if s:
                                nxt[w] = s
                            elif w in nxt:
                                del nxt[w]
                        continue
                    if i >= tail:
                        w, dest = v + letters[i:], out
                    else:
                        w, dest = v + _L[g], nxt
                    s = dest.get(w, 0) + c
                    if s:
                        dest[w] = s
                    elif w in dest:
                        del dest[w]
                if not nxt:
                    return out
                terms = nxt
            letters = letters[last:]
        elif not letters:
            return add_terms(out, terms.items())
        g = letters[0]
        for v, c in terms.items():
            if v and v[-1] > g:
                for w, q in self._insert(v, g).items():
                    s = out.get(w, 0) + c * q
                    if s:
                        out[w] = s
                    elif w in out:
                        del out[w]
                continue
            w = v + letters
            s = out.get(w, 0) + c
            if s:
                out[w] = s
            elif w in out:
                del out[w]
        return out

    def _insert(self, word, g):
        """Normal form of word*g for a normal word ending above g.

        g moves left through the word.  It slides past a letter whose
        exchange entry is the bare swap; at any other letter x the entry
        x g -> g x + corrections leaves the insertion of g into the prefix
        before x, which the loop below follows down, so the depth of the
        Python stack does not grow with the word.  Each such insertion is
        memoized under its plain word prefix + _L[g]; slides are not."""
        memo = self.nf_memo
        table = self.table
        gw = _L[g]
        base = ALPHABET
        pending = []
        while True:
            key = word + gw
            res = memo.get(key)
            if res is not None:
                break
            k = len(word) - 1
            while k >= 0 and word[k] > g:
                exp = table.get(word[k] * base + g) or self.expansion(word[k], g)
                if len(exp) > 1:
                    break
                k -= 1
            else:
                res = {word[:k + 1] + gw + word[k + 1:]: 1}
                break
            pending.append((key, word, k, exp))
            word = word[:k]
            if not word or word[-1] <= g:
                res = {word + gw: 1}
                break
        # res is the normal form of word*g for the deepest word reached;
        # climb back, appending x and the slid letters after it.  They are
        # weakly increasing, so a term of res that does not end above x takes
        # them whole, and only the others go through `_extend`.  A correction
        # has one or two letters (the relations are quadratic); one that is
        # normal across both seams is added whole
        for key, word, k, exp in reversed(pending):
            x, tail = word[k], word[k:]
            out, rest = {}, {}
            for v, c in res.items():
                if v and v[-1] > x:
                    rest[v] = c
                else:
                    out[v + tail] = c
            if rest:
                self._extend(rest, tail, out)
            pre, post = word[:k], word[k + 1:]
            for c, mid in exp[1:]:
                if ((not pre or pre[-1] <= mid[0]) and mid[0] <= mid[-1]
                        and (not post or mid[-1] <= post[0])):
                    w = pre + mid + post
                    s = out.get(w, 0) + c
                    if s:
                        out[w] = s
                    elif w in out:
                        del out[w]
                else:
                    self._extend({pre: c}, mid + post, out)
            res = memo[key] = out
        return res


class FreeSystem(RewriteSystem):
    """The free algebra on n generators 0 .. n-1: no exchange rules, so every
    word is normal, `_extend` concatenates and brackets are the differences
    of concatenations.  Its table stays empty and its straightening memo
    unused; the commutator memo serves its brackets."""

    def __init__(self, n):
        n = as_size(n)
        if n > ALPHABET:
            raise ValueError(f"a free algebra on {n} generators is beyond the word "
                             f"alphabet: words hold at most {ALPHABET} generators")
        self.kind, self.n, self.gens = "free", n, bytes(range(n))
        self.name = f"the free algebra on {n} generators"
        self.table, self.nf_memo, self.comm_memo = {}, {}, {}

    def spell(self, gid):
        return ("x", gid)

    def normal_word(self, word):
        return {word: 1}

    def _extend(self, terms, letters, out):
        return add_terms(out, ((v + letters, c) for v, c in terms.items()))


_SHARED = {}


def _shared_system(kind, n):
    key = (kind, as_size(n))
    rs = _SHARED.get(key)
    if rs is None:
        rs = _SHARED[key] = FreeSystem(key[1]) if kind == "free" else RewriteSystem(*key)
    return rs


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
        return AlgebraElement(self, {b"": 1})

    def scalar(self, q):
        q = demote(q)
        return AlgebraElement(self, {b"": q} if q else {})

    def t(self, r, i, j):
        if self.kind != "yangian":
            raise ValueError("t generators live in the yangian instance")
        return AlgebraElement(self, {_L[encode_t(self.n, r, i, j)]: 1})

    def e(self, i, j):
        if self.kind != "gl":
            raise ValueError("e generators live in the gl instance")
        return AlgebraElement(self, {_L[encode_e(self.n, i, j)]: 1})

    def gen(self, gid):
        return AlgebraElement(self, {self.word((gid,)): 1})

    def word(self, ids):
        """The word of a sequence of generator ids, as bytes (a word as
        itself), refused unless each id is a generator of this algebra."""
        if type(ids) is bytes:
            w = ids
        elif isinstance(ids, int):  # bytes(k) would be k zero ids
            raise TypeError(f"a word is a sequence of generator ids, got {ids!r}")
        else:
            try:
                w = bytes(ids)
            except ValueError:
                raise ValueError(f"word {ids!r} has an id outside 0..{ALPHABET - 1}: "
                                 f"a word holds generator ids below {ALPHABET}") from None
        bad = w.translate(None, self.rs.gens)
        if bad:
            raise ValueError(f"id {bad[0]} is no generator of {self.rs.name}")
        return w

    def normal_form(self, raw):
        """Normal-ordered element from raw (coeff, word) data, a word being
        any sequence of generator ids of this algebra.  A single term copies
        or scales the memoized normal form of its word."""
        raw = [(c, w) for c, w in ((demote(c), w) for c, w in raw) if c]
        nw = self.rs.normal_word
        if len(raw) == 1:
            (c, w), = raw
            nf = nw(self.word(w))
            if c == 1:
                return AlgebraElement(self, dict(nf))
            return AlgebraElement(self, self._apply_cap({v: c * q for v, q in nf.items()}))
        out = {}
        for c, w in raw:
            add_terms(out, nw(self.word(w)).items(), c)
        return AlgebraElement(self, self._apply_cap(out))

    def _apply_cap(self, terms):
        """terms with stored-form coefficients.  bench/tracer.py wraps this
        method by name around every product's output, so the name stays
        until the benchmark changes."""
        for w, c in terms.items():
            if type(c) is not int:
                terms[w] = demote(c)
        return terms

    def mul_terms(self, A, B, out=None):
        """Terms of A*B in stored form.  Given a term dict `out`, adds A*B into
        it instead and returns it; whoever finishes that sum applies
        `_apply_cap` once.  When one operand is a bare scalar {b'': q}, the
        other's terms are multiplied by q, with no word products."""
        acc = {} if out is None else out
        scalar = A if len(A) == 1 and b"" in A else B if len(B) == 1 and b"" in B else None
        if scalar is not None:
            add_terms(acc, (B if scalar is A else A).items(), scalar[b""])
            return self._apply_cap(acc) if out is None else acc
        nw = self.rs.normal_word
        for wa, ca in A.items():
            for wb, cb in B.items():
                c = ca * cb
                if wa and wb and wa[-1] > wb[0]:
                    # the concatenation of two normal words needs
                    # straightening only across the seam
                    add_terms(acc, nw(wa + wb).items(), c)
                else:
                    w = wa + wb
                    s = acc.get(w, 0) + c
                    if s:
                        acc[w] = s
                    elif w in acc:
                        del acc[w]
        return self._apply_cap(acc) if out is None else acc

    def bracket(self, B):
        """The linear map A -> terms of [A, B], for term dicts A and B.

        An operand with a Fraction coefficient is multiplied by the lcm of its
        denominators, so the map runs on ints and divides its output once.
        The map is a derivation: [w, B] is formed once per word w of an
        argument, suffix by suffix (`RewriteSystem.suffix_bracket`), and kept
        with every suffix for every later argument while the map lives."""
        B, db = cleared(B)
        by_word, suffix_bracket = {b"": ()}, self.rs.suffix_bracket

        def apply(A):
            A, da = cleared(A)
            out = {}
            for wa, ca in A.items():
                terms = by_word.get(wa)
                if terms is None:
                    terms = suffix_bracket(wa, B, by_word)
                add_terms(out, terms, ca)
            d = da * db
            return out if d == 1 else {w: demote(Q(c, d)) for w, c in out.items()}

        return apply


_CONTEXTS = {}


def _interned_context(kind, n):
    n = as_size(n)
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


def free_context(n):
    """A free algebra on generators 0 .. n - 1 (`FreeSystem`); a word holds
    at most ALPHABET of them."""
    return AlgebraContext("free", n)


class AlgebraElement:
    """Normal-ordered linear combination of generator monomials."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx, terms):
        self.ctx = ctx
        self.terms = terms

    # -- scalar part ---------------------------------------------------------

    def as_scalar(self):
        """The rational q if self == q * 1, else None."""
        if not self.terms:
            return Q(0)
        if len(self.terms) == 1 and b"" in self.terms:
            return Q(self.terms[b""])
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
        """The coefficient of a word, any sequence of generator ids of the
        algebra."""
        return Q(self.terms.get(self.ctx.word(word), 0))

    def _compatible(self, other):
        return self.ctx.rs is other.ctx.rs

    # operators test for an element first: isinstance(element, Fraction) is an ABC check

    def __add__(self, other):
        if type(other) is not AlgebraElement and isinstance(other, RATIONAL_TYPES):
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
        if type(other) is not AlgebraElement and isinstance(other, RATIONAL_TYPES):
            other = self.ctx.scalar(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, q):
        """q times this element; a product is demoted only when it is not an
        int (an int q times int terms never is)."""
        q = demote(q)
        if not q:
            return AlgebraElement(self.ctx, {})
        terms = {w: q * c for w, c in self.terms.items()}
        for w, c in terms.items():
            if type(c) is not int:
                terms[w] = demote(c)
        return AlgebraElement(self.ctx, terms)

    def __mul__(self, other):
        if type(other) is not AlgebraElement:
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
        if type(other) is not AlgebraElement and isinstance(other, RATIONAL_TYPES):
            q = demote(other)
            if not q:
                return not self.terms
            return self.terms == {b"": q}
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.ctx.rs is other.ctx.rs and self.terms == other.terms

    def commutator(self, other):
        if type(other) is not AlgebraElement and isinstance(other, RATIONAL_TYPES):
            return self.ctx.zero()
        if not self._compatible(other):
            raise ValueError("algebra instance mismatch")
        return AlgebraElement(self.ctx, self.ctx.bracket(other.terms)(self.terms))

    def gen_name(self, gid):
        """t[r,i,j], e[i,j] or x<gid>, as `RewriteSystem.spell` spells it."""
        letter, *idx = self.ctx.rs.spell(gid)
        return f"x{gid}" if letter == "x" else f"{letter}[{','.join(map(str, idx))}]"

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for w in sorted(self.terms):
            c = self.terms[w]
            mono = "*".join(self.gen_name(g) for g in w) if w else "1"
            parts.append(f"({c})*{mono}")
        return " + ".join(parts)
