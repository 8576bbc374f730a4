"""Sparse coefficient carriers: truncated series in u^{-1}, polynomials in u
and polynomials in mu_1..mu_n and u (the shift operators of `tau` are the
fourth).

Every carrier keeps a dict from keys to nonzero coefficients and inherits
from `SparseCoeffs` what does not depend on the key: storage, +, -,
negation, `scale`, == (also against a bare scalar, which means that scalar
times the unit), truth, `coeff`, `first_difference` (where two values first
differ) and `shift(a)`, the value at u + a.  A carrier supplies its
constructor, its product and how a result is built from coefficients.

A constructor stores its coefficients in one pass: zeros are dropped (an
element or a carrier by its own terms, without calling its truth), a
rational is stored as `rationals.demote` gives it (an int when integral),
and anything else, a float included, raises TypeError.  Coefficients are
rationals, AlgebraElements, or carriers (the series of a shift operator).
A USeries holds coefficients for u^0 .. u^{-N} where N is the truncation
order; its constructor skips the powers above N in the same pass and
refuses a negative one.  Arithmetic on two series reconciles to the
minimum of the two orders, so every stored coefficient of a result is fully
determined.

One kernel, `sum_of_products(pairs)`, forms every product of series:
`USeries.__mul__` is one pair, and the entries of `tensor.tm_mul` (every
matrix product, n x n ones included), the diagonal of the last product in
`tensor.trace_of_product`, the degrees of `TauOperator.__mul__` and the row
expansions of `symfun` are many.  It multiplies element coefficients
straight into one term dict per power of u^{-1}, and a pair of a rational q
and a series (the integer projectors of the trace oracles) adds q times each
coefficient into the same dicts without building the scaled series.
"""

from .pbw import AlgebraElement, add_terms
from .rationals import RATIONAL_TYPES, binomial, demote


class SparseCoeffs:
    """Finitely many nonzero coefficients, `coeffs`, keyed by monomials.

    A subclass builds results with `_build`; keys that carry a power of u
    say so through `_u_power` and `_with_u_power`.

    A coefficient where an element meets a rational in + is an element, and
    one that sums to zero is dropped, whatever its form.  So over a chain of
    +, the form of a power depends on the order of the summands: an element
    whose terms cancel is dropped, and a rational added later stays a
    rational.  `sum_of_products` does not depend on the order: there a
    power that meets an element is an element.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = _stored(coeffs, None) if coeffs else {}

    def _build(self, coeffs, other=None):
        """A value of this carrier with the given coefficients; `other` is the
        second operand of a sum."""
        raise NotImplementedError

    def _shape(self):
        """What besides the coefficients tells two values apart."""
        return None

    def _unit_key(self):
        return 0

    def _u_power(self, key):
        """Power of u in the monomial `key`."""
        return 0

    def _with_u_power(self, key, j):
        return key

    def _operand(self, other):
        """other as a value of this carrier (a scalar times the unit), or None."""
        if isinstance(other, type(self)):
            return other
        if isinstance(other, RATIONAL_TYPES):
            return self._build({self._unit_key(): other})
        return None

    def coeff(self, key):
        """Coefficient of the monomial `key`; zero (0) when absent."""
        return self.coeffs.get(key, 0)

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if type(other) is type(self):
            return self._shape() == other._shape() and self.coeffs == other.coeffs
        if isinstance(other, RATIONAL_TYPES):
            unit = self._unit_key()
            return all(k == unit for k in self.coeffs) and self.coeff(unit) == other
        return NotImplemented

    def first_difference(self, other):
        """(keys, lhs, rhs) at the first differing coefficient in key order,
        with the key at each level of nested carriers, or None.  Both sides
        are read as their sum reads them (a series up to the lower order), and
        an absent coefficient as the other side's zero."""
        lhs, rhs = self._build(self.coeffs, other).coeffs, other._build(other.coeffs, self).coeffs
        for k in sorted(lhs.keys() | rhs.keys()):
            a, b = lhs.get(k), rhs.get(k)
            a, b = (b - b if a is None else a), (a - a if b is None else b)
            d = a.first_difference(b) if isinstance(a, SparseCoeffs) else None if a == b else ((), a, b)
            if d is not None:
                return ((k,) + d[0], d[1], d[2])
        return None

    def __add__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out[k] + c if k in out else c
        return self._build(out, other)

    __radd__ = __add__

    def __neg__(self):
        return self._build({k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, q):
        q = demote(q)
        return self._build({k: q * c for k, c in self.coeffs.items()} if q else {})

    def __rmul__(self, other):
        if isinstance(other, RATIONAL_TYPES):
            return self.scale(other)
        return NotImplemented

    def shift(self, a):
        """The value at u + a: coefficients that are themselves carriers are
        shifted, and the power of u in each key expands binomially."""
        a = demote(a)
        if not a:
            return self
        out = {}
        for k, c in self.coeffs.items():
            if isinstance(c, SparseCoeffs):
                c = c.shift(a)
            b = self._u_power(k)
            p = 1
            for j in range(b, -1, -1):
                # (u+a)^b, highest power first
                k2 = self._with_u_power(k, j)
                v = binomial(b, j) * p * c
                out[k2] = out[k2] + v if k2 in out else v
                p = p * a
        return self._build(out)


def _stored(coeffs, top):
    """The nonzero coefficients of `coeffs` in stored form, in one pass: a
    rational as `rationals.demote` gives it, an element or a carrier as it is
    (zero when it has no terms); keys above `top` (a series order; None for
    none) are skipped and a negative one raises.  Anything else, a float
    included, raises TypeError."""
    out = {}
    for k, c in coeffs.items():
        if top is not None:
            if k > top:
                continue
            if k < 0:
                raise ValueError("negative u^{-m} exponent")
        # exact types first: isinstance(element, Fraction) is an ABC check
        t = type(c)
        if t is int:
            if not c:
                continue
        elif t is AlgebraElement:
            if not c.terms:
                continue
        elif isinstance(c, SparseCoeffs):
            if not c.coeffs:
                continue
        else:
            c = demote(c)
            if type(c) is int and not c:
                continue
        out[k] = c
    return out


class USeries(SparseCoeffs):
    """Formal power series in u^{-1}, truncated at a fixed order."""

    __slots__ = ("order",)

    def __init__(self, order, coeffs=None):
        if order < 0:
            raise ValueError("order must be non-negative")
        self.order = order
        self.coeffs = _stored(coeffs, order) if coeffs else {}

    def _build(self, coeffs, other=None):
        return USeries(self.order if other is None else min(self.order, other.order), coeffs)

    def _shape(self):
        return self.order

    @classmethod
    def const(cls, value, order):
        return cls(order, {0: value})

    @classmethod
    def zero(cls, order):
        return cls(order, {})

    def map_coeffs(self, fn):
        """Apply fn to every stored coefficient (used e.g. for ring homomorphisms)."""
        return USeries(self.order, {m: fn(c) for m, c in self.coeffs.items()})

    def __mul__(self, other):
        if type(other) is USeries:
            return sum_of_products(((self, other),))
        if isinstance(other, RATIONAL_TYPES):
            return self.scale(other)
        return NotImplemented

    def shift(self, a):
        """The series f(u+a), re-expanded in u^{-1} and truncated at this order.

        u^{-m} maps to sum_j binom(m+j-1, j) (-a)^j u^{-m-j}; only exponents
        up to the stored order contribute, so every output coefficient is exact.
        """
        a = demote(a)
        if not a:
            return self
        terms, out = {}, {}  # (power, context) -> element terms / power -> other
        for m, c in self.coeffs.items():
            for j in range(self.order - m + 1 if m else 1):
                q = binomial(m + j - 1, j) * (-a) ** j if m else 1
                if type(c) is not AlgebraElement:
                    out[m + j] = out[m + j] + q * c if m + j in out else q * c
                    continue
                add_terms(terms.setdefault((m + j, c.ctx), {}), c.terms.items(), q)
        for (m, ctx), t in terms.items():
            v = AlgebraElement(ctx, ctx._apply_cap(t))
            out[m] = out[m] + v if m in out else v
        return USeries(self.order, out)

    def __repr__(self):
        if not self.coeffs:
            return f"USeries(0; order={self.order})"
        parts = []
        for m in sorted(self.coeffs):
            c = self.coeffs[m]
            parts.append(f"({c})" + ("" if m == 0 else f"*u^-{m}"))
        return f"USeries({' + '.join(parts)}; order={self.order})"


def sum_of_products(pairs):
    """Sum of a*b over the (a, b) pairs, factor order kept; None for no pairs.

    Two element coefficients of a pair of series go into the term dict of
    their power by `mul_terms(..., out)`, and a pair of a rational q and a
    series (on either side) adds q times each coefficient straight into its
    power, element terms into the same term dicts, which are put in stored
    form once at the end; any other coefficients or pair add a*b.  A power
    that meets an element is an element: one pair with a series that puts
    an element there keeps it an element, even if its element terms cancel,
    whatever the order of the pairs.  So when some pair holds a series, the
    products of the pairs of two rationals go to u^0 like a series
    coefficient; with none, they sum as plain rationals.  The order is the
    least among the nonzero series products, or among all if every one is
    zero; coefficient rings are domains, so a product is zero exactly when no
    two coefficients meet within its order.
    """
    ctx = rs = rest = order = least = None
    terms, other = {}, {}  # power -> element term dict / any other coefficient

    def put(m, v, q):
        """Add q*v to the coefficient of u^{-m}."""
        nonlocal ctx, rs
        if type(v) is not AlgebraElement:
            v = q * v
            s = other.get(m)
            other[m] = v if s is None else s + v
            return
        if rs is None:
            ctx, rs = v.ctx, v.ctx.rs
        elif v.ctx.rs is not rs:
            raise ValueError("algebra instance mismatch")
        add_terms(terms.setdefault(m, {}), v.terms.items(), q)

    for a, b in pairs:
        if type(a) is USeries and type(b) is USeries:
            top = min(a.order, b.order)
            hit = False
            for i, x in a.coeffs.items():
                if i > top:
                    continue
                for j, y in b.coeffs.items():
                    m = i + j
                    if m > top:
                        continue
                    hit = True
                    if type(x) is AlgebraElement is type(y):
                        if rs is None:
                            ctx, rs = x.ctx, x.ctx.rs
                        if x.ctx.rs is not rs or y.ctx.rs is not rs:
                            raise ValueError("algebra instance mismatch")
                        t = terms.get(m)
                        if t is None:
                            t = terms[m] = {}
                        ctx.mul_terms(x.terms, y.terms, t)
                    else:
                        put(m, x * y, 1)
        elif (type(a) is USeries and isinstance(b, RATIONAL_TYPES)
              or type(b) is USeries and isinstance(a, RATIONAL_TYPES)):
            q, s = (demote(b), a) if type(a) is USeries else (demote(a), b)
            top, hit = s.order, bool(q) and bool(s.coeffs)
            if hit:
                for m, x in s.coeffs.items():
                    put(m, x, q)
        else:
            rest = a * b if rest is None else rest + a * b
            continue
        least = top if least is None else min(least, top)
        if hit:
            order = top if order is None else min(order, top)
    if least is None:
        return rest
    if rest is not None and isinstance(rest, RATIONAL_TYPES):
        # the rational pairs' sum sits at u^0 under the element rule
        put(0, rest, 1)
        rest = None
    for m, t in terms.items():
        v, s = AlgebraElement(ctx, ctx._apply_cap(t)), other.get(m)
        other[m] = v if s is None else v + s
    out = USeries(least if order is None else order, other)
    return out if rest is None else rest + out


class UPolynomial(SparseCoeffs):
    """Polynomial in u with coefficients in a ring; finitely many terms."""

    __slots__ = ()

    def __init__(self, coeffs=None):
        if coeffs and min(coeffs) < 0:
            raise ValueError("negative exponent")
        super().__init__(coeffs)

    def _build(self, coeffs, other=None):
        return UPolynomial(coeffs)

    def _u_power(self, key):
        return key

    def _with_u_power(self, key, j):
        return j

    @classmethod
    def variable(cls):
        return cls({1: 1})

    @classmethod
    def const(cls, value):
        return cls({0: value})

    def degree(self):
        return max(self.coeffs) if self.coeffs else -1

    def __mul__(self, other):
        if type(other) is not UPolynomial:
            return self.scale(other) if isinstance(other, RATIONAL_TYPES) else NotImplemented
        out = {}
        for i, a in self.coeffs.items():
            for j, b in other.coeffs.items():
                v = a * b
                out[i + j] = out[i + j] + v if i + j in out else v
        return UPolynomial(out)

    def to_series(self, k, order):
        """The series p(u) * u^{-k}, requiring deg(p) <= k."""
        if self.degree() > k:
            raise ValueError("p(u)*u^-k has positive powers of u")
        return USeries(order, {k - e: c for e, c in self.coeffs.items()})

    def __repr__(self):
        if not self.coeffs:
            return "UPolynomial(0)"
        parts = [f"({self.coeffs[e]})*u^{e}" for e in sorted(self.coeffs, reverse=True)]
        return f"UPolynomial({' + '.join(parts)})"


class ShiftedPolynomial(SparseCoeffs):
    """Polynomial in the commuting variables mu_1..mu_n and u over Q.

    Exponent keys are (a_1, ..., a_n, b) with b the power of u.
    """

    __slots__ = ("n",)

    def __init__(self, n, coeffs=None):
        if coeffs and any(len(e) != n + 1 for e in coeffs):
            raise ValueError(f"exponent keys must have length {n + 1}")
        self.n = n
        super().__init__(coeffs)

    def _build(self, coeffs, other=None):
        return ShiftedPolynomial(self.n, coeffs)

    def _shape(self):
        return self.n

    def _unit_key(self):
        return (0,) * (self.n + 1)

    def _u_power(self, key):
        return key[-1]

    def _with_u_power(self, key, j):
        return key[:-1] + (j,)

    @classmethod
    def const(cls, n, q):
        return cls(n, {(0,) * (n + 1): q})

    @classmethod
    def linear(cls, n, mu_index, const=0):
        """mu_{mu_index} + u + const."""
        mu = [0] * (n + 1)
        mu[mu_index - 1] = 1
        u = [0] * n + [1]
        return cls(n, {tuple(mu): 1, tuple(u): 1, (0,) * (n + 1): const})

    def __mul__(self, other):
        if type(other) is not ShiftedPolynomial:
            return self.scale(other) if isinstance(other, RATIONAL_TYPES) else NotImplemented
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                v = c1 * c2
                out[e] = out[e] + v if e in out else v
        return ShiftedPolynomial(self.n, out)

    def eval_mu(self, mu):
        """Substitute an integer weight for mu, leaving a polynomial in u."""
        vals = [demote(x) for x in mu]
        if len(vals) != self.n:
            raise ValueError("weight length mismatch")
        out = {}
        for e, c in self.coeffs.items():
            for v, a in zip(vals, e):
                c = c * v ** a
            b = e[-1]
            out[b] = out[b] + c if b in out else c
        return UPolynomial(out)

    def __repr__(self):
        if not self.coeffs:
            return "ShiftedPolynomial(0)"
        names = [f"mu{i+1}" for i in range(self.n)] + ["u"]
        parts = []
        for e in sorted(self.coeffs):
            mono = "*".join(f"{names[i]}^{a}" for i, a in enumerate(e) if a) or "1"
            parts.append(f"({self.coeffs[e]})*{mono}")
        return " + ".join(parts)


def factorial_power(p, k, step):
    """p(p+step)(p+2 step)...(p+(k-1) step) for a polynomial p: the falling
    factorial at step -1, the rising one at +1 (`symfun.kind_step` of "e" and
    "h"); the empty product (k=0) is 1."""
    if k < 0:
        raise ValueError("k must be non-negative")
    out = UPolynomial.const(1)
    for i in range(k):
        out = out * (p + step * i)
    return out
