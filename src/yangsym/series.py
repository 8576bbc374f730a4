"""Sparse coefficient carriers: truncated series in u^{-1}, polynomials in u
and polynomials in mu_1..mu_n and u (the shift operators of `tau` are the
fourth).

Every carrier keeps a dict from keys to nonzero coefficients and inherits
from `SparseCoeffs` what does not depend on the key: storage (zeros are
dropped, and a scalar is stored as `rationals.demote` gives it: an int when
integral), +, -, negation, `scale`, == (also against a bare scalar, which
means that scalar times the unit), truth, `coeff`, and `shift(a)`, the
value at u + a.  A carrier supplies its constructor, its product and how a
result is built from coefficients.

A USeries holds coefficients for u^0 .. u^{-N} where N is the truncation
order.  Coefficients live in any associative ring implementing +, -, *,
equality and multiplication by rational scalars; in practice they are
rationals or AlgebraElements.  Arithmetic on two series reconciles to the
minimum of the two orders, so every stored coefficient of a result is fully
determined.
"""

from .rationals import Q, RATIONAL_TYPES, binomial, demote


class DegenerateSeriesError(ValueError):
    """Raised when inverting a series whose constant term is not invertible."""


class SparseCoeffs:
    """Finitely many nonzero coefficients, `coeffs`, keyed by monomials.

    A subclass builds results with `_build`; keys that carry a power of u
    say so through `_u_power` and `_with_u_power`.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {k: demote(c) if isinstance(c, RATIONAL_TYPES) else c
                       for k, c in coeffs.items() if c} if coeffs else {}

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
        if isinstance(other, RATIONAL_TYPES):
            unit = self._unit_key()
            return all(k == unit for k in self.coeffs) and self.coeff(unit) == other
        if type(other) is not type(self):
            return NotImplemented
        return self._shape() == other._shape() and self.coeffs == other.coeffs

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


class USeries(SparseCoeffs):
    """Formal power series in u^{-1}, truncated at a fixed order."""

    __slots__ = ("order",)

    def __init__(self, order, coeffs=None):
        if order < 0:
            raise ValueError("order must be non-negative")
        self.order = order
        if coeffs:
            if min(coeffs) < 0:
                raise ValueError("negative u^{-m} exponent")
            coeffs = {m: c for m, c in coeffs.items() if m <= order}
        super().__init__(coeffs)

    def _build(self, coeffs, other=None):
        return USeries(self.order if other is None else min(self.order, other.order), coeffs)

    def _shape(self):
        return self.order

    @classmethod
    def const(cls, value, order):
        return cls(order, {0: value})

    @classmethod
    def one(cls, order):
        return cls(order, {0: 1})

    @classmethod
    def zero(cls, order):
        return cls(order, {})

    def truncate(self, order):
        if order >= self.order:
            return self
        return USeries(order, self.coeffs)

    def map_coeffs(self, fn):
        """Apply fn to every stored coefficient (used e.g. for ring homomorphisms)."""
        return USeries(self.order, {m: fn(c) for m, c in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, RATIONAL_TYPES):
            return self.scale(other)
        if not isinstance(other, USeries):
            # ring-element scalar (e.g. an AlgebraElement): multiply on the right
            return USeries(self.order, {m: c * other for m, c in self.coeffs.items()})
        order = min(self.order, other.order)
        out = {}
        for i, a in self.coeffs.items():
            if i > order:
                continue
            for j, b in other.coeffs.items():
                m = i + j
                if m <= order:
                    v = a * b
                    out[m] = out[m] + v if m in out else v
        return USeries(order, out)

    def __rmul__(self, other):
        if isinstance(other, RATIONAL_TYPES):
            return self.scale(other)
        # left multiplication by a ring element
        return USeries(self.order, {m: other * c for m, c in self.coeffs.items()})

    def shift(self, a):
        """The series f(u+a), re-expanded in u^{-1} and truncated at this order.

        u^{-m} maps to sum_j binom(m+j-1, j) (-a)^j u^{-m-j}; only exponents
        up to the stored order contribute, so every output coefficient is exact.
        """
        a = demote(a)
        if not a:
            return self
        N = self.order
        out = {}
        for m, c in self.coeffs.items():
            if m == 0:
                out[0] = c
                continue
            p = 1
            for j in range(0, N - m + 1):
                q = binomial(m + j - 1, j) * p
                if q:
                    v = q * c
                    out[m + j] = out[m + j] + v if m + j in out else v
                p = p * (-a)
        return USeries(N, out)

    def invert(self):
        """Multiplicative inverse up to the truncation order.

        The constant term must be a nonzero rational multiple of the ring unit.
        """
        c0 = self.coeffs.get(0, 0)
        scalar = isinstance(c0, RATIONAL_TYPES)
        q0 = c0 if scalar else c0.as_scalar()
        if not q0:
            raise DegenerateSeriesError("series has no invertible constant term")
        inv0 = demote(Q(1, q0))
        N = self.order
        g = {0: inv0 if scalar else c0.ring_one().scale(inv0)}
        for m in range(1, N + 1):
            acc = 0
            for i in range(1, m + 1):
                fi = self.coeffs.get(i)
                if fi is None:
                    continue
                gm = g.get(m - i)
                if gm is None:
                    continue
                acc = acc + fi * gm
            if acc:
                g[m] = acc * -inv0
        return USeries(N, g)

    def first_difference(self, other):
        """(m, lhs, rhs) for the first differing coefficient, or None."""
        for m in range(min(self.order, other.order) + 1):
            a, b = self.coeff(m), other.coeff(m)
            if a != b:
                return (m, a, b)
        return None

    def __repr__(self):
        if not self.coeffs:
            return f"USeries(0; order={self.order})"
        parts = []
        for m in sorted(self.coeffs):
            c = self.coeffs[m]
            parts.append(f"({c})" + ("" if m == 0 else f"*u^-{m}"))
        return f"USeries({' + '.join(parts)}; order={self.order})"


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
        if isinstance(other, RATIONAL_TYPES):
            return self.scale(other)
        if not isinstance(other, UPolynomial):
            return NotImplemented
        out = {}
        for i, a in self.coeffs.items():
            for j, b in other.coeffs.items():
                v = a * b
                out[i + j] = out[i + j] + v if i + j in out else v
        return UPolynomial(out)

    def eval_at(self, x):
        """Value at a rational point x (Horner)."""
        x = demote(x)
        acc = 0
        for e in range(self.degree(), -1, -1):
            acc = acc * x if acc else acc
            c = self.coeffs.get(e)
            if c is not None:
                acc = acc + c
        return acc

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
        if isinstance(other, RATIONAL_TYPES):
            return self.scale(other)
        if not isinstance(other, ShiftedPolynomial):
            return NotImplemented
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


def falling_factorial(p, k):
    """p(p-1)...(p-k+1) for a polynomial p; the empty product (k=0) is 1."""
    if k < 0:
        raise ValueError("k must be non-negative")
    out = UPolynomial.const(1)
    for i in range(k):
        out = out * (p - i)
    return out


def rising_factorial(p, k):
    """p(p+1)...(p+k-1); the empty product (k=0) is 1."""
    if k < 0:
        raise ValueError("k must be non-negative")
    out = UPolynomial.const(1)
    for i in range(k):
        out = out * (p + i)
    return out
