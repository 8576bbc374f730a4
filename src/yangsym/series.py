"""Truncated formal series in u^{-1} and polynomials in u.

A USeries holds coefficients for u^0 .. u^{-N} where N is the truncation
order.  Coefficients live in any associative ring implementing +, -, *,
equality and multiplication by rational scalars; in practice they are
rationals or AlgebraElements.  Multiplication of two series reconciles to
the minimum of the two orders, so every stored coefficient of a result is
fully determined.
"""

from .rationals import Q, QONE, RATIONAL_TYPES, as_rational, binomial


class DegenerateSeriesError(ValueError):
    """Raised when inverting a series whose constant term is not invertible."""


def _is_scalar(x):
    return isinstance(x, RATIONAL_TYPES)


def _one_like(c):
    """Multiplicative unit of the ring the coefficient c lives in."""
    if _is_scalar(c):
        return QONE
    return c.ring_one()


def _scalar_part(c):
    """c as a rational if c is a rational multiple of the unit, else None."""
    if _is_scalar(c):
        return as_rational(c)
    return c.as_scalar()


class USeries:
    """Formal power series in u^{-1}, truncated at a fixed order."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order, coeffs=None):
        if order < 0:
            raise ValueError("order must be non-negative")
        self.order = order
        cc = {}
        if coeffs:
            for m, c in coeffs.items():
                if m < 0:
                    raise ValueError("negative u^{-m} exponent")
                if m <= order and c:
                    cc[m] = as_rational(c) if _is_scalar(c) else c
        self.coeffs = cc

    @classmethod
    def const(cls, value, order):
        return cls(order, {0: value})

    @classmethod
    def one(cls, order):
        return cls(order, {0: QONE})

    @classmethod
    def zero(cls, order):
        return cls(order, {})

    def coeff(self, m):
        """Coefficient of u^{-m}; absent coefficients are zero (returned as 0)."""
        return self.coeffs.get(m, 0)

    def is_zero(self):
        return not self.coeffs

    def truncate(self, order):
        if order >= self.order:
            return self
        return USeries(order, {m: c for m, c in self.coeffs.items() if m <= order})

    def map_coeffs(self, fn, order=None):
        """Apply fn to every stored coefficient (used e.g. for ring homomorphisms)."""
        out = USeries(self.order if order is None else order)
        for m, c in self.coeffs.items():
            if m <= out.order:
                v = fn(c)
                if v:
                    out.coeffs[m] = v
        return out

    def __add__(self, other):
        if _is_scalar(other):
            other = USeries.const(other, self.order)
        order = min(self.order, other.order)
        out = dict(self.truncate(order).coeffs)
        for m, c in other.coeffs.items():
            if m <= order:
                s = out.get(m, 0) + c
                if s:
                    out[m] = s
                elif m in out:
                    del out[m]
        return USeries(order, out)

    __radd__ = __add__

    def __neg__(self):
        return USeries(self.order, {m: -c for m, c in self.coeffs.items()})

    def __sub__(self, other):
        if _is_scalar(other):
            other = USeries.const(other, self.order)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, q):
        q = as_rational(q)
        if not q:
            return USeries.zero(self.order)
        return USeries(self.order, {m: q * c for m, c in self.coeffs.items()})

    def __mul__(self, other):
        if _is_scalar(other):
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
                if m > order:
                    continue
                s = out.get(m, 0) + a * b
                if s:
                    out[m] = s
                elif m in out:
                    del out[m]
        return USeries(order, out)

    def __rmul__(self, other):
        if _is_scalar(other):
            return self.scale(other)
        # left multiplication by a ring element
        return USeries(self.order, {m: other * c for m, c in self.coeffs.items()})

    def shift(self, a):
        """The series f(u+a), re-expanded in u^{-1} and truncated at this order.

        u^{-m} maps to sum_j binom(m+j-1, j) (-a)^j u^{-m-j}; only exponents
        up to the stored order contribute, so every output coefficient is exact.
        """
        a = as_rational(a)
        if not a:
            return self
        N = self.order
        out = {}
        for m, c in self.coeffs.items():
            if m == 0:
                out[0] = out.get(0, 0) + c
                continue
            p = QONE
            for j in range(0, N - m + 1):
                q = binomial(m + j - 1, j) * p
                if q:
                    s = out.get(m + j, 0) + q * c
                    if s:
                        out[m + j] = s
                    elif m + j in out:
                        del out[m + j]
                p = p * (-a)
        return USeries(N, out)

    def invert(self):
        """Multiplicative inverse up to the truncation order.

        The constant term must be a nonzero rational multiple of the ring unit.
        """
        c0 = self.coeffs.get(0)
        q0 = _scalar_part(c0) if c0 is not None else Q(0)
        if not q0:
            raise DegenerateSeriesError("series has no invertible constant term")
        one = _one_like(c0)
        inv0 = (QONE / q0) * one
        N = self.order
        g = {0: inv0}
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
                g[m] = (-QONE / q0) * acc
        return USeries(N, g)

    def __eq__(self, other):
        if not isinstance(other, USeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def first_difference(self, other, order=None):
        """(m, lhs, rhs) for the first differing coefficient, or None."""
        m_max = min(self.order, other.order)
        if order is not None:
            m_max = min(m_max, order)
        for m in range(m_max + 1):
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


class UPolynomial:
    """Polynomial in u with coefficients in a ring; finitely many terms."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        cc = {}
        if coeffs:
            for e, c in coeffs.items():
                if e < 0:
                    raise ValueError("negative exponent")
                if c:
                    cc[e] = as_rational(c) if _is_scalar(c) else c
        self.coeffs = cc

    @classmethod
    def variable(cls):
        return cls({1: QONE})

    @classmethod
    def const(cls, value):
        return cls({0: value})

    def degree(self):
        return max(self.coeffs) if self.coeffs else -1

    def coeff(self, e):
        return self.coeffs.get(e, 0)

    def is_zero(self):
        return not self.coeffs

    def __add__(self, other):
        if _is_scalar(other):
            other = UPolynomial.const(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            elif e in out:
                del out[e]
        return UPolynomial(out)

    __radd__ = __add__

    def __neg__(self):
        return UPolynomial({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        if _is_scalar(other):
            other = UPolynomial.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if _is_scalar(other):
            q = as_rational(other)
            if not q:
                return UPolynomial()
            return UPolynomial({e: c * q for e, c in self.coeffs.items()})
        out = {}
        for i, a in self.coeffs.items():
            for j, b in other.coeffs.items():
                s = out.get(i + j, 0) + a * b
                if s:
                    out[i + j] = s
                elif i + j in out:
                    del out[i + j]
        return UPolynomial(out)

    def __rmul__(self, other):
        if _is_scalar(other):
            q = as_rational(other)
            if not q:
                return UPolynomial()
            return UPolynomial({e: q * c for e, c in self.coeffs.items()})
        return UPolynomial({e: other * c for e, c in self.coeffs.items()})

    def shift_arg(self, a):
        """The polynomial p(u+a)."""
        a = as_rational(a)
        if not a:
            return self
        out = UPolynomial()
        for e, c in self.coeffs.items():
            p = QONE
            for j in range(e, -1, -1):
                # binomial expansion of (u+a)^e, highest power first
                q = binomial(e, j) * p
                s = out.coeffs.get(j, 0) + q * c
                if s:
                    out.coeffs[j] = s
                elif j in out.coeffs:
                    del out.coeffs[j]
                p = p * a
        return out

    def eval_at(self, x):
        """Value at a rational point x (Horner)."""
        x = as_rational(x)
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
        out = USeries(order)
        for e, c in self.coeffs.items():
            m = k - e
            if m <= order:
                out.coeffs[m] = c
        return out

    def __eq__(self, other):
        if not isinstance(other, UPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "UPolynomial(0)"
        parts = [f"({self.coeffs[e]})*u^{e}" for e in sorted(self.coeffs, reverse=True)]
        return f"UPolynomial({' + '.join(parts)})"


def falling_factorial(p, k):
    """p(p-1)...(p-k+1) for a polynomial p; the empty product (k=0) is 1."""
    if k < 0:
        raise ValueError("k must be non-negative")
    out = UPolynomial.const(QONE)
    for i in range(k):
        out = out * (p - Q(i))
    return out


def rising_factorial(p, k):
    """p(p+1)...(p+k-1); the empty product (k=0) is 1."""
    if k < 0:
        raise ValueError("k must be non-negative")
    out = UPolynomial.const(QONE)
    for i in range(k):
        out = out * (p + Q(i))
    return out
