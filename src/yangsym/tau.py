"""Shift-operator calculus.

A TauOperator is a finite Laurent polynomial in the shift symbol tau with
USeries coefficients written to the left: sum_d f_d(u) tau^d.  Products
follow tau^c f(u) = f(u+c) tau^c, so

    (f(u) tau^c) (g(u) tau^d) = f(u) g(u+c) tau^{c+d}.
"""

from .rationals import RATIONAL_TYPES, as_rational
from .series import USeries


class TauOperator:
    __slots__ = ("terms",)

    def __init__(self, terms=None):
        tt = {}
        if terms:
            for d, s in terms.items():
                if s:
                    tt[d] = s
        self.terms = tt

    @classmethod
    def from_series(cls, s, d=0):
        """The operator s(u) tau^d."""
        return cls({d: s})

    @classmethod
    def one(cls, order):
        return cls({0: USeries.one(order)})

    @classmethod
    def zero(cls):
        return cls()

    def coeff(self, d):
        """Series attached to tau^d (a zero series of order 0 if absent)."""
        s = self.terms.get(d)
        return s if s is not None else USeries.zero(0)

    def tau_degrees(self):
        return sorted(self.terms)

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        out = dict(self.terms)
        for d, s in other.terms.items():
            if d in out:
                t = out[d] + s
                if t:
                    out[d] = t
                else:
                    del out[d]
            else:
                out[d] = s
        return TauOperator(out)

    def __neg__(self):
        return TauOperator({d: -s for d, s in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, q):
        q = as_rational(q)
        if not q:
            return TauOperator()
        return TauOperator({d: s.scale(q) for d, s in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, RATIONAL_TYPES):
            return self.scale(other)
        out = {}
        for c, f in self.terms.items():
            for d, g in other.terms.items():
                prod = f * g.shift(c)
                if prod:
                    e = c + d
                    if e in out:
                        t = out[e] + prod
                        if t:
                            out[e] = t
                        else:
                            del out[e]
                    else:
                        out[e] = prod
        return TauOperator(out)

    def __rmul__(self, other):
        if isinstance(other, RATIONAL_TYPES):
            return self.scale(other)
        return NotImplemented

    def shift_arg(self, a):
        """Substitute u -> u+a throughout (commutes with the tau grading)."""
        return TauOperator({d: s.shift(a) for d, s in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, TauOperator):
            return NotImplemented
        return self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        if not self.terms:
            return "TauOperator(0)"
        parts = [f"[{self.terms[d]!r}] tau^{d}" for d in sorted(self.terms)]
        return f"TauOperator({' + '.join(parts)})"
