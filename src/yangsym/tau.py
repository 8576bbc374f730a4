"""Shift-operator calculus.

A TauOperator is a finite Laurent polynomial in the shift symbol tau with
USeries coefficients written to the left: sum_d f_d(u) tau^d, stored as
`coeffs` = {d: f_d}.  Sums, scaling, equality and `shift` (u -> u+a in
every coefficient) come from `series.SparseCoeffs`.  Products follow
tau^c f(u) = f(u+c) tau^c, so

    (f(u) tau^c) (g(u) tau^d) = f(u) g(u+c) tau^{c+d}.
"""

from .rationals import RATIONAL_TYPES
from .series import SparseCoeffs, USeries, sum_of_products


class TauOperator(SparseCoeffs):
    __slots__ = ()

    def __init__(self, coeffs=None):
        if coeffs and not all(isinstance(s, USeries) for s in coeffs.values()):
            raise TypeError("tau-operator coefficients must be USeries")
        super().__init__(coeffs)

    def _build(self, coeffs, other=None):
        return TauOperator(coeffs)

    @classmethod
    def from_series(cls, s, d=0):
        """The operator s(u) tau^d."""
        return cls({d: s})

    @classmethod
    def zero(cls):
        return cls()

    def coeff(self, d):
        """Series attached to tau^d (a zero series of order 0 if absent)."""
        return self.coeffs.get(d) or USeries.zero(0)

    def __mul__(self, other):
        if type(other) is not TauOperator:
            return self.scale(other) if isinstance(other, RATIONAL_TYPES) else NotImplemented
        pairs = {}
        for c, f in self.coeffs.items():
            for d, g in other.coeffs.items():
                pairs.setdefault(c + d, []).append((f, g.shift(c)))
        return TauOperator({e: sum_of_products(p) for e, p in pairs.items()})

    def __repr__(self):
        if not self.coeffs:
            return "TauOperator(0)"
        parts = [f"[{self.coeffs[d]!r}] tau^{d}" for d in sorted(self.coeffs)]
        return f"TauOperator({' + '.join(parts)})"
