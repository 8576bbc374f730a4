"""Canonical JSON encoding of series, shift operators, polynomials and
algebra elements.

Series and shift operators share one envelope:
{"order": N, "terms": [{"tau": d, "coeffs": [{"m": m, "value": <ring>}]}]}
with terms sorted by tau degree and coefficients by m.  Ring elements are
strings "p/q" for rationals and {"algebra", "n", "monomials"} objects for
algebra elements, with each generator spelled as `RewriteSystem.spell` gives
it: ["t", r, i, j], ["e", i, j], or ["x", g] in a free algebra.

`canonical_dumps` (defined in `cache`, which needs it without the engine
layers) is deterministic (sorted keys, fixed separators), so two runs of the
same computation produce byte-identical output.
"""

from .cache import canonical_dumps  # noqa: F401  (part of this module's interface)
from .rationals import RATIONAL_TYPES, rational_str
from .pbw import AlgebraElement
from .series import ShiftedPolynomial, UPolynomial, USeries
from .tau import TauOperator


def ring_value_jsonable(v):
    if isinstance(v, RATIONAL_TYPES):
        return rational_str(v)
    if isinstance(v, AlgebraElement):
        return algebra_element_jsonable(v)
    raise TypeError(f"cannot serialize ring element {v!r}")


def algebra_element_jsonable(x):
    spell = x.ctx.rs.spell
    monos = [{"gens": [list(spell(gid)) for gid in word], "coeff": rational_str(x.terms[word])}
             for word in sorted(x.terms)]
    return {"algebra": x.ctx.kind, "n": x.ctx.n, "monomials": monos}


def _series_term(s, tau, order):
    return {"tau": tau, "coeffs": [{"m": m, "value": ring_value_jsonable(s.coeffs[m])}
                                   for m in sorted(s.coeffs) if m <= order]}


def series_jsonable(s, tau=0):
    return {"order": s.order, "terms": [_series_term(s, tau, s.order)]}


def tau_operator_jsonable(op):
    order = min((s.order for s in op.coeffs.values()), default=0)
    return {"order": order,
            "terms": [_series_term(op.coeffs[d], d, order) for d in sorted(op.coeffs)]}


def upolynomial_jsonable(p):
    return {"upoly": [{"k": e, "value": ring_value_jsonable(p.coeffs[e])}
                      for e in sorted(p.coeffs)]}


def shifted_polynomial_jsonable(p):
    names = [f"mu{i + 1}" for i in range(p.n)] + ["u"]
    return {
        "vars": names,
        "terms": [{"exp": list(e), "coeff": rational_str(p.coeffs[e])}
                  for e in sorted(p.coeffs)],
    }


def to_jsonable(value):
    if isinstance(value, USeries):
        return series_jsonable(value)
    if isinstance(value, TauOperator):
        return tau_operator_jsonable(value)
    if isinstance(value, UPolynomial):
        return upolynomial_jsonable(value)
    if isinstance(value, ShiftedPolynomial):
        return shifted_polynomial_jsonable(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")
