"""Canonical JSON encoding of series, shift operators, polynomials and
algebra elements.

Series and shift operators share one envelope:
{"order": N, "terms": [{"tau": d, "coeffs": [{"m": m, "value": <ring>}]}]}
with terms sorted by tau degree and coefficients by m.  Ring elements are
strings "p/q" for rationals and {"algebra", "n", "monomials"} objects for
algebra elements, with generators spelled ["t", r, i, j] or ["e", i, j].

`canonical_dumps` is deterministic (sorted keys, fixed separators), so two
runs of the same computation produce byte-identical output.
"""

import json

from .rationals import RATIONAL_TYPES, rational_str
from .pbw import AlgebraElement, decode_e, decode_t
from .series import ShiftedPolynomial, UPolynomial, USeries
from .tau import TauOperator


def ring_value_jsonable(v):
    if isinstance(v, RATIONAL_TYPES):
        return rational_str(v)
    if isinstance(v, AlgebraElement):
        return algebra_element_jsonable(v)
    raise TypeError(f"cannot serialize ring element {v!r}")


def algebra_element_jsonable(x):
    kind, n = x.ctx.kind, x.ctx.n
    monos = []
    for word in sorted(x.terms):
        gens = []
        for gid in word:
            if kind == "yangian":
                r, i, j = decode_t(n, gid)
                gens.append(["t", r, i, j])
            elif kind == "gl":
                i, j = decode_e(n, gid)
                gens.append(["e", i, j])
            else:
                gens.append(["x", gid])
        monos.append({"gens": gens, "coeff": rational_str(x.terms[word])})
    return {"algebra": kind, "n": n, "monomials": monos}


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
    if isinstance(value, AlgebraElement):
        return algebra_element_jsonable(value)
    if isinstance(value, RATIONAL_TYPES):
        return rational_str(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def canonical_dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
