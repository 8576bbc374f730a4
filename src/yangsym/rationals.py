"""Exact rational scalars.

Every coefficient in this package is an arbitrary-precision rational;
nothing is ever rounded.  The scalar type Q is the standard library's
fractions.Fraction; plain ints are accepted wherever a rational is.

Every stored rational, in every layer, follows one rule (see `demote`): a
plain int when the value is integral, a Fraction with denominator above 1
otherwise, and never a float.  That covers the coefficients of algebra
elements, series, polynomials and shift operators, and the rational entries
of tensor matrices, twists and weights.  Integer arithmetic is several times
faster than Fraction arithmetic, and int and Fraction agree on equality,
hashing and `str`, so the rule is invisible in results.  The accessors of
an algebra element that return a single scalar (`coeff`, `as_scalar`) still
return a Fraction.

A loop over many rationals keeps Fraction out of its body (a gcd on every
operation) by one clearing rule: multiply its rational inputs by the lcm d
of their denominators (`cleared`), or write its weights as integer
numerators over a common d, run the loop on ints, and divide each output
coefficient by d once.  `pbw.AlgebraContext.bracket`, `tensor.tm_mul` on
rational matrices and the composition sums (`symfun.composition_weights`)
follow it.
"""

from fractions import Fraction as Q
from math import comb, lcm

#: types accepted wherever a rational scalar is expected
RATIONAL_TYPES = (int, Q)


def demote(x):
    """Stored form of an exact rational: an int when x is integral, else a
    Fraction with denominator above 1.  Anything but an int or a Fraction
    (a float, a string) raises TypeError."""
    if type(x) is int:
        return x
    if isinstance(x, Q):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):  # bool
        return int(x)
    raise TypeError(f"not a rational scalar: {x!r}")


def cleared(terms):
    """(d * terms, d) for the dict terms of rational values and the lcm d of
    their denominators: the values of d * terms are ints, and terms itself
    comes back when its values are.  A value that is neither an int nor a
    Fraction (a float) raises TypeError."""
    d, ints = 1, True
    for c in terms.values():
        if type(c) is not int:
            if type(c) is Q:
                d = lcm(d, c.denominator)
            elif not isinstance(c, int):
                raise TypeError(f"not a rational scalar: {c!r}")
            ints = False
    if ints:
        return terms, 1
    return {w: c.numerator * (d // c.denominator) for w, c in terms.items()}, d


def rational_str(x):
    """Canonical string form 'p' or 'p/q' with q > 0 and gcd(p,q)=1."""
    return str(demote(x))


def binomial(n, k):
    """Exact binomial coefficient, zero outside the Pascal triangle."""
    if k < 0 or (n >= 0 and k > n):
        return 0
    return comb(n, k)


__all__ = [
    "Q",
    "RATIONAL_TYPES",
    "demote",
    "cleared",
    "rational_str",
    "binomial",
]
