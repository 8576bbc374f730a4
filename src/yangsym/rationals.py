"""Exact rational scalars.

Every coefficient in this package is an arbitrary-precision rational;
nothing is ever rounded.  The scalar type Q is the standard library's
fractions.Fraction; plain ints are accepted wherever a rational is.

Coefficients stored inside algebra elements, series, polynomials and
shift operators follow one rule (see `demote`): a plain int when the value
is integral, a Fraction with denominator above 1 otherwise, and never a
float.  Integer arithmetic is several times faster than Fraction
arithmetic, and int and Fraction agree on equality, hashing and `str`, so
the rule is invisible in results.  The accessors of an algebra element that
return a single scalar (`coeff`, `as_scalar`) still return a Fraction.
"""

from fractions import Fraction as Q
from math import comb

#: types accepted wherever a rational scalar is expected
RATIONAL_TYPES = (int, Q)

QZERO = Q(0)
QONE = Q(1)


def as_rational(x):
    """Coerce an int / Fraction / 'p/q' string to Q."""
    if isinstance(x, Q):
        return x
    if isinstance(x, (int, str)):
        return Q(x)
    raise TypeError(f"not a rational scalar: {x!r}")


def demote(x):
    """Stored form of an exact rational: an int when x is integral, else a
    Fraction with denominator above 1.  Accepts what `as_rational` does."""
    if type(x) is int:
        return x
    q = as_rational(x)
    return q.numerator if q.denominator == 1 else q


def rational_str(x):
    """Canonical string form 'p' or 'p/q' with q > 0 and gcd(p,q)=1."""
    return str(as_rational(x))


def binomial(n, k):
    """Exact binomial coefficient, zero outside the Pascal triangle."""
    if k < 0 or (n >= 0 and k > n):
        return 0
    return comb(n, k)


__all__ = [
    "Q",
    "QZERO",
    "QONE",
    "RATIONAL_TYPES",
    "as_rational",
    "demote",
    "rational_str",
    "binomial",
]
