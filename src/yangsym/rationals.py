"""Exact rational scalars.

Every coefficient in this package is an arbitrary-precision rational;
nothing is ever rounded.  The scalar type Q is the standard library's
fractions.Fraction; plain ints are accepted wherever a rational is.
"""

from fractions import Fraction as Q
from math import comb, factorial

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
    "rational_str",
    "binomial",
    "factorial",
]
