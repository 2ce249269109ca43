"""Exact scalar fields: arbitrary-precision rationals and prime fields Z/p.

A field object is a small factory/parser with a `characteristic`: 0 for the
rationals, p for Z/p.  The elements themselves are plain python values.  A
rational is kept as an int while it is integral and becomes a
`fractions.Fraction` only once a division makes it one, so the common +-1
coefficients never pay for `Fraction` arithmetic.  An element of Z/p is an
int in range(p).  Products of elements are formed as plain (unreduced) ints
and reduced modulo the characteristic where they are stored: in the one
accumulate step `graded._acc` and in the validating constructors.
Division goes through `field.div`, never `/`, so that an int / int can
never yield a float.  A field's `name` is its document tag, and both
fields read a document's scalar with `_read_scalar`, one spelling for all.
"""

import re
from fractions import Fraction

# the one spelling of a scalar: [-]digits[/digits]
_SCALAR = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


class FieldError(ValueError):
    pass


def _read_scalar(field, text):
    """The element of `field` written [-]digits[/digits] in ASCII digits,
    blanks around it allowed.  `int` alone would also read "+3", "1_0" and
    "٣", and `Fraction` "1e10000000" as a 10-million-digit integer."""
    match = _SCALAR.fullmatch(text.strip())
    if not match:
        raise FieldError("bad scalar %r over %r: not [-]digits[/digits]"
                         % (text, field))
    num, den = match.groups()
    try:
        return field.div(int(num), int(den or 1))
    except (ValueError, ZeroDivisionError) as exc:
        raise FieldError("bad scalar %r over %r: %s" % (text, field, exc))


def _rational(q):
    """A `Fraction` as an int when it is integral."""
    return q.numerator if q.denominator == 1 else q


class RationalField:
    name = "rational"
    characteristic = 0
    zero = 0
    one = 1

    def from_int(self, n):
        return int(n)

    def div(self, a, b):
        """Exact quotient a / b; raises ZeroDivisionError when b is zero."""
        return _rational(Fraction(a) / b)

    parse = _read_scalar

    def format(self, x):
        return str(x)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rational")

    def __repr__(self):
        return "QQ"


# The first thirteen primes as Miller-Rabin bases decide primality exactly
# for every n below MODULUS_BOUND, the least composite that passes them all
# (Sorenson and Webster, *Strong pseudoprimes to twelve prime bases*, 2017;
# OEIS A014233).
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MODULUS_BOUND = 3317044064679887385961981


def _is_prime(p):
    """Deterministic Miller-Rabin; exact for p < MODULUS_BOUND."""
    if p < 2:
        return False
    for a in _WITNESSES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """Z/p for a prime p < MODULUS_BOUND; its elements are ints in range(p)."""

    name = "mod-p"
    zero = 0
    one = 1

    def __init__(self, p):
        if not isinstance(p, int) or isinstance(p, bool):
            raise FieldError("modulus %r is not an integer" % (p,))
        if p >= MODULUS_BOUND:
            raise FieldError("modulus %d is too large: primality is decided "
                             "exactly only below %d" % (p, MODULUS_BOUND))
        if not _is_prime(p):
            raise FieldError("%r is not prime" % (p,))
        self.p = p
        self.characteristic = p

    def from_int(self, n):
        return int(n) % self.p

    def div(self, a, b):
        """Quotient a / b in Z/p; raises ZeroDivisionError when b is zero."""
        b %= self.p
        if not b:
            raise ZeroDivisionError("division by zero in Z/%d" % self.p)
        return a * pow(b, -1, self.p) % self.p

    parse = _read_scalar

    def format(self, x):
        return str(x)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("mod-p", self.p))

    def __repr__(self):
        return "GF(%d)" % self.p


QQ = RationalField()
