"""Exact scalar fields: arbitrary-precision rationals and prime fields Z/p.

A field object is a small factory/parser; the elements themselves are
rationals (rational case) or `ModP` (prime case).  A rational is kept as a
plain python int while it is integral and becomes a `fractions.Fraction`
only once a division makes it one, so the common +-1 coefficients never pay
for `Fraction` arithmetic.  Both element types support mixed arithmetic with
plain python ints, which is how the sign machinery (+1/-1) multiplies into
coefficients.  Division goes through `field.div`, never `/`, so that an
int / int can never yield a float.
"""

from fractions import Fraction


class FieldError(ValueError):
    pass


class ModP:
    """An element of Z/p.  Division by zero raises ZeroDivisionError."""

    __slots__ = ("value", "p")

    def __init__(self, value, p):
        self.value = value % p
        self.p = p

    def _lift(self, other):
        if isinstance(other, ModP):
            if other.p != self.p:
                raise FieldError("mixed characteristics %d and %d" % (self.p, other.p))
            return other
        if isinstance(other, int):
            return ModP(other, self.p)
        return None

    def __add__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return ModP(self.value + other.value, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return ModP(self.value - other.value, self.p)

    def __rsub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return ModP(other.value - self.value, self.p)

    def __mul__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return ModP(self.value * other.value, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        if other.value == 0:
            raise ZeroDivisionError("division by zero in Z/%d" % self.p)
        return ModP(self.value * pow(other.value, self.p - 2, self.p), self.p)

    def __rtruediv__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return other / self

    def __neg__(self):
        return ModP(-self.value, self.p)

    def __eq__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return self.value == other.value

    def __hash__(self):
        return hash((self.value, self.p))

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return "ModP(%d, %d)" % (self.value, self.p)


def _rational(q):
    """A `Fraction` as an int when it is integral."""
    return q.numerator if q.denominator == 1 else q


class RationalField:
    name = "rational"

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def from_int(self, n):
        return int(n)

    def div(self, a, b):
        """Exact quotient a / b; raises ZeroDivisionError when b is zero."""
        return _rational(Fraction(a) / b)

    def parse(self, text):
        try:
            return _rational(Fraction(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise FieldError("bad rational scalar %r: %s" % (text, exc))

    def format(self, x):
        return str(x)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rational")

    def __repr__(self):
        return "QQ"


def _is_prime(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class PrimeField:
    name = "mod-p"

    def __init__(self, p):
        if not _is_prime(p):
            raise FieldError("%r is not prime" % (p,))
        self.p = p

    @property
    def zero(self):
        return ModP(0, self.p)

    @property
    def one(self):
        return ModP(1, self.p)

    def from_int(self, n):
        return ModP(n, self.p)

    def div(self, a, b):
        """Quotient a / b in Z/p; raises ZeroDivisionError when b is zero."""
        return self.from_int(a) / b if isinstance(a, int) else a / b

    def parse(self, text):
        text = text.strip()
        try:
            if "/" in text:
                num, den = text.split("/")
                return ModP(int(num), self.p) / ModP(int(den), self.p)
            return ModP(int(text), self.p)
        except (ValueError, ZeroDivisionError) as exc:
            raise FieldError("bad scalar %r over Z/%d: %s" % (text, self.p, exc))

    def format(self, x):
        return str(x.value)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("mod-p", self.p))

    def __repr__(self):
        return "GF(%d)" % self.p


QQ = RationalField()
