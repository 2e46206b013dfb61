"""Gaussian rationals: the field Q(i), kept exact in plain ints.

Only the matrix realization of so(p+2) needs the imaginary unit (the real
form embedding, the Cayley transform and the orbit representatives), and
even there an entry stays a plain Fraction until i multiplies it;
everything root-theoretic stays over Fractions.  The two mix in one
matrix: Fraction's operators return NotImplemented for a QI, so Python
falls back to the reflected QI operator, which, like `__eq__`, takes an
`int` or `Fraction` operand as it is, without building a `QI` for it; a
real `QI` hashes like its real part.

Invariant: a `QI` is three ints (a + b*i)/d in canonical form, d > 0 and
gcd(a, b, d) = 1, so zero is (0, 0, 1) and equal values have equal
parts.  `re` and `im` are derived from them as exact `Fraction`s.  Each
operation is a few int products and one three-way gcd, with no
`Fraction` built on the way.  A `QI` is never mutated after `__init__`,
which is why an operation may return one of its operands (x + 0 is x
itself).  Every `QI` is built by `__init__`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

_RATIONAL = (int, Fraction)


def _canonical(a, b, d):
    """The QI (a + b*i)/d, for d > 0."""
    g = gcd(a, b, d)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    return QI(a, b, d)


def _sum(a, b, d, c, e, f):
    """(a + b*i)/d + (c + e*i)/f."""
    if d == f:
        return _canonical(a + c, b + e, d)
    return _canonical(a * f + c * d, b * f + e * d, d * f)


def _rational_parts(x):
    """(a, 0, d) with x = a/d for an int or Fraction x, else None."""
    if type(x) is not Fraction:
        if type(x) is int:
            return x, 0, 1
        if not isinstance(x, _RATIONAL):
            return None
        x = Fraction(x)
    return x._numerator, 0, x._denominator


class QI:
    """An element a + b*i with a, b rational."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0, _d=1):
        # two ints are taken as the canonical parts over the denominator
        # _d; the operations pass them reduced
        if type(re) is int and type(im) is int:
            self._a, self._b, self._d = re, im, _d
            return
        re, im = Fraction(re), Fraction(im)
        # over the lcm of the two reduced denominators no prime divides
        # all three parts
        d = lcm(re._denominator, im._denominator)
        self._a = re._numerator * (d // re._denominator)
        self._b = im._numerator * (d // im._denominator)
        self._d = d

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    @staticmethod
    def coerce(x) -> "QI":
        """x as a QI; an int or Fraction goes straight in as (a, 0, d)."""
        if type(x) is QI:
            return x
        parts = _rational_parts(x)
        return QI(x) if parts is None else QI(*parts)

    def __bool__(self):
        return bool(self._a or self._b)

    def __eq__(self, other):
        if type(other) is QI:
            return (self._a == other._a and self._b == other._b
                    and self._d == other._d)
        parts = _rational_parts(other)
        if parts is None:
            return NotImplemented
        return (self._a, self._b, self._d) == parts

    def __hash__(self):
        # a real QI equals its real part, so it hashes like it
        return hash((self.re, self.im) if self._b else self.re)

    def __add__(self, other):
        if type(other) is QI:
            c, e, f = other._a, other._b, other._d
            if not (c or e):
                return self
            if not (self._a or self._b):
                return other
        else:
            parts = _rational_parts(other)
            if parts is None:
                return NotImplemented
            c, e, f = parts
            if not c:
                return self
        return _sum(self._a, self._b, self._d, c, e, f)

    __radd__ = __add__

    def __neg__(self):
        if not (self._a or self._b):
            return self
        return QI(-self._a, -self._b, self._d)

    def __sub__(self, other):
        if type(other) is QI:
            c, e, f = other._a, other._b, other._d
            if not (c or e):
                return self
            if not (self._a or self._b):
                return -other
        else:
            parts = _rational_parts(other)
            if parts is None:
                return NotImplemented
            c, e, f = parts
            if not c:
                return self
        return _sum(self._a, self._b, self._d, -c, -e, f)

    def __rsub__(self, other):
        parts = _rational_parts(other)
        if parts is None:
            return NotImplemented
        return _sum(*parts, -self._a, -self._b, self._d)

    def __mul__(self, other):
        if type(other) is QI:
            c, e, f = other._a, other._b, other._d
            if not (c or e):
                return other
            if not (self._a or self._b):
                return self
        else:
            parts = _rational_parts(other)
            if parts is None:
                return NotImplemented
            c, e, f = parts
        a, b, d = self._a, self._b, self._d
        return _canonical(a * c - b * e, a * e + b * c, d * f)

    __rmul__ = __mul__

    def inverse(self) -> "QI":
        # ((a + b i)/d)^-1 = d (a - b i)/(a^2 + b^2)
        a, b, d = self._a, self._b, self._d
        n = a * a + b * b
        if not n:
            raise ZeroDivisionError("division by zero in Q(i)")
        return _canonical(d * a, -d * b, n)

    def __truediv__(self, other):
        return self * QI.coerce(other).inverse()

    def __rtruediv__(self, other):
        return QI.coerce(other) * self.inverse()

    def __repr__(self):
        re, im = self.re, self.im
        if not im:
            return str(re)
        if not re:
            return f"{im}*i"
        sign = "+" if im > 0 else "-"
        return f"{re}{sign}{abs(im)}*i"
