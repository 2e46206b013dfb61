"""Gaussian rationals: the field Q(i), kept exact via a pair of Fractions.

Only the matrix realization of so(p+2) needs the imaginary unit (the real
form embedding, the Cayley transform and the orbit representatives), and
even there an entry stays a plain Fraction until i multiplies it;
everything root-theoretic stays over Fractions.  The two mix in one
matrix: Fraction's operators return NotImplemented for a QI, so Python
falls back to the reflected QI operator, which, like `__eq__`, takes an
`int` or `Fraction` operand as it is, without building a `QI` for it; a
real `QI` hashes like its real part.

Invariant: `re` and `im` are always exactly of type `Fraction`, and a
`QI` is never mutated after `__init__`.  That is why an operation may
return one of its operands (x + 0 is x itself), and why the arithmetic
may test a part for zero through its numerator.  Every `QI` is built by
`__init__`.
"""

from __future__ import annotations

from fractions import Fraction

_F0 = Fraction(0)
_RATIONAL = (int, Fraction)


# The zero tests below read `_numerator`: `Fraction.__bool__` and the
# `numerator` property each cost a Python-level call, and the matrix
# model makes millions of these tests.

def _plus(x, y):
    if not x._numerator:
        return y
    if not y._numerator:
        return x
    return x + y


def _minus(x, y):
    if not y._numerator:
        return x
    if not x._numerator:
        return -y
    return x - y


def _times(x, y):
    if not x._numerator:
        return x
    if not y._numerator:
        return y
    return x * y


class QI:
    """An element a + b*i with a, b rational."""

    __slots__ = ("re", "im")

    def __init__(self, re=_F0, im=_F0):
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

    @staticmethod
    def coerce(x) -> "QI":
        if type(x) is QI:
            return x
        return QI(x)

    def __bool__(self):
        return bool(self.re._numerator or self.im._numerator)

    def __eq__(self, other):
        if type(other) is not QI:
            if not isinstance(other, _RATIONAL):
                return NotImplemented
            return not self.im._numerator and self.re == other
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        # a real QI equals its real part, so it hashes like it
        return hash((self.re, self.im) if self.im._numerator else self.re)

    def __add__(self, other):
        if type(other) is not QI:
            if not isinstance(other, _RATIONAL):
                return NotImplemented
            return QI(self.re + other, self.im) if other else self
        if not (other.re._numerator or other.im._numerator):
            return self
        if not (self.re._numerator or self.im._numerator):
            return other
        return QI(_plus(self.re, other.re), _plus(self.im, other.im))

    __radd__ = __add__

    def __neg__(self):
        re, im = self.re, self.im
        if not (re._numerator or im._numerator):
            return self
        return QI(-re if re._numerator else re, -im if im._numerator else im)

    def __sub__(self, other):
        if type(other) is not QI:
            if not isinstance(other, _RATIONAL):
                return NotImplemented
            return QI(self.re - other, self.im) if other else self
        if not (other.re._numerator or other.im._numerator):
            return self
        if not (self.re._numerator or self.im._numerator):
            return -other
        return QI(_minus(self.re, other.re), _minus(self.im, other.im))

    def __rsub__(self, other):
        if not isinstance(other, _RATIONAL):
            return NotImplemented
        return QI(other - self.re, -self.im)

    def __mul__(self, other):
        if type(other) is not QI:
            if not isinstance(other, _RATIONAL):
                return NotImplemented
            re, im = self.re, self.im
            return QI(re * other if re._numerator else re,
                      im * other if im._numerator else im)
        a, b, c, d = self.re, self.im, other.re, other.im
        if not (c._numerator or d._numerator):
            return other
        if not (a._numerator or b._numerator):
            return self
        if not (b._numerator or d._numerator):
            return QI(a * c, b)
        return QI(_minus(_times(a, c), _times(b, d)),
                  _plus(_times(a, d), _times(b, c)))

    __rmul__ = __mul__

    def inverse(self) -> "QI":
        n = self.re * self.re + self.im * self.im
        if not n:
            raise ZeroDivisionError("division by zero in Q(i)")
        return QI(self.re / n, -self.im / n)

    def __truediv__(self, other):
        return self * QI.coerce(other).inverse()

    def __rtruediv__(self, other):
        return QI.coerce(other) * self.inverse()

    def __repr__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}*i"
