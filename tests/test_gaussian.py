"""Field axioms and coercion for the Gaussian rationals."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liepairs.gaussian import QI

F = Fraction


def test_arithmetic():
    a = QI(Fraction(1, 2), Fraction(-3))
    b = QI(2, Fraction(1, 5))
    assert a + b == QI(Fraction(5, 2), Fraction(-14, 5))
    assert a - b == QI(Fraction(-3, 2), Fraction(-16, 5))
    assert a * b == QI(Fraction(1, 2) * 2 - Fraction(-3) * Fraction(1, 5),
                       Fraction(1, 2) * Fraction(1, 5) + Fraction(-3) * 2)


def test_i_squared_is_minus_one():
    i = QI(0, 1)
    assert i * i == QI(-1)
    assert i * i * i * i == QI(1)


def test_division_inverse():
    a = QI(Fraction(3, 7), Fraction(-2, 5))
    assert a / a == QI(1)
    assert (QI(1) / a) * a == QI(1)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        QI(1) / QI(0)


def test_coercion_with_fractions():
    a = QI(1, 1)
    assert Fraction(1, 2) * a == QI(Fraction(1, 2), Fraction(1, 2))
    assert a * Fraction(1, 2) == QI(Fraction(1, 2), Fraction(1, 2))
    assert 3 - a == QI(2, -1)
    assert Fraction(1) / QI(0, 1) == QI(0, -1)


def test_truthiness_and_hash():
    assert not QI(0)
    assert QI(0, Fraction(1, 9))
    assert hash(QI(2, 0)) == hash(QI(2))


def test_equality_contract():
    # equal values hash equal, so a set holds each value once
    assert QI(3) == Fraction(3) == 3 and Fraction(3) == QI(3)
    assert len({QI(3), Fraction(3), 3}) == 1
    assert len({QI(Fraction(-1, 2)), Fraction(-1, 2)}) == 1
    assert len({QI(0), Fraction(0), 0}) == 1
    # comparison with a non-number is unequal, never an error
    for other in (None, "x", "3", object()):
        assert not QI(1) == other and QI(1) != other
        assert not other == QI(1) and other != QI(1)


# ---------------------------------------------------------------------------
# arithmetic against reference arithmetic on (re, im) Fraction pairs

# zero is drawn often, so that zero, real and imaginary operands (the
# fast paths) are common
SCALARS = [0, 0, 0, 1, -1, 2, F(1, 2), F(-3, 7), F(5, 3), 12]
parts = st.sampled_from(SCALARS)


@st.composite
def operands(draw):
    """A QI (zero, real, imaginary or general), an int or a Fraction,
    with its reference value as a (re, im) pair of Fractions."""
    kind = draw(st.sampled_from(["qi", "qi-real", "qi-imag", "int", "frac"]))
    if kind == "int":
        x = draw(st.integers(-3, 3))
        return x, (F(x), F(0))
    if kind == "frac":
        x = F(draw(parts))
        return x, (x, F(0))
    re = draw(parts) if kind != "qi-imag" else 0
    im = draw(parts) if kind != "qi-real" else 0
    # parts are passed as given (int or Fraction): both must be accepted
    return QI(re, im), (F(re), F(im))


def ref_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def ref_div(a, b):
    n = b[0] * b[0] + b[1] * b[1]
    return ref_mul(a, (b[0] / n, -b[1] / n))


def assert_qi(z, want):
    assert type(z) is QI
    assert type(z.re) is Fraction and type(z.im) is Fraction
    assert (z.re, z.im) == want


PROPERTY = settings(max_examples=300, derandomize=True, deadline=None)


@PROPERTY
@given(operands(), operands())
def test_arithmetic_matches_reference(x, y):
    (a, ra), (b, rb) = x, y
    if type(a) is not QI and type(b) is not QI:
        b, rb = QI(b), (F(b), F(0))     # at least one side is a QI
    assert_qi(a + b, (ra[0] + rb[0], ra[1] + rb[1]))
    assert_qi(a - b, (ra[0] - rb[0], ra[1] - rb[1]))
    assert_qi(a * b, ref_mul(ra, rb))
    if rb != (0, 0):
        assert_qi(a / b, ref_div(ra, rb))
    else:
        with pytest.raises(ZeroDivisionError):
            a / b
    if type(a) is QI:
        assert_qi(-a, (-ra[0], -ra[1]))
        assert bool(a) == (ra != (0, 0))
        assert (a == b) == (ra == rb)
        assert (a != b) == (ra != rb)
        # a real QI hashes like its real part, which it equals
        assert hash(a) == (hash(ra) if ra[1] else hash(ra[0]))
        if type(b) is QI and ra == rb:
            assert hash(a) == hash(b)


# ---------------------------------------------------------------------------
# the representation: three ints (a + b*i)/d in canonical form


def parts_of(z):
    return z._a, z._b, z._d


def assert_canonical(z):
    a, b, d = parts_of(z)
    assert type(a) is int and type(b) is int and type(d) is int
    assert d > 0 and gcd(a, b, d) == 1
    assert type(z.re) is Fraction and type(z.im) is Fraction
    assert (z.re, z.im) == (F(a, d), F(b, d))
    # equal values have equal parts, however the value was reached
    w = QI(z.re, z.im)
    assert parts_of(w) == parts_of(z) and w == z and hash(w) == hash(z)
    if not b:
        assert z == z.re and z.re == z and hash(z) == hash(z.re)


@PROPERTY
@given(operands(), operands())
def test_parts_stay_canonical(x, y):
    (a, _), (b, _) = x, y
    if type(a) is not QI and type(b) is not QI:
        b = QI(b)
    results = []
    # either side may be the int or Fraction operand
    for u, v in ((a, b), (b, a)):
        results += [u + v, u - v, u * v]
        if v:
            results.append(u / v)
        else:
            with pytest.raises(ZeroDivisionError):
                u / v
    for u in (a, b):
        if type(u) is QI:
            results += [-u, (u + b) - b, u * 1, 0 - u]
            if u:
                results.append(u.inverse())
            else:
                with pytest.raises(ZeroDivisionError):
                    u.inverse()
    for z in results:
        assert_canonical(z)
    if type(a) is QI:
        assert parts_of((a + b) - b) == parts_of(a)


def test_construction_is_canonical():
    assert parts_of(QI()) == (0, 0, 1)
    assert parts_of(QI(F(2, 6), F(-1, 4))) == (4, -3, 12)
    assert parts_of(QI(F(3, 2), F(5, 2))) == (3, 5, 2)
    assert parts_of(QI(True, 0)) == (1, 0, 1)
    assert parts_of(QI("1/3")) == (1, 0, 3)
    # a product whose parts share a factor with the denominator
    assert parts_of(QI(F(1, 2), F(1, 2)) * QI(1, 1)) == (0, 1, 1)
    assert parts_of(QI(F(1, 2), F(1, 2)).inverse()) == (1, -1, 1)
    for z in (QI(F(2, 6), F(-1, 4)), QI(1, 1) / 3):
        assert_canonical(z)


def test_rational_operands_skip_the_fraction_constructor():
    # coerce, / and the reflected / take an int or Fraction as its parts
    # (a, 0, d); each result has the parts of the QI(Fraction(x)) path
    qs = (QI(1, 1), QI(F(3, 7), F(-2, 5)), QI(0, -2), QI(F(-5, 3)))
    for x in (1, -1, 7, -12, F(1), F(1, 2), F(-9, 4), True):
        old = QI(F(x))
        assert type(QI.coerce(x)) is QI
        assert parts_of(QI.coerce(x)) == parts_of(old)
        for q in qs:
            assert parts_of(q / x) == parts_of(q * old.inverse())
            assert parts_of(x / q) == parts_of(old * q.inverse())
    for zero in (0, F(0)):
        assert parts_of(QI.coerce(zero)) == (0, 0, 1)
        with pytest.raises(ZeroDivisionError):
            QI(1, 1) / zero
        with pytest.raises(ZeroDivisionError):
            QI.coerce(zero).inverse()
        assert parts_of(zero / QI(2, 1)) == (0, 0, 1)
    for x in (1, F(1), F(-1, 3)):
        with pytest.raises(ZeroDivisionError):
            x / QI(0)
