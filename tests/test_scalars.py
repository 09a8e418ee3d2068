import random
from fractions import Fraction

import pytest

from liedouble import (
    HALF_SQRT2,
    I_UNIT,
    MINUS_ONE,
    ONE,
    SQRT2,
    ZERO,
    Scalar,
    ScalarParseError,
    rational,
    scalar_parse,
)


def test_parse_literals():
    s = scalar_parse("1/2 + (1/2)*sqrt2")
    assert (s.a, s.b, s.c, s.d) == (Fraction(1, 2), Fraction(1, 2), 0, 0)
    s = scalar_parse("-i*sqrt2/2")
    assert (s.a, s.b, s.c, s.d) == (0, 0, 0, Fraction(-1, 2))
    assert scalar_parse("0") == ZERO
    assert scalar_parse(" - 3 / 4 ") == rational(-3, 4)
    assert scalar_parse("2*i*i") == rational(-2)


def test_multiplication():
    assert HALF_SQRT2 * HALF_SQRT2 == rational(1, 2)
    assert I_UNIT * I_UNIT == MINUS_ONE
    assert (ONE + I_UNIT * SQRT2) * (ONE - I_UNIT * SQRT2) == rational(3)
    assert SQRT2 * SQRT2 == rational(2)
    assert (I_UNIT * SQRT2) * (I_UNIT * SQRT2) == rational(-2)


def test_inverse():
    assert SQRT2.inverse() == HALF_SQRT2
    assert I_UNIT.inverse() == -I_UNIT
    assert (ONE + I_UNIT).inverse() == Scalar(Fraction(1, 2), 0, Fraction(-1, 2), 0)
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def _random_scalar(rng, height=6):
    def frac():
        return Fraction(rng.randint(-height, height), rng.randint(1, height))

    return Scalar(frac(), frac(), frac(), frac())


def test_field_axioms():
    rng = random.Random(20240817)
    for _ in range(200):
        x, y, z = (_random_scalar(rng) for _ in range(3))
        assert x + y == y + x
        assert x * y == y * x
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        if x:
            assert x * x.inverse() == ONE
        assert x + ZERO == x and x * ONE == x
        assert x - x == ZERO


def test_print_parse_roundtrip():
    rng = random.Random(7)
    samples = [ZERO, ONE, MINUS_ONE, SQRT2, -SQRT2, HALF_SQRT2, I_UNIT, -I_UNIT]
    samples += [_random_scalar(rng) for _ in range(100)]
    for value in samples:
        assert scalar_parse(str(value)) == value


def test_parse_canonicalizes():
    assert str(scalar_parse("2/4")) == "1/2"
    assert str(scalar_parse("i*i")) == "-1"
    assert str(scalar_parse("(1+i)*(1-i)")) == "2"
    assert str(scalar_parse("sqrt2*sqrt2*sqrt2")) == "2*sqrt2"
    assert str(scalar_parse("1/sqrt2")) == "1/2*sqrt2"


def test_canonical_printing():
    assert str(ZERO) == "0"
    assert str(Scalar(Fraction(1, 2), Fraction(1, 2))) == "1/2 + 1/2*sqrt2"
    assert str(Scalar(0, 0, 0, Fraction(-1, 2))) == "-1/2*i*sqrt2"
    assert str(Scalar(-1, 1, -1, 1)) == "-1 + sqrt2 - i + i*sqrt2"


def test_parse_errors_carry_position():
    with pytest.raises(ScalarParseError) as err:
        scalar_parse("1/0")
    assert err.value.position == 1
    with pytest.raises(ScalarParseError):
        scalar_parse("1/(2-2)")
    with pytest.raises(ScalarParseError):
        scalar_parse("sqrt3")
    with pytest.raises(ScalarParseError):
        scalar_parse("1 +")
    with pytest.raises(ScalarParseError):
        scalar_parse("(1")
    with pytest.raises(ScalarParseError):
        scalar_parse("")


@pytest.mark.parametrize("text, position", [("\u0663/\u0664", 0), ("3/\u0664", 2), ("\uff11", 0)])
def test_only_ascii_digits_are_numbers(text, position):
    with pytest.raises(ScalarParseError) as err:
        scalar_parse(text)
    assert err.value.position == position
    assert "unexpected character" in str(err.value)


def test_hash_and_int_coercion():
    assert Scalar(2) == 2
    assert 2 * HALF_SQRT2 == SQRT2
    assert hash(Scalar(1)) == hash(Scalar(Fraction(2, 2)))
    assert len({ONE, Scalar(1), SQRT2}) == 2
    assert len({ONE, 1}) == 1
    assert hash(rational(1, 2)) == hash(Fraction(1, 2))


def test_division_operators():
    assert (SQRT2 / SQRT2) == ONE
    assert (ONE / I_UNIT) == -I_UNIT
    assert (2 / Scalar(2)) == ONE
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_constructor_takes_only_exact_components():
    from decimal import Decimal

    assert Scalar(True, 2, Fraction(1, 3)) == Scalar(1, 2, Fraction(1, 3), 0)
    for inexact in (0.1, "1/2", Decimal("0.1"), 1j):
        with pytest.raises(TypeError, match="int or a Fraction"):
            Scalar(inexact)
        with pytest.raises(TypeError):
            Scalar(0, 0, 0, inexact)
