import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corelect.exactnum import (
    Quad,
    exact_ceil,
    exact_floor,
    int_sign,
    is_integral,
    parse_rational,
    rational_to_json,
)


def test_parse_rational_forms():
    assert parse_rational(3) == Fraction(3)
    assert parse_rational("5/7") == Fraction(5, 7)
    assert parse_rational("2.71") == Fraction(271, 100)
    with pytest.raises(ValueError):
        parse_rational(True)
    for text in ("1/0", "-1/0", " 3/0"):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_rational(text)


def test_rational_json_round_trip():
    assert rational_to_json(Fraction(4)) == 4
    assert rational_to_json(Fraction(3, 7)) == "3/7"
    assert parse_rational(rational_to_json(Fraction(-9, 4))) == Fraction(-9, 4)


def test_sqrt_perfect_square_collapses():
    assert Quad.sqrt(Fraction(9, 16)) == Fraction(3, 4)
    assert isinstance(Quad.sqrt(Fraction(9, 16)), Fraction)
    z = Quad.sqrt(Fraction(3, 4))
    assert isinstance(z, Quad)


def test_quad_arithmetic_and_square():
    z = Quad.sqrt(Fraction(3, 4) ** 5)
    assert z * z == Fraction(3, 4) ** 5
    assert (1 - z) + z == 1
    assert (2 * z) / z == 2
    assert (z + Fraction(1, 2)) - Fraction(1, 2) == z


def test_quad_comparisons_match_floats():
    z = Quad.sqrt(Fraction(3, 4) ** 5)  # about 0.487139
    assert Fraction(48, 100) < z < Fraction(49, 100)
    assert z > 0
    assert -z < 0
    assert not z < z
    assert z <= z


def test_quad_division_by_conjugate():
    z = Quad.sqrt(Fraction(3))
    inv = 1 / (1 + z)
    assert inv * (1 + z) == 1
    with pytest.raises(ZeroDivisionError):
        Quad(1, 1, 2) / Quad(0, 0, 2)
    with pytest.raises(ZeroDivisionError):
        Quad(1, 1, 2) / 0


def test_quad_floor_and_ceil():
    z = Quad.sqrt(Fraction(3))  # 1.732...
    assert math.floor(z) == 1
    assert exact_ceil(z) == 2
    assert exact_floor(10 * z) == 17
    assert exact_floor(-z) == -2
    assert exact_floor(Fraction(7, 2)) == 3
    assert exact_ceil(Fraction(4)) == 4


def test_is_integral():
    assert is_integral(Fraction(6, 3))
    assert not is_integral(Fraction(1, 3))
    assert not is_integral(Quad.sqrt(Fraction(2)))


def test_mixed_radicands_rejected():
    a = Quad.sqrt(Fraction(2))
    b = Quad.sqrt(Fraction(3))
    with pytest.raises(ValueError):
        _ = a + b


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.integers(-(10**6), 10**6),
    st.integers(-(10**6), 10**6),
    st.integers(2, 10**4).filter(lambda n: math.isqrt(n) ** 2 != n),
)
def test_int_sign_matches_high_precision_sign(a, b, n):
    # |a + b sqrt(n)| >= 1 / (|a| + |b| sqrt(n)) unless a = b = 0, far above 60 digits
    with mpmath.workdps(60):
        assert int_sign(a, b, n) == mpmath.sign(a + b * mpmath.sqrt(n))
