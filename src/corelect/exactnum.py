"""Exact numbers used throughout scoring and verification.

Plain rationals are ``fractions.Fraction``.  The parametric lower-bound
utilities additionally need the constant z = (3/4)^(beta/2), which is
irrational for odd beta.  ``Quad`` represents a + b*sqrt(d) with rational
a, b, d and supports exact arithmetic and comparisons, so every blocking
condition can be decided without floating point.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

ExactValue = Union[Fraction, "Quad"]


def parse_rational(text) -> Fraction:
    """Parse an int, "p/q" string, or decimal string into an exact Fraction."""
    if isinstance(text, bool):
        raise ValueError("booleans are not rationals")
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, Fraction):
        return text
    if isinstance(text, str):
        num, slash, den = text.partition("/")
        if slash and num.isascii() and num.isdigit() and den.isascii() and den.isdigit():
            return Fraction(int(num), int(den))
        return Fraction(text)  # handles "p/q" with signs or spaces, "3", and "2.71"
    raise ValueError(f"cannot parse rational from {text!r}")


def rational_to_json(value: Fraction):
    """Encode a Fraction as an int when integral, else a "p/q" string."""
    if not isinstance(value, Fraction):
        value = Fraction(value)
    num, den = value.as_integer_ratio()
    return num if den == 1 else f"{num}/{den}"


def _sqrt_if_perfect(fr: Fraction):
    """Return sqrt(fr) as a Fraction if fr is a perfect rational square."""
    if fr < 0:
        return None
    num = math.isqrt(fr.numerator)
    den = math.isqrt(fr.denominator)
    if num * num == fr.numerator and den * den == fr.denominator:
        return Fraction(num, den)
    return None


def int_sign(a: int, b: int, n: int) -> int:
    """Exact sign of a + b*sqrt(n) for integers a, b and a non-square n > 0."""
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return 1 if b > 0 else -1
    if (a > 0) == (b > 0):
        return 1 if a > 0 else -1
    # opposite signs: compare a^2 against b^2 n
    lhs, rhs = a * a, b * b * n
    if lhs == rhs:
        return 0  # impossible for non-square n, kept for safety
    if a > 0:  # b < 0: positive iff a^2 > b^2 n
        return 1 if lhs > rhs else -1
    return 1 if lhs < rhs else -1


class Quad:
    """Exact number a + b*sqrt(d) with rational a, b and d > 0 non-square.

    Closed under +, -, *, / and totally ordered; comparisons clear
    denominators and compare squares with sign tracking, so they are exact.
    Mixing two Quad values requires the same radicand d.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b, d):
        self.a = Fraction(a)
        self.b = Fraction(b)
        self.d = Fraction(d)
        if self.d <= 0:
            raise ValueError("radicand must be positive")

    @staticmethod
    def sqrt(d) -> ExactValue:
        """Exact sqrt(d): a Fraction when d is a perfect square, else a Quad."""
        d = Fraction(d)
        root = _sqrt_if_perfect(d)
        if root is not None:
            return root
        return Quad(0, 1, d)

    # requires other to be rational or a Quad over the same field
    def _coerce(self, other):
        if isinstance(other, Quad):
            if other.d != self.d:
                raise ValueError("cannot mix radicands")
            return other
        if isinstance(other, (int, Fraction)):
            return Quad(other, 0, self.d)
        return NotImplemented

    def _normalize(self):
        if self.b == 0:
            return self.a
        return self

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return Quad(self.a + o.a, self.b + o.b, self.d)._normalize()

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return Quad(self.a - o.a, self.b - o.b, self.d)._normalize()

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return Quad(o.a - self.a, o.b - self.b, self.d)._normalize()

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return Quad(
            self.a * o.a + self.b * o.b * self.d,
            self.a * o.b + self.b * o.a,
            self.d,
        )._normalize()

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        norm = o.a * o.a - o.b * o.b * o.d
        if norm == 0:
            # a^2 = b^2 d with d non-square forces a = b = 0
            raise ZeroDivisionError("division by zero")
        inv = Quad(o.a / norm, -o.b / norm, self.d)
        return self * inv

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o / self

    def __neg__(self):
        return Quad(-self.a, -self.b, self.d)

    def __pos__(self):
        return self

    def sign(self) -> int:
        """Exact sign of a + b*sqrt(d)."""
        a, b, d = self.a, self.b, self.d
        # times a.den * b.den * d.den > 0, with sqrt(d) = sqrt(d.num * d.den) / d.den
        return int_sign(
            a.numerator * b.denominator * d.denominator,
            b.numerator * a.denominator,
            d.numerator * d.denominator,
        )

    def _cmp(self, other) -> int:
        o = self._coerce(other)
        if o is NotImplemented:
            raise TypeError(f"cannot compare Quad with {type(other)}")
        return (self - o).sign() if isinstance(self - o, Quad) else (
            ((self - o) > 0) - ((self - o) < 0)
        )

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        if isinstance(other, Quad):
            return self.d == other.d and self.a == other.a and self.b == other.b
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __floor__(self) -> int:
        approx = math.floor(float(self.a) + float(self.b) * math.sqrt(float(self.d)))
        # correct the float guess with exact comparisons
        while self < approx:
            approx -= 1
        while self >= approx + 1:
            approx += 1
        return approx

    def __float__(self):
        return float(self.a) + float(self.b) * math.sqrt(float(self.d))

    def __repr__(self):
        return f"Quad({self.a} + {self.b}*sqrt({self.d}))"


def exact_floor(x: ExactValue) -> int:
    return math.floor(x)


def exact_ceil(x: ExactValue) -> int:
    f = exact_floor(x)
    return f if x == f else f + 1


def is_integral(x: ExactValue) -> bool:
    if isinstance(x, Quad):
        return x.b == 0 and x.a.denominator == 1
    return Fraction(x).denominator == 1
