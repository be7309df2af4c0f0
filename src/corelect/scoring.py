"""The three scoring rules, their marginals, and the additive Delta* quantity.

pav(W)  = sum_i H(u_i(W)) with H the harmonic sum (integer utilities only).
snw(W)  = sum_i ln(1 + u_i(W)); stored as the order-isomorphic exact
          comparable prod_i (1 + u_i(W)), never as a float.
gpav(W) = sum_i Phi(u_i(W)) with Phi(x) = H(floor x) + (x - floor x)/ceil x.

Marginals for pav/gpav are exact score differences; snw marginals are
ratios of comparables, so sign and ordering comparisons stay exact.

``score`` works on the voters' integer forms u_i = t_i / D_i whenever
every oracle has one: snw is prod(D_i + t_i) / prod(D_i), built as one
Fraction, and pav/gpav split each t_i by D_i into floor and remainder.
Instances with an ``LB00Utility`` voter take the exact Fraction/Quad path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

from .errors import RuleMismatchError
from .exactnum import ExactValue, exact_floor, is_integral
from .model import AdditiveUtility, RationalUtility

RULES = ("pav", "snw", "gpav")


@lru_cache(maxsize=None)
def harmonic(x: int) -> Fraction:
    """H(x) = 1 + 1/2 + ... + 1/x, with H(0) = 0."""
    if x < 0:
        raise ValueError("harmonic sums need a nonnegative integer")
    if x == 0:
        return Fraction(0)
    return harmonic(x - 1) + Fraction(1, x)


def phi(x: ExactValue) -> ExactValue:
    """Interpolated harmonic score of a single utility value."""
    if x < 0:
        raise ValueError("utilities are nonnegative")
    if x == 0:
        return Fraction(0)
    fl = exact_floor(x)
    frac = x - fl
    if frac == 0:
        return harmonic(fl)
    return harmonic(fl) + frac / (fl + 1)


@dataclass(frozen=True)
class Score:
    """Exact comparable score; snw holds the product prod(1 + u_i)."""

    rule: str
    value: ExactValue

    def _check(self, other):
        if not isinstance(other, Score) or other.rule != self.rule:
            raise RuleMismatchError("scores of different rules are not comparable")

    def __lt__(self, other):
        self._check(other)
        return self.value < other.value

    def __le__(self, other):
        self._check(other)
        return self.value <= other.value

    def __gt__(self, other):
        self._check(other)
        return self.value > other.value

    def __ge__(self, other):
        self._check(other)
        return self.value >= other.value

    def ln_float(self) -> float:
        """Display-only decimal value (snw: natural log of the comparable)."""
        import math

        if self.rule == "snw":
            try:
                return math.log(float(self.value))
            except OverflowError:  # the product is beyond float range; logs of ints are not
                return math.log(self.value.numerator) - math.log(self.value.denominator)
        return float(self.value)


def _voter_values(instance, W):
    W = frozenset(W)
    return [instance.utility(i, W) for i in range(instance.n)]


def score(rule: str, instance, W: Iterable[int]) -> Score:
    """Exact score of committee W under the given rule."""
    if rule not in RULES:
        raise RuleMismatchError(f"unknown rule {rule!r}")
    voters = instance.utilities
    if all(isinstance(u, RationalUtility) for u in voters):
        return _integer_score(rule, voters, frozenset(W))
    values = _voter_values(instance, W)
    if rule == "pav":
        total = Fraction(0)
        for v in values:
            if not is_integral(v):
                raise RuleMismatchError("pav requires integer utilities")
            total += harmonic(int(v))
        return Score("pav", total)
    if rule == "snw":
        comparable: ExactValue = Fraction(1)
        for v in values:
            comparable = comparable * (1 + v)
        return Score("snw", comparable)
    total = Fraction(0)
    for v in values:
        total = phi(v) + total
    return Score("gpav", total)


def _integer_score(rule, voters, W) -> Score:
    """``score`` from each voter's integer form u_i(W) = t_i / D_i."""
    if rule == "snw":
        num = den = 1
        for u in voters:
            num *= u.scale + u.numerator(W)
            den *= u.scale
        return Score("snw", Fraction(num, den))
    # Phi(t/D) = H(q) + r / (D * (q + 1)) with q, r = divmod(t, D)
    floors: dict = {}
    rest = Fraction(0)
    for u in voters:
        q, r = divmod(u.numerator(W), u.scale)
        floors[q] = floors.get(q, 0) + 1
        if r:
            if rule == "pav":
                raise RuleMismatchError("pav requires integer utilities")
            rest += Fraction(r, u.scale * (q + 1))
    return Score(rule, sum((count * harmonic(q) for q, count in floors.items()), rest))


@dataclass(frozen=True)
class Marginals:
    """Per-voter and total marginal for one add/remove step.

    pav/gpav: per_voter are score differences and total is their sum.
    snw: per_voter are factors (1+u')/(1+u) and total is their product,
    i.e. the ratio of the snw comparables.
    """

    rule: str
    per_voter: tuple
    total: ExactValue


def _marginals(rule, instance, before, after):
    if rule not in RULES:
        raise RuleMismatchError(f"unknown rule {rule!r}")
    vb = _voter_values(instance, before)
    va = _voter_values(instance, after)
    if rule == "snw":
        per = tuple((1 + a) / (1 + b) for a, b in zip(va, vb))
        total: ExactValue = Fraction(1)
        for f in per:
            total = total * f
        return Marginals("snw", per, total)
    scorer = (lambda v: harmonic(int(v))) if rule == "pav" else phi
    if rule == "pav":
        for v in va + vb:
            if not is_integral(v):
                raise RuleMismatchError("pav requires integer utilities")
    per = tuple(scorer(a) - scorer(b) for a, b in zip(va, vb))
    return Marginals(rule, per, sum(per, Fraction(0)))


def marginal_add(rule: str, instance, W: Iterable[int], c: int) -> Marginals:
    """Delta_c(W): change of score when c joins W.  Requires c not in W."""
    W = frozenset(W)
    if c in W:
        raise ValueError(f"candidate {c} already in committee")
    return _marginals(rule, instance, W, W | {c})


def marginal_remove(rule: str, instance, W: Iterable[int], c: int) -> Marginals:
    """nabla_c(W): change of score when c leaves W.  Requires c in W."""
    W = frozenset(W)
    if c not in W:
        raise ValueError(f"candidate {c} not in committee")
    return _marginals(rule, instance, W - {c}, W)


def delta_star(instance, W: Iterable[int], c: int, S: Iterable[int]) -> Fraction:
    """sum over i in S of u_i(c) / (u_i(W) + 1), for additive utilities."""
    W = frozenset(W)
    total = Fraction(0)
    for i in S:
        u = instance.utilities[i]
        if not isinstance(u, AdditiveUtility):
            raise RuleMismatchError("delta_star is defined for additive utilities")
        total += u.weights.get(c, Fraction(0)) / (instance.utility(i, W) + 1)
    return total
