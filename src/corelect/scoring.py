"""The three scoring rules, their marginals, and the additive Delta* quantity.

pav(W)  = sum_i H(u_i(W)) with H the harmonic sum (integer utilities only).
snw(W)  = sum_i ln(1 + u_i(W)); stored as the order-isomorphic exact
          comparable prod_i (1 + u_i(W)), never as a float.
gpav(W) = sum_i Phi(u_i(W)) with Phi(x) = H(floor x) + (x - floor x)/ceil x.

Each rule is one per-voter term: 1 + u for snw, H(u) for pav and Phi(u)
for gpav.  snw multiplies its terms, pav and gpav add theirs.  Marginals
for pav/gpav are exact term differences; snw marginals are ratios of
terms, so sign and ordering comparisons stay exact.

``score`` works on the voters' integer forms u_i = t_i / D_i whenever
every oracle has one: snw is prod(D_i + t_i) / prod(D_i), built as one
Fraction, and pav/gpav split each t_i by D_i into floor and remainder.
Instances with an ``LB00Utility`` voter take the exact Fraction/Quad path
over the terms, which ``marginal_add`` and ``marginal_remove`` share.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Iterable

from .errors import RuleMismatchError
from .exactnum import ExactValue, exact_floor, is_integral
from .model import AdditiveUtility, RationalUtility

RULES = ("pav", "snw", "gpav")


_HARMONIC = [Fraction(0)]  # H(0), H(1), ..., filled on demand


def harmonic(x: int) -> Fraction:
    """H(x) = 1 + 1/2 + ... + 1/x, with H(0) = 0."""
    if x < 0:
        raise ValueError("harmonic sums need a nonnegative integer")
    while len(_HARMONIC) <= x:
        _HARMONIC.append(_HARMONIC[-1] + Fraction(1, len(_HARMONIC)))
    return _HARMONIC[x]


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


def _pav_term(x: ExactValue) -> Fraction:
    if not is_integral(x):
        raise RuleMismatchError("pav requires integer utilities")
    return harmonic(int(x))


# each rule's per-voter term of u_i(W), and how the terms combine
_TERMS = {"pav": _pav_term, "snw": lambda x: 1 + x, "gpav": phi}


def _term(rule: str):
    if rule not in RULES:
        raise RuleMismatchError(f"unknown rule {rule!r}")
    return _TERMS[rule]


def _combine(rule: str, terms) -> ExactValue:
    """snw's product of its terms, or pav's and gpav's sum."""
    if rule == "snw":
        return reduce(operator.mul, terms, Fraction(1))
    return sum(terms, Fraction(0))


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
    term = _term(rule)
    voters = instance.utilities
    if all(isinstance(u, RationalUtility) for u in voters):
        return _integer_score(rule, voters, frozenset(W))
    return Score(rule, _combine(rule, map(term, _voter_values(instance, W))))


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
    term = _term(rule)
    change = operator.truediv if rule == "snw" else operator.sub
    pairs = zip(_voter_values(instance, after), _voter_values(instance, before))
    per = tuple(change(term(a), term(b)) for a, b in pairs)
    return Marginals(rule, per, _combine(rule, per))


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
