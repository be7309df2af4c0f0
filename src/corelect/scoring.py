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
``score_masks`` scores an array of committee bitmasks the same two ways,
as keys over one denominator: integers when every oracle has an integer
form, the exact values otherwise.  ``score`` and the marginals refuse a
committee holding an id the instance does not have
(``Instance.require_candidates``).
``harmonic`` keeps H(x) for x below 256 and at the multiples of 256, so
the memory it holds grows linearly in the largest x asked for.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Iterable

import numpy as np

from .errors import RuleMismatchError, as_frozen, exact_ints
from .exactnum import ExactValue, exact_floor, is_integral
from .model import AdditiveUtility, RationalUtility, evaluate_masks

RULES = ("pav", "snw", "gpav")


# H(0), ..., H(_STEP - 1) are kept in full, so the H of a small utility
# is one index; above them only H at the multiples of _STEP.  H(j) has
# about 1.44 j bits in each of its numerator and denominator, so keeping
# every prefix up to x would hold about 1.44 x^2 bits.
_STEP = 256
_HARMONIC = [Fraction(0)]  # H(0), H(1), ..., H(_STEP - 1), filled on demand
_CHECKPOINTS = [Fraction(0)]  # H(0), H(_STEP), H(2 * _STEP), ..., filled on demand


def _inverse_sum(a: int, b: int) -> tuple:
    """(p, q), unreduced, with p / q = 1/a + ... + 1/(b-1) for 0 < a < b,
    by binary splitting."""
    if b - a == 1:
        return 1, a
    (p, q), (r, s) = _inverse_sum(a, (a + b) // 2), _inverse_sum((a + b) // 2, b)
    return p * s + r * q, q * s


def harmonic(x: int) -> Fraction:
    """H(x) = 1 + 1/2 + ... + 1/x, with H(0) = 0."""
    if x < 0:
        raise ValueError("harmonic sums need a nonnegative integer")
    if x < _STEP:
        while len(_HARMONIC) <= x:
            _HARMONIC.append(_HARMONIC[-1] + Fraction(1, len(_HARMONIC)))
        return _HARMONIC[x]
    j, rest = divmod(x, _STEP)
    while len(_CHECKPOINTS) <= j:
        base = (len(_CHECKPOINTS) - 1) * _STEP
        step = Fraction(*_inverse_sum(base + 1, base + _STEP + 1))
        _CHECKPOINTS.append(_CHECKPOINTS[-1] + step)
    if not rest:
        return _CHECKPOINTS[j]
    return _CHECKPOINTS[j] + Fraction(*_inverse_sum(x - rest + 1, x + 1))


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


def _pav_mismatch() -> RuleMismatchError:
    return RuleMismatchError("pav requires integer utilities")


def _pav_term(x: ExactValue) -> Fraction:
    if not is_integral(x):
        raise _pav_mismatch()
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
    W = as_frozen(W)
    instance.require_candidates(W)
    voters = instance.utilities
    if all(isinstance(u, RationalUtility) for u in voters):
        return _integer_score(rule, voters, W)
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
                raise _pav_mismatch()
            rest += Fraction(r, u.scale * (q + 1))
    return Score(rule, sum((count * harmonic(q) for q, count in floors.items()), rest))


def score_masks(rule: str, instance, universe, masks) -> tuple:
    """(keys, den): the exact score of the committee of masks[j] (bit i
    standing for ``universe[i]``) is keys[j] / den, for a nonempty mask
    array; each voter is evaluated once, by ``model.evaluate_masks``.
    With every voter rational the keys are integers (int64 while a bound
    rules out overflow): snw's prod(D_i + t_i) over prod D_i, or pav's and
    gpav's H(q_i) + r_i / (D_i (q_i + 1)), q_i, r_i = divmod(t_i, D_i),
    summed over one common denominator.  Otherwise they are ``score``'s
    Fraction/Quad values over 1, one per distinct tuple of voter values.
    Raises what ``score`` raises on the first committee that fails."""
    term = _term(rule)
    integer = all(isinstance(u, RationalUtility) for u in instance.utilities)
    measured, fails = [], []  # fails: (committee, rank, voter, exception)
    for i, u in enumerate(instance.utilities):
        codes, values, errors = evaluate_masks(u, universe, masks)
        fails += [(j, 0, i, exc) for j, exc in errors.items()]
        if values is None and not integer:
            t, codes = np.unique(codes, return_inverse=True)
            values = [Fraction(x, u.scale) for x in t.tolist()]
        if rule == "pav":
            if values is None:
                odd = codes % u.scale != 0
            else:
                odd = np.isin(codes, [c for c, v in enumerate(values) if not is_integral(v)])
            hit = np.flatnonzero(odd)
            # integer score tests each voter as it reaches it; the exact
            # path evaluates every voter before it tests one for pav
            if len(hit):
                fails.append((int(hit[0]), int(not integer), i, _pav_mismatch()))
        measured.append((u, codes, values))
    if fails:
        raise min(fails, key=lambda fail: fail[:3])[3]
    if not integer:
        terms = [[term(v) for v in values] for _, _, values in measured]
        columns, at = np.unique(
            np.stack([codes for _, codes, _ in measured]), axis=1, return_inverse=True
        )
        keys = [_combine(rule, map(list.__getitem__, terms, col)) for col in columns.T.tolist()]
        return np.array(keys, dtype=object)[at.reshape(-1)], 1
    if rule == "snw":
        keys = den = bound = 1
        for u, t, _ in measured:
            bound *= u.scale + int(t.max())
            keys = keys * (exact_ints(t, bound) + u.scale)
            den *= u.scale
        return keys, den
    parts, den = [], 1
    for u, t, _ in measured:
        q = t // u.scale
        floors, at = np.unique(q, return_inverse=True)
        floors = floors.tolist()
        hs = [harmonic(f) for f in floors]
        for f, h in zip(floors, hs):
            den = math.lcm(den, h.denominator, u.scale * (f + 1))
        parts.append((u.scale, t - q * u.scale, at, floors, hs))
    keys = bound = 0
    for D, r, at, floors, hs in parts:
        # H(q) * den is largest at the largest q, and r * den / (D (q + 1)) < den
        bound += hs[-1].numerator * (den // hs[-1].denominator) + den
        h = exact_ints([h.numerator * (den // h.denominator) for h in hs], bound)
        share = exact_ints([den // (D * (f + 1)) for f in floors], bound)
        keys = keys + h[at] + exact_ints(r, bound) * share[at]
    return keys, den


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
    instance.require_candidates(W | {c})
    return _marginals(rule, instance, W, W | {c})


def marginal_remove(rule: str, instance, W: Iterable[int], c: int) -> Marginals:
    """nabla_c(W): change of score when c leaves W.  Requires c in W."""
    W = frozenset(W)
    if c not in W:
        raise ValueError(f"candidate {c} not in committee")
    instance.require_candidates(W)
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
