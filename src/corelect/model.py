"""Election instances and utility-function oracles.

All utility values are exact (Fraction, or Quad for the parametric
lower-bound family with odd exponent).  Every rational oracle (approval,
additive, coverage, xos, table) has one integer form: a fixed positive
integer ``scale`` D, the lcm of its weight denominators computed once at
construction (1 for approval), and ``numerator(T)``, the integer D*u(T);
``value(T)`` is ``Fraction(numerator(T), scale)``.  A kind may also have
a kernel, which evaluates an array of bitmasks of any width at once:
``numerators`` (approval, additive, coverage, xos) or ``count_values``
(lb00, one exact value per pair of party counts).  ``evaluate_masks`` is
the one place that picks a kernel or the mask-by-mask ``numerator`` or
``value`` calls that define it; the subset table and ``meets_threshold``
(the verifiers' per-voter tests) read its result.  Each kind declares
``FIELDS``, its constructor's parameter names and the keys of its JSON
object, and ``fields()``, their values in exact canonical form; ``key``,
``to_json`` and ``from_json`` derive from these alone.  ``LB00Utility``
has no integer form; code that compares utilities picks its exact
Fraction/Quad path by the oracle's type.

``gain_threshold`` decides the blocking test u(T) >= gamma*(u(W)+1) of
the core notions on integers: t(T) >= ceil(gamma*(t(W)+D)) with
t = numerator.  ``Instance.utility`` is a plain ``value`` call: there is
no per-instance value cache, so memory stays bounded.

Every oracle satisfies u(empty) = 0, and the two axioms every voter
utility must obey -- monotonicity and the unit-Lipschitz bound -- can be
checked exhaustively at desk scale with ``check_axioms``.

The exhaustive checks (``check_axioms``, ``self_bounding_constant`` and
the exact sampling checks in ``corelect.sampling``) evaluate each subset
once, into an integer table indexed by bitmask: numpy columns of values
over one common denominator, with a second column for the sqrt part of
Quad values, int64 while a checked bound rules out overflow and exact
Python ints otherwise.  The table is filled one size layer at a time,
through ``evaluate_masks``, and the sweeps run on its arrays a layer or a
block at a time.  Every comparison is an integer sign test, and only the
returned value is built as a Fraction or Quad.  There is one table per
oracle and universe, shared across these calls: the most recent table is
kept, so a sweep that follows another on the same oracle object and
universe evaluates no subset twice and reuses beta* and the sampling
expectations.  Only that one table is kept, so the memory held between
calls is at most one table (16 MB of int64 at m = 20) and the canonical
mask order of the four most recent universe sizes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from .constraints import CardinalityFamily
from .errors import (
    INT64_BOUND,
    WORK_LIMIT,
    InfeasibleInstanceError,
    MalformedUtilityError,
    as_frozen,
    canonical,
    exact_ints,
    indices,
    mask_array,
    mask_of,
    member_matrix,
    members,
    popcount,
    require_work,
    subsets,
    words,
)
from .exactnum import ExactValue, Quad, parse_rational, rational_to_json


def _common_denominator(weights: Iterable[Fraction]) -> int:
    # pairwise: a call that unpacks a generator builds its argument tuple
    # by resizing, and CPython then keeps the freed tuple on a free list
    # that only a full garbage collection empties
    return functools.reduce(math.lcm, (w.denominator for w in weights), 1)


def _scaled(weights: dict, D: int) -> dict:
    """The same weights as integers over the common denominator D."""
    return {key: w.numerator * (D // w.denominator) for key, w in weights.items()}


# masks per block of a layer: a block's (masks x members) matrices hold
# at most this many entries, 16 KB of int64
_BLOCK = 2048


def _blocks(masks, width: int):
    """(start, slice) of ``masks`` in consecutive slices of at most
    ``_BLOCK // width`` rows; an empty array is one empty slice, so a
    kernel always has a part to concatenate."""
    rows = max(1, _BLOCK // max(width, 1))
    return ((start, masks[start : start + rows]) for start in range(0, max(len(masks), 1), rows))


def _by_blocks(masks, m: int, width: int, f):
    """f of the (masks x m) 0/1 member matrix, bit i of each mask in
    column i, in row blocks whose matrices of ``width`` columns stay
    within ``_BLOCK`` entries."""
    parts = [f(member_matrix(rows, m)) for _, rows in _blocks(words(masks, m), width)]
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def weighted_sums(weights: list, masks):
    """The sum of ``weights[i]`` over the set bits i of each mask, exact:
    int64 while the total weight fits, Python ints otherwise."""
    w = exact_ints(weights, sum(weights))
    return _by_blocks(masks, len(weights), len(weights), lambda members: members @ w)


def rng_from_seed(seed: int) -> np.random.Generator:
    """Named, versioned, splittable PRNG (Philox counter-based)."""
    return np.random.Generator(np.random.Philox(key=int(seed)))


def floored_endowment(size: int, k: int, n: int) -> int:
    """k' = floor(size * k / n): the seats a coalition of ``size`` of the n
    voters may claim from a committee of k."""
    return size * k // n


def _json_value(v):
    """A field value as JSON: tuples as lists, frozensets of ids as sorted
    lists, ints and strings as they are, rationals as ``rational_to_json``."""
    if isinstance(v, tuple):
        return [_json_value(x) for x in v]
    if isinstance(v, frozenset):
        return sorted(v)
    # not isinstance(v, Fraction): that check is slow on an int
    return v if isinstance(v, (int, str)) else rational_to_json(v)


class UtilityFunction:
    """Base class for voter utility oracles.  Immutable after construction.
    A kind is declared by ``kind``, ``FIELDS`` and ``fields()``."""

    kind: str = "abstract"
    FIELDS: tuple = ()

    def value(self, T: Iterable[int]) -> ExactValue:
        raise NotImplementedError

    def fields(self) -> tuple:
        """The values of ``FIELDS``, in order, in a canonical, exact and
        hashable form: sorted tuples, frozensets of ids, ints, strings and
        Fractions."""
        raise NotImplementedError

    def key(self):
        """Canonical hashable identity, used for memoizing verifier verdicts."""
        return (self.kind, *self.fields())

    def to_json(self) -> dict:
        return {"kind": self.kind, **dict(zip(self.FIELDS, map(_json_value, self.fields())))}

    @classmethod
    def from_json(cls, obj: dict):
        """The oracle of a JSON object: each field is passed as it is."""
        return cls(**{f: obj[f] for f in cls.FIELDS})

    def __eq__(self, other):
        return isinstance(other, UtilityFunction) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"<{type(self).__name__} {self.key()!r}>"


class RationalUtility(UtilityFunction):
    """An oracle with an integer form: u(T) = numerator(T) / scale exactly,
    for a positive integer ``scale`` fixed at construction.

    Each subclass binds ``value`` in its own namespace, so a profiler that
    patches methods class by class still tells the kinds apart.
    """

    scale: int = 1

    def numerator(self, T: Iterable[int]) -> int:
        raise NotImplementedError

    def value(self, T):
        return Fraction(self.numerator(T), self.scale)


class ApprovalUtility(RationalUtility):
    kind = "approval"
    FIELDS = ("approved",)

    def __init__(self, approved: Iterable[int]):
        self.approved = frozenset(int(c) for c in approved)

    def numerator(self, T):
        return len(self.approved.intersection(T))

    def numerators(self, universe, masks):
        return popcount(masks & mask_of(universe, self.approved))

    value = RationalUtility.value

    def fields(self):
        return (self.approved,)


class AdditiveUtility(RationalUtility):
    """Additive utility with per-candidate weights in [0, 1]."""

    kind = "additive"
    FIELDS = ("weights",)

    def __init__(self, weights):
        self.weights = {}
        for cand, w in dict(weights).items():
            w = parse_rational(w)
            if not 0 <= w.numerator <= w.denominator:
                raise MalformedUtilityError(
                    f"additive weight {w} for candidate {cand} outside [0, 1]"
                )
            if w != 0:
                self.weights[int(cand)] = w
        self.scale = _common_denominator(self.weights.values())
        self._int_weights = _scaled(self.weights, self.scale)

    def numerator(self, T):
        weights = self._int_weights
        return sum(weights[c] for c in as_frozen(T) if c in weights)

    def numerators(self, universe, masks):
        return weighted_sums([self._int_weights.get(c, 0) for c in universe], masks)

    value = RationalUtility.value

    def fields(self):
        return (tuple(sorted(self.weights.items())),)


class CoverageUtility(RationalUtility):
    """Weighted set cover: candidate j covers element set E_j.

    Per-candidate covered weight is capped at 1 so the Lipschitz axiom
    holds by construction; coverage functions are monotone submodular.
    """

    kind = "coverage"
    FIELDS = ("covers", "element_weights")

    def __init__(self, covers, element_weights):
        self.element_weights = {}
        for e, w in dict(element_weights).items():
            w = parse_rational(w)
            if w.numerator < 0:
                raise MalformedUtilityError(f"element weight {w} negative")
            self.element_weights[int(e)] = w
        self.scale = _common_denominator(self.element_weights.values())
        self._int_weights = weights = _scaled(self.element_weights, self.scale)
        self.covers = {}
        for cand, elems in dict(covers).items():
            elems = frozenset(int(e) for e in elems)
            total = sum(weights.get(e, 0) for e in elems)
            if total > self.scale:
                raise MalformedUtilityError(
                    f"candidate {cand} covers weight {Fraction(total, self.scale)} > 1 "
                    "(breaks Lipschitz)"
                )
            self.covers[int(cand)] = elems

    def numerator(self, T):
        covered = set()
        for c in as_frozen(T):
            covered |= self.covers.get(c, frozenset())
        weights = self._int_weights
        return sum(weights[e] for e in covered if e in weights)

    def numerators(self, universe, masks):
        # an element counts once a mask holds one of the members covering it
        holders = {}
        for i, c in enumerate(universe):
            for e in self.covers.get(c, ()):
                holders[e] = holders.get(e, 0) | 1 << i
        m = len(universe)
        held = words(mask_array(list(holders.values()), m), m).T  # word j of each in row j
        w = [self._int_weights.get(e, 0) for e in holders]
        w = exact_ints(w, sum(w))
        parts = []
        for _, block in _blocks(words(masks, m)[:, None], len(w)):
            hit = (block[..., 0] & held[0]) != 0
            for j in range(1, len(held)):  # word by word
                hit |= (block[..., j] & held[j]) != 0
            parts.append(hit @ w)
        return np.concatenate(parts)

    value = RationalUtility.value

    def fields(self):
        return tuple(sorted(self.covers.items())), tuple(sorted(self.element_weights.items()))


class XOSUtility(RationalUtility):
    """Max over additive clauses; clause weights lie in [0, 1]."""

    kind = "xos"
    FIELDS = ("clauses",)

    def __init__(self, clauses: Sequence):
        if not clauses:
            raise MalformedUtilityError("xos utility needs at least one clause")
        self.clauses = []
        for clause in clauses:
            cleaned = {}
            for cand, w in dict(clause).items():
                w = parse_rational(w)
                if not 0 <= w.numerator <= w.denominator:
                    raise MalformedUtilityError(f"xos clause weight {w} outside [0, 1]")
                if w != 0:
                    cleaned[int(cand)] = w
            self.clauses.append(cleaned)
        # one denominator across all clauses, so the max is taken over integers
        self.scale = _common_denominator(w for cl in self.clauses for w in cl.values())
        self._int_clauses = [_scaled(cl, self.scale) for cl in self.clauses]

    def numerator(self, T):
        T = as_frozen(T)
        best = 0
        for clause in self._int_clauses:
            s = sum(clause[c] for c in T if c in clause)
            if s > best:
                best = s
        return best

    def numerators(self, universe, masks):
        w = [[clause.get(c, 0) for clause in self._int_clauses] for c in universe]
        bound = max(map(sum, zip(*w)), default=0)  # the largest clause total
        w = exact_ints(w, bound).reshape(len(universe), len(self._int_clauses))
        width = max(len(universe), len(self._int_clauses))
        return _by_blocks(masks, len(universe), width, lambda members: (members @ w).max(axis=1))

    value = RationalUtility.value

    def fields(self):
        return (tuple(tuple(sorted(cl.items())) for cl in self.clauses),)


class TableUtility(RationalUtility):
    """Explicit subset table for small universes (m <= 20)."""

    kind = "table"
    FIELDS = ("entries",)

    def __init__(self, entries):
        if not isinstance(entries, dict):  # [subset, value] pairs, as in JSON
            entries = {frozenset(s): v for s, v in entries}
        self.entries = {}
        for subset, v in entries.items():
            subset = frozenset(int(c) for c in subset)
            v = parse_rational(v)
            if v < 0:
                raise MalformedUtilityError(f"table value {v} negative")
            self.entries[subset] = v
        if frozenset() in self.entries and self.entries[frozenset()] != 0:
            raise MalformedUtilityError("table must assign 0 to the empty set")
        self.scale = _common_denominator(self.entries.values())
        self._int_entries = _scaled(self.entries, self.scale)

    def numerator(self, T):
        T = as_frozen(T)
        if not T:
            return 0
        if T not in self._int_entries:
            raise MalformedUtilityError(f"table has no entry for {sorted(T)}")
        return self._int_entries[T]

    value = RationalUtility.value

    def fields(self):
        return (tuple(sorted(self.entries.items(), key=lambda kv: canonical(kv[0]))),)


class LB00Utility(UtilityFunction):
    """Parametric two-party utility (r/beta) * (x_p^beta + z*(1-x_p^beta)*x_q^beta).

    x_p is the fraction of party p's r candidates chosen, and
    z = (3/4)^(beta/2).  For odd beta, z is irrational; the value is then a
    Quad over sqrt((3/4)^beta) and all comparisons stay exact.
    """

    kind = "lb00"
    FIELDS = ("beta", "r", "role", "party_of")

    def __init__(self, beta: int, r: int, role, party_of):
        # read with int(), as JSON may carry them as strings
        self.beta, self.r = int(beta), int(r)
        if self.beta < 1:
            raise MalformedUtilityError("beta must be an integer >= 1")
        if self.r < 1:
            raise MalformedUtilityError("r must be an integer >= 1")
        p, q, *_ = role
        self.role = (str(p), str(q))
        self.party_of = {int(c): str(party) for c, party in dict(party_of).items()}
        self.z = Quad.sqrt(Fraction(3, 4) ** self.beta)
        self._cache: dict = {}

    def _counts(self, T: frozenset) -> tuple:
        p, q = self.role
        cp = cq = 0
        for c in T:
            party = self.party_of.get(c)
            if party == p:
                cp += 1
            elif party == q:
                cq += 1
        return cp, cq

    def value(self, T):
        return self._value_at(*self._counts(as_frozen(T)))

    def _value_at(self, cp: int, cq: int) -> ExactValue:
        """u at cp members of party p and cq of party q."""
        cached = self._cache.get((cp, cq))
        if cached is not None:
            return cached
        xpb = Fraction(cp, self.r) ** self.beta
        xqb = Fraction(cq, self.r) ** self.beta
        factor = Fraction(self.r, self.beta)
        if isinstance(self.z, Quad):
            # odd beta: z = sqrt(d), so the value is a + b*sqrt(d) term by term
            b = factor * (1 - xpb) * xqb
            val = Quad(factor * xpb, b, self.z.d) if b else factor * xpb
        else:
            val = factor * (xpb + self.z * (1 - xpb) * xqb)
        self._cache[cp, cq] = val
        return val

    def count_values(self, universe, masks) -> tuple:
        """(codes, values): u at masks[i] is values[codes[i]].  A code packs
        the party-p and party-q counts, so u is evaluated once per count
        pair present, at most (r + 1)^2 exact values; a code no mask has
        holds 0."""
        p, q = self.role
        # as in ``_counts``, a role (p, p) counts each member for p only
        p_bits = mask_of(universe, {c for c, party in self.party_of.items() if party == p})
        q_bits = mask_of(universe, {c for c, party in self.party_of.items() if party == q != p})
        width = q_bits.bit_count() + 1
        codes = popcount(masks & p_bits) * width
        codes += popcount(masks & q_bits)
        hits = np.bincount(codes).tolist()
        values = [self._value_at(*divmod(code, width)) if n else 0 for code, n in enumerate(hits)]
        return codes, values

    def fields(self):
        return (self.beta, self.r, self.role, tuple(sorted(self.party_of.items())))


def evaluate(u: UtilityFunction, T: Iterable[int]) -> ExactValue:
    """Exact utility of committee T.  Pure; u(empty) = 0."""
    return u.value(as_frozen(T))


def exact_measure(u: UtilityFunction):
    """A function of T ordered exactly as u(T): the integer ``numerator``
    of an oracle with an integer form, ``value`` otherwise."""
    return u.numerator if isinstance(u, RationalUtility) else u.value


def gain_threshold(u: UtilityFunction, W: Iterable[int], gamma) -> tuple:
    """(measure, bar) with u(T) >= gamma * (u(W) + 1) exactly when
    measure(T) >= bar, for a rational gamma (int or Fraction).

    With an integer form D*u = t the test is t(T) >= gamma*(t(W) + D),
    and t(T) is an integer, so bar = ceil(gamma.num*(t(W) + D)/gamma.den).
    Otherwise measure is ``u.value`` and bar the exact gamma*(u(W) + 1).
    """
    W = as_frozen(W)
    if isinstance(u, RationalUtility):
        need = gamma.numerator * (u.numerator(W) + u.scale)
        return u.numerator, -(-need // gamma.denominator)
    return u.value, gamma * (u.value(W) + 1)


@dataclass
class AxiomWitness:
    subset: frozenset
    candidate: int

    def as_json(self):
        return {"subset": sorted(self.subset), "candidate": self.candidate}


@dataclass
class AxiomReport:
    monotone: bool
    monotone_witness: Optional[AxiomWitness]
    lipschitz: bool
    lipschitz_witness: Optional[AxiomWitness]
    exhaustive: bool
    checked: int

    @property
    def ok(self):
        return self.monotone and self.lipschitz


def _sampled_subsets(universe: Sequence[int], budget: int, seed: int):
    rng = rng_from_seed(seed)
    universe = sorted(universe)
    for _ in range(budget):
        mask = rng.integers(0, 2, size=len(universe))
        yield frozenset(c for c, bit in zip(universe, mask) if bit)


@functools.lru_cache(maxsize=4)
def _layers(m: int, top: Optional[int] = None) -> tuple:
    """The bitmasks over m bits of each size 0..top (default m), as
    read-only arrays of ``mask_array`` in the order in which ``subsets``
    yields their members (bit i standing for the i-th member).  Kept for
    the four most recent (m, top); a top of m or more shares the layers
    of (m, None)."""
    if top is not None and top >= m:
        return _layers(m)
    layers = [mask_array([0], m)]
    for s in range(1, m + 1 if top is None else top + 1):
        # lowest member i: bit i joined to the size s - 1 masks whose
        # members all exceed i, which end that layer
        below = layers[-1]
        layers.append(
            np.concatenate(
                [below[len(below) - math.comb(m - 1 - i, s - 1) :] | 1 << i for i in range(m)]
            )
        )
    for x in layers:
        x.flags.writeable = False
    return tuple(layers)


def _layer_method(u: UtilityFunction, name: str):
    """u's bound kernel ``name``, or None when u's class lacks it or
    overrides the ``numerator`` or ``value`` it stands for."""
    cls = type(u)
    owner = next((base for base in cls.__mro__ if name in vars(base)), None)
    if owner is None or any(
        getattr(cls, method, None) is not getattr(owner, method, None)
        for method in ("numerator", "value")
    ):
        return None
    return getattr(u, name)


def may_raise(u: UtilityFunction) -> bool:
    """Can an evaluation of u raise ``MalformedUtilityError``?  Only when
    u's kind has no kernel; a kind with one never raises, and its kernel
    reads masks of every width."""
    return all(_layer_method(u, name) is None for name in ("numerators", "count_values"))


def evaluate_masks(u: UtilityFunction, universe: Sequence[int], masks, committees=None):
    """(codes, values, errors): u's ``exact_measure`` at the committee of
    masks[j] (bit i standing for ``universe[i]``) is codes[j] when
    ``values`` is None, else values[codes[j]].

    At every mask width, the kernel of u's kind when it has one: ``numerators``
    (integers) or ``count_values`` (lb00, one value per pair of party
    counts).  Otherwise u is evaluated mask by mask on ``committees()``,
    the members of each mask (built from the masks when not given):
    integers for a ``RationalUtility``, else one value per mask, and
    ``errors`` maps the position of each mask whose evaluation raised
    ``MalformedUtilityError`` to its exception; its measure reads 0."""
    numerators = _layer_method(u, "numerators")
    if numerators is not None:
        return numerators(universe, masks), None, {}
    count_values = _layer_method(u, "count_values")
    if count_values is not None:
        return (*count_values(universe, masks), {})
    measure = exact_measure(u)
    if committees is None:
        committees = [members(universe, mask) for mask in masks.tolist()]
    else:
        committees = committees()
    results, errors = [], {}
    for j, T in enumerate(committees):
        try:
            results.append(measure(T))
        except MalformedUtilityError as exc:
            errors[j] = exc
            results.append(0)
    if isinstance(u, RationalUtility):
        return np.array(results, dtype=object), None, errors
    return np.arange(len(results)), results, errors


def meets_threshold(
    u: UtilityFunction, universe: Sequence[int], masks, bar, strict=False, committees=None
):
    """(ok, errors): ok[j] tells whether measure(T) >= bar, or > bar when
    ``strict``, for the committee T of ``masks[j]`` and measure =
    ``exact_measure(u)``, so that ``bar`` is ``gain_threshold``'s.  The
    measures come from ``evaluate_masks``, which also defines
    ``committees`` and ``errors`` (ok is False at an error)."""
    if not len(masks):
        return np.zeros(0, dtype=bool), {}
    codes, values, errors = evaluate_masks(u, universe, masks, committees)
    if values is None:
        ok = codes > bar if strict else codes >= bar
    else:
        ok = np.array([v > bar if strict else v >= bar for v in values], dtype=bool)[codes]
    ok[list(errors)] = False
    return ok, errors


def _positive(x, y, n: int):
    """x + y*sqrt(n) > 0 elementwise, for integer arrays and a non-square
    n > 0: with opposite signs the part with the larger square wins."""
    xx, yyn = x * x, y * y * n
    return (x > 0) & ((y >= 0) | (xx > yyn)) | (y > 0) & (yyn > xx)


class _SubsetTable:
    """u over the subsets of a sorted, distinct universe, one evaluation
    per subset of each size layer filled.

    Bit i of a mask stands for ``universe[i]``, and u(mask) equals
    (rat[mask] + irr[mask] * sqrt(radicand)) / den with integers only;
    ``irr`` stays all zeros, and ``radicand`` 1, while every value is
    rational.  A Quad value a + b*sqrt(d) has radicand d.num * d.den, so
    sqrt(d) = sqrt(radicand) / d.den.  ``at`` returns Python ints.

    Storage: ``rat`` and ``irr`` are numpy arrays of 2^m entries.  Their
    dtype is int64 while the largest magnitudes stored, R in ``rat`` and
    I in ``irr``, keep (2R + den)^2 and (2I)^2 * radicand below 2^63, and
    ``object`` (exact Python ints) from the first store or ``_grow`` that
    breaks that bound.  Under it no sweep overflows: a neighbour
    difference less den is at most 2R + den, and the sign of d + e*sqrt(n)
    compares d^2 with e^2 * n.

    Filling: each size layer is evaluated by ``evaluate_masks``, in one
    step with the kernel of u's kind, otherwise subset by subset, which
    defines the table; integers are stored over u's ``scale``, exact
    values by code.  Evaluations that raised ``MalformedUtilityError`` are
    kept in ``errors``, in the order that filling every layer from size 0
    up evaluates them, and raised again by ``require`` when a sweep
    reaches them.

    There is one table per oracle and universe: ``of`` returns it to every
    exhaustive sweep, and each sweep fills only the layers it still lacks,
    so no subset is evaluated twice.  beta* (``beta_star``) and the
    sampling expectation for each alpha (``expectations``, valid for the
    current ``den``) are kept on it.  Only the most recent table is kept
    between calls, so the memory held is one table, not one per oracle.
    The oracle is matched by identity: oracles are immutable, and a
    ``key()`` would cost a hash on every call.
    """

    __slots__ = (
        "u", "universe", "rat", "irr", "den", "radicand", "field", "errors", "layers",
        "beta_star", "expectations", "_peak",
    )

    _recent = None  # the one table kept between calls

    def __init__(self, u: UtilityFunction, universe: Sequence[int]):
        self.u = u
        self.universe = tuple(universe)
        self.rat = np.zeros(1 << len(universe), dtype=np.int64)
        self.irr = np.zeros(len(self.rat), dtype=np.int64)
        self.den = 1
        self.radicand = 1
        self.field = None  # the d of u's Quad values
        self.errors = {}
        self.layers = set()  # the sizes filled so far
        self.beta_star = None
        self.expectations = {}  # alpha -> (a, b, den), see sampling._expectation
        self._peak = [0, 0]  # the largest |rat| and |irr| stored

    @classmethod
    def of(cls, u: UtilityFunction, universe: Sequence[int], sizes=None) -> "_SubsetTable":
        """The table of u over ``universe`` with the given size layers
        (every layer by default) filled: the kept table if it is of this
        oracle object and universe, otherwise a new one that replaces it."""
        universe = tuple(universe)
        table = cls._recent
        if table is None or table.u is not u or table.universe != universe:
            table = cls._recent = None  # frees the kept table before the new one is built
            table = cls._recent = cls(u, universe)
        table.fill(range(len(universe) + 1) if sizes is None else sizes)
        return table

    def fill(self, sizes):
        """Evaluate u on every subset of each of the given sizes that is not
        filled yet."""
        sizes = [size for size in sizes if size not in self.layers]
        if not sizes:
            return
        self.layers.update(sizes)
        layers = _layers(len(self.universe))
        for size in sizes:
            masks = layers[size]
            layer = functools.partial(subsets, self.universe, (size,))
            self._store(masks, *evaluate_masks(self.u, self.universe, masks, layer))
        errors = self.errors
        if errors:
            # layers may arrive in any order; keep the errors in canonical
            # order, so every call raises the same one first
            order = sorted(errors, key=lambda x: canonical(indices(x)))
            self.errors = {mask: errors[mask] for mask in order}

    def _store(self, masks, codes, values, errors):
        """Store ``evaluate_masks``' result at ``masks``: integers over u's
        ``scale``, rescaled to den, or the exact ``values[codes]``; keep its
        errors by mask."""
        for j, exc in errors.items():
            self.errors[int(masks[j])] = exc
        if values is None:
            scale = self.u.scale
            f = self._grow(scale)
            self._admit(max(int(codes.max()), -int(codes.min())) * f)
            column = codes.astype(self.rat.dtype, copy=False)
            column *= f
            self.rat[masks] = column
            return
        rat, irr = self._integers(values)
        self._admit(max(map(abs, rat)), max(map(abs, irr)))
        for column, ints in ((self.rat, rat), (self.irr, irr)):
            column[masks] = np.array(ints, dtype=column.dtype)[codes]

    def _integers(self, values: list) -> tuple:
        """Exact values as two lists of integers (rat, irr) over den, which
        first grows to a multiple of every denominator among them."""
        parts = []
        for v in values:
            if isinstance(v, Quad):
                parts.append((v.a, v.b.numerator, v.b.denominator * self._radical(v.d)))
            else:
                parts.append((v, 0, 1))
        for a, _, q in parts:
            self._grow(a.denominator)
            self._grow(q)
        den = self.den
        rat = [a.numerator * (den // a.denominator) for a, _, _ in parts]
        return rat, [b * (den // q) for _, b, q in parts]

    def _radical(self, d: Fraction) -> int:
        """d.den, so that b*sqrt(d) = (b / d.den) * sqrt(radicand)."""
        if self.field is None:
            self.field = d
            self.radicand = d.numerator * d.denominator
        elif d != self.field:
            raise ValueError("cannot mix radicands")
        return d.denominator

    def _admit(self, rat_peak: int = 0, irr_peak: int = 0):
        """Record the largest magnitudes about to be stored, and turn the
        columns into exact Python ints once int64 could overflow."""
        peak = self._peak
        peak[0], peak[1] = max(peak[0], rat_peak), max(peak[1], irr_peak)
        # the bound only grows, so columns once turned stay Python ints
        bound = max((2 * peak[0] + self.den) ** 2, (2 * peak[1]) ** 2 * self.radicand)
        self.rat, self.irr = exact_ints(self.rat, bound), exact_ints(self.irr, bound)

    def _grow(self, q: int) -> int:
        """Extend den to a multiple of q, rescaling every stored integer;
        return den // q."""
        grow = q // math.gcd(self.den, q)
        if grow > 1:
            self.den *= grow
            self._peak = [x * grow for x in self._peak]
            self._admit()
            self.rat *= grow
            self.irr *= grow
            self.expectations.clear()  # each holds the old den
        return self.den // q

    def require(self, masks=None):
        """Raise the first failed evaluation among ``masks`` (default: all)."""
        if self.errors:
            for mask in self.errors if masks is None else masks:
                if mask in self.errors:
                    raise self.errors[mask]

    def at(self, mask: int) -> tuple:
        """(rat, irr) of one subset, as Python ints."""
        return int(self.rat[mask]), int(self.irr[mask])

    def exact(self, a: int, b: int, den: int) -> ExactValue:
        """(a + b*sqrt(radicand)) / den as a Fraction, or a Quad over u's field."""
        if not b:
            return Fraction(a, den)
        d = self.field
        return Quad(Fraction(a, den), Fraction(b * d.denominator, den), d)


def check_axioms(
    u: UtilityFunction,
    universe: Sequence[int],
    sample_budget: Optional[int] = None,
    seed: int = 0,
) -> AxiomReport:
    """Exhaustively test monotonicity and the unit-Lipschitz bound.

    Over every (T, j): u(T) <= u(T + {j}) and u(T) - u(T - {j}) <= 1.
    Returns the violating (T, j) on failure.  The exhaustive scan takes
    2^m steps; past the work limit, a seeded Monte-Carlo budget of at
    least one subset may be passed instead.
    """
    universe = sorted(set(universe))
    m = len(universe)
    exhaustive = 1 << m <= WORK_LIMIT
    if sample_budget is None:
        require_work(1 << m, f"the axiom check of {m} candidates (or pass sample_budget)")
    if exhaustive:
        mono_w, lip_w, checked = _axiom_scan(u, universe)
    else:
        if sample_budget < 1:
            raise ValueError(f"need a sample budget of at least 1, got {sample_budget}")
        mono_w, lip_w, checked = _sampled_axiom_scan(
            u, universe, _sampled_subsets(universe, sample_budget, seed)
        )
    return AxiomReport(
        monotone=mono_w is None,
        monotone_witness=mono_w,
        lipschitz=lip_w is None,
        lipschitz_witness=lip_w,
        exhaustive=exhaustive,
        checked=checked,
    )


def _axiom_scan(u: UtilityFunction, universe: Sequence[int]):
    """The first monotone and Lipschitz violations, subsets in size then
    lexicographic order and j ascending; stops once both are found.  The
    table is filled one size layer ahead of the scan, so a stop saves the
    evaluations of every layer the scan does not reach.

    A layer is scanned in row blocks of its (T x j) matrix of neighbour
    differences, T in canonical order; the first violation of a kind is
    the first true entry of its test matrix in row-major order."""
    m = len(universe)
    table = _SubsetTable.of(u, universe, (0,))
    bits = mask_array([1 << i for i in range(m)], m)
    found = {}  # "mono" / "lip" -> AxiomWitness
    checked = 0
    for size, layer in enumerate(_layers(m)):
        if size < m:
            table.fill((size + 1,))
        rat, irr, den, n = table.rat, table.irr, table.den, table.radicand
        failed = _first_failed_neighbourhood(table, layer, bits)
        last = -1  # the position in the layer of the last witness found
        for start, T in _blocks(layer, m):
            absent = (T[:, None] & bits) == 0  # j not in T
            near = T[:, None] ^ bits
            d = rat[T][:, None] - rat[near]
            e = None if table.field is None else irr[T][:, None] - irr[near]
            # u(T) - u(x) > c / den: the sign of (d - c + e sqrt(n)) / den
            for kind, c, where in (("mono", 0, absent), ("lip", den, ~absent)):
                if kind in found:
                    continue
                hits = where & (d > c if e is None else _positive(d - c, e, n))
                if hits.any():
                    row, j = divmod(int(hits.argmax()), m)
                    x = int(T[row])
                    last = max(last, start + row)
                    witness = members(universe, x if kind == "lip" else x | 1 << j)
                    found[kind] = AxiomWitness(witness, universe[j])
            if len(found) == 2:
                break
        if failed is not None and (len(found) < 2 or last >= failed):
            x = int(layer[failed])
            table.require([x] + [x ^ bit for bit in bits.tolist()])
        if len(found) == 2:
            return found["mono"], found["lip"], checked + last + 1
        checked += len(layer)
    return found.get("mono"), found.get("lip"), checked


def _first_failed_neighbourhood(table: _SubsetTable, layer, bits):
    """The position in ``layer`` of the first T with a failed evaluation
    among T and its neighbours, or None."""
    if not table.errors:
        return None
    failed = np.fromiter(table.errors, dtype=np.int64, count=len(table.errors))
    hit = np.isin(layer, failed)
    for bit in bits:
        hit |= np.isin(layer ^ bit, failed)
    return int(hit.argmax()) if hit.any() else None


def _sampled_axiom_scan(u: UtilityFunction, universe: Sequence[int], subsets):
    mono_w = lip_w = None
    checked = 0
    for T in subsets:
        vT = u.value(T)
        checked += 1
        for j in universe:
            if j in T:
                if vT - u.value(T - {j}) > 1:
                    lip_w = lip_w or AxiomWitness(T, j)
            else:
                if vT > u.value(T | {j}):
                    mono_w = mono_w or AxiomWitness(T | {j}, j)
        if mono_w and lip_w:
            break
    return mono_w, lip_w, checked


def self_bounding_constant(u: UtilityFunction, universe: Sequence[int]) -> ExactValue:
    """Minimal beta* with sum of removal marginals <= beta* * u(T) over all T.

    beta* = max over T with u(T) > 0 of (sum_j (u(T) - u(T - {j}))) / u(T);
    if u vanishes everywhere, returns 0 by convention.  Takes 2^m steps.
    """
    universe = sorted(set(universe))
    require_work(1 << len(universe), f"beta* of {len(universe)} candidates")
    return _self_bounding(_SubsetTable.of(u, universe))


def _self_bounding(table: _SubsetTable) -> ExactValue:
    """beta* over a full table, computed once per table."""
    if table.beta_star is None:
        table.beta_star = _beta_star(table)
    return table.beta_star


# beta* reads the table in aligned chunks of 2^8 masks: 2 KB per int64 column
_CHUNK_BITS = 8


def _beta_star(table: _SubsetTable) -> ExactValue:
    """The largest ratio sum_j (u(T) - u(T - {j})) / u(T) over T with
    u(T) > 0, or 0, decided by integer cross-multiplication.

    The table is read in aligned chunks of 2^k masks, k = min(m, 8): for a
    bit j below k, T - {j} lies in the same chunk at stride 2^j; for a
    higher bit, in the chunk 2^j masks back.  The products stay in int64
    for rational values under a bound, else they are exact Python ints."""
    table.require()
    m, n = len(table.universe), table.radicand
    quad = table.field is not None
    k = min(m, _CHUNK_BITS)
    size = 1 << k
    members = popcount(np.arange(size, dtype=np.int64))
    peak = max(table._peak)
    wide = quad or table.rat.dtype == object or 2 * m * peak * peak >= INT64_BOUND
    dtype = object if wide else np.int64
    # (a, c) or (a, b, c, e): the ratio (a + b r) / (c + e r), r = sqrt(n), c + e r > 0
    best = [np.array([x], dtype=dtype) for x in ((0, 0, 1, 0) if quad else (0, 1))]
    for lo in range(0, 1 << m, size):
        count = members + lo.bit_count()
        sums, values = [], []
        for column in (table.rat, table.irr) if quad else (table.rat,):
            chunk = column[lo : lo + size]
            below = np.zeros_like(chunk)  # sum over j in T of column[T - {j}]
            for j in range(m):
                bit = 1 << j
                if j < k:
                    below.reshape(-1, 2, bit)[:, 1] += chunk.reshape(-1, 2, bit)[:, 0]
                elif lo & bit:
                    below += column[lo - bit : lo - bit + size]
            sums.append(count * chunk - below)
            values.append(chunk)
        keep = _positive(*values, n) if quad else values[0] > 0
        if keep.any():
            entries = [
                np.concatenate((x, y[keep].astype(dtype))) for x, y in zip(best, sums + values)
            ]
            best = _largest_ratio(entries, n) if quad else _largest_ratio(entries)
    if not quad:
        a, c = (int(x[0]) for x in best)
        return Fraction(a, c)
    a, b, c, e = (int(x[0]) for x in best)
    # rationalize: (a + b r)(c - e r) / (c^2 - e^2 n)
    return table.exact(a * c - b * e * n, b * c - a * e, c * c - e * e * n)


def _largest_ratio(entries: list, n: Optional[int] = None) -> list:
    """The entry, as one-entry columns, with the largest ratio a/c, or
    (a + b r)/(c + e r) with r = sqrt(n), every denominator positive.

    Each round a pivot is picked and only the entries whose ratio exceeds
    the pivot's go on, decided by the sign of the cross-multiplied
    difference in integers; the pivot is the largest float estimate, which
    only orders the work, so the entry returned is a largest one whatever
    the estimate's rounding."""
    while True:
        i = int(np.argmax(_estimate(entries, n)))
        pivot = [x[i] for x in entries]
        if n is None:
            over = entries[0] * pivot[1] > pivot[0] * entries[1]
        else:
            a, b, c, e = entries
            a2, b2, c2, e2 = pivot
            # (a + b r)(c2 + e2 r) - (a2 + b2 r)(c + e r) > 0
            over = _positive(
                a * c2 + b * e2 * n - a2 * c - b2 * e * n, a * e2 + b * c2 - a2 * e - b2 * c, n
            )
        if not over.any():
            return [x[i : i + 1] for x in entries]
        entries = [x[over] for x in entries]


def _estimate(entries: list, n: Optional[int]):
    """The ratios of ``_largest_ratio`` in floats, all 0 when an entry
    overflows a float."""
    try:
        parts = [x.astype(float) for x in entries]
    except OverflowError:
        return np.zeros(len(entries[0]))
    with np.errstate(all="ignore"):
        if n is None:
            return parts[0] / parts[1]
        r = math.sqrt(n)
        return (parts[0] + parts[1] * r) / (parts[2] + parts[3] * r)


def check_submodular(u: UtilityFunction, universe: Sequence[int]):
    """Exhaustive submodularity check over (T1 <= T2, j in T1), 4^m subset
    pairs.

    Returns (True, None) or (False, (T1, T2, j)) on the first violation of
    u(T1) - u(T1 - {j}) >= u(T2) - u(T2 - {j}).
    """
    universe = sorted(set(universe))
    require_work(4 ** len(universe), f"the submodularity check of {len(universe)} candidates")
    family = list(subsets(universe, range(len(universe) + 1)))
    values = {T: u.value(T) for T in family}
    for T2 in family:
        v2 = values[T2]
        for T1 in family:
            if not T1 <= T2:
                continue
            v1 = values[T1]
            for j in T1:
                if v1 - values[T1 - {j}] < v2 - values[T2 - {j}]:
                    return False, (T1, T2, j)
    return True, None


class Committee(frozenset):
    """A solver's committee: the frozenset of its candidate ids, which is
    also its ``members``."""

    members = property(lambda self: self)
    size = property(len)

    def sorted(self):
        return sorted(self)


class Instance:
    """A multiwinner (k-mode) or participatory-budgeting (budget-mode) election.

    Exactly one of ``k`` or (``sizes``, ``budget``) must be given.  In check
    mode, every utility is validated against the monotonicity and Lipschitz
    axioms on construction ("auto" checks only when m is small enough).
    """

    def __init__(
        self,
        candidates: Sequence[int],
        utilities: Sequence[UtilityFunction],
        k: Optional[int] = None,
        sizes: Optional[dict] = None,
        budget=None,
        feasibility=None,
        validate: str = "auto",
    ):
        self.candidates = tuple(int(c) for c in candidates)
        self._candidate_set = frozenset(self.candidates)
        if len(self._candidate_set) != len(self.candidates):
            raise ValueError("candidate ids must be unique")
        if not self.candidates:
            raise ValueError("need at least one candidate")
        self.utilities = tuple(utilities)
        if not self.utilities:
            raise ValueError("need at least one voter")
        k_mode = k is not None
        b_mode = sizes is not None or budget is not None
        if k_mode == b_mode:
            raise ValueError("exactly one of committee-size mode and budget mode must be set")
        if k_mode:
            if k < 0:
                raise ValueError("k must be nonnegative")
            self.k = int(k)
            self.sizes = None
            self.budget = None
        else:
            if sizes is None or budget is None:
                raise ValueError("budget mode needs both sizes and budget")
            self.k = None
            self.sizes = {int(c): parse_rational(s) for c, s in sizes.items()}
            for c in self.candidates:
                if c not in self.sizes or self.sizes[c] <= 0:
                    raise ValueError(f"candidate {c} needs a positive size")
            self.budget = parse_rational(budget)
        if feasibility is None and k_mode:
            feasibility = CardinalityFamily(self.k)
        self.feasibility = feasibility
        if validate not in ("check", "trust", "auto"):
            raise ValueError("validate must be one of check/trust/auto")
        if validate == "check" or (validate == "auto" and len(self.candidates) <= 12):
            for i, u in enumerate(self.utilities):
                rep = check_axioms(u, self.candidates)
                if not rep.ok:
                    raise MalformedUtilityError(
                        f"voter {i} fails axioms: monotone={rep.monotone} "
                        f"lipschitz={rep.lipschitz}"
                    )

    @property
    def n(self) -> int:
        return len(self.utilities)

    @property
    def m(self) -> int:
        return len(self.candidates)

    @property
    def is_k_mode(self) -> bool:
        return self.k is not None

    def cost(self, T: Iterable[int]) -> Fraction:
        T = as_frozen(T)
        if self.is_k_mode:
            return Fraction(len(T))
        return sum((self.sizes[c] for c in T), Fraction(0))

    def committee(self, members: Iterable[int]) -> Committee:
        members = as_frozen(members)
        self.require_candidates(members)
        return Committee(members)

    def utility(self, i: int, T: Iterable[int]) -> ExactValue:
        """Exact utility of voter i for committee T."""
        return self.utilities[i].value(as_frozen(T))

    def require_k_mode(self, op: str):
        if not self.is_k_mode:
            raise InfeasibleInstanceError(f"{op} requires a committee-size instance")

    def require_candidates(self, ids: frozenset):
        if not ids <= self._candidate_set:
            raise ValueError(f"unknown candidates {sorted(ids - self._candidate_set)}")

    def require_voters(self, ids: frozenset):
        unknown = ids - set(range(self.n))
        if unknown:
            raise ValueError(f"unknown voters {sorted(unknown)}")

    def require_budget_mode(self, op: str):
        if self.is_k_mode:
            raise InfeasibleInstanceError(f"{op} requires a budget-mode instance")

    def __repr__(self):
        mode = f"k={self.k}" if self.is_k_mode else f"budget={self.budget}"
        return f"<Instance n={self.n} m={self.m} {mode}>"
