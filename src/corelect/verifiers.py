"""Exact decision procedures for the five stability notions, on committee
bitmasks.

A committee is a bitmask over the sorted candidates (bit i standing for
the i-th), and every scan reads its masks in the canonical subset order
(``errors.subsets``: sizes ascending, then candidate ids), one array per
size layer.  Every utility test is exact, and a report's failure witness
is the first blocking object in that order; it replays through the
definitional ``blocks_*`` predicates in this module.

The three enumerating notions (core, pb-core and endowment core) are
each one pair: per-voter tests, "T satisfies voter i" (u_i(T) >=
gamma*(u_i(W)+1), or u_i(T) > u_i(W) for the endowment core), and the
affordability bound Cost(T)*theta*n <= |S|*b, read in integers with
the sizes over the lcm of their denominators.  The core is its unit-size
case (Cost(T) = |T|, b = k, theta = 1), compared against the
proportional endowment |S|*k/n without rounding (for integer |T| this
coincides with the floored endowment used by the restrained notions).
The scan decides one size layer at a time: one boolean vector per voter
over the layer (``model.meets_threshold``), the coalition of each T the
voters it satisfies, and it stops at the first layer holding an
affordable T; the ``blocks_*`` predicate tests one (S, T) with the same
tests.  Empty coalitions and empty deviations never block; an empty
deviation that ties with zero-utility voters in the endowment core is
flagged instead.

The restrained core and restrained EJR share one engine: coalition S,
with endowment k' = floor(|S| k / n), blocks W when for EVERY
k'-completable planner reply hatW SOME W' (|W'| <= k', hatW + W'
feasible) satisfies S.
- Feasibility is one test over arrays of committee masks
  (``constraints.feasibility_of_masks``), built once per check.
- The k' table holds the k'-completable hatW (a subset of W, or any
  committee in ``any_hatW`` mode) and, for each, its entries: the
  feasible T = hatW + W', with W' running over the subsets of at most k'
  of the candidates outside hatW in canonical order, so hatW is
  k'-completable exactly when it has an entry.  A hatW is extended once
  for every table that takes it, by the W' of the largest such k', and
  each smaller k' reads a prefix of its extension; a table costs its
  entries, the count that ``_restrained_work`` bounds, and no set of
  committees beyond them is built.
- A verdict on the entries is one int, each hatW's extension taking
  consecutive bits followed by a guard bit.  A notion supplies
  ``requirement(S)`` and ``meets(requirement, tables)``, the verdict of
  the entries whose T meets it.  For the core, the requirement is the
  bitmask of S's voter classes (voters with equal oracle and threshold)
  and ``meets`` the AND of their verdicts; a class is evaluated on the
  entries the first time a requirement reaches it, through
  ``model.meets_threshold`` like the scan's voters.  For EJR
  the requirement is (A_S, max u_i(W) + 1), met when |A_S & T| reaches
  the count.
- A hatW completes at its first entry that meets, and the table
  completes when every hatW does; a few integer operations on the
  verdict decide every hatW at once (``_complete``).  Coalitions are
  scanned in canonical order, memoized on (k', requirement), and the
  checkers and the ``blocks_restrained_*`` replay predicates all run
  through this engine.
- An oracle whose evaluation may raise (a table, or a class overriding
  ``numerator`` or ``value``) has its failed evaluations kept.  The
  engine then replays the order of a lazy evaluation, which tests a T's
  untested classes of a requirement lowest first and stops at a failure,
  and raises a failed evaluation exactly when that evaluation reaches
  it.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional

import numpy as np

from .constraints import feasibility_of_masks, is_feasible
from .errors import (
    RuleMismatchError,
    canonical,
    exact_ints,
    indices,
    mask_array,
    members,
    popcount,
    require_work,
    subsets,
    subsets_up_to,
)
from .exactnum import parse_rational, rational_to_json
from .model import (
    ApprovalUtility,
    Instance,
    _layers,
    exact_measure,
    floored_endowment,
    gain_threshold,
    may_raise,
    meets_threshold,
    weighted_sums,
)


@dataclass
class VerificationReport:
    notion: str
    gamma_or_theta: Fraction
    verdict: bool  # True = stable (pass), False = blocked (fail)
    witness: Optional[dict] = None
    stats: dict = field(default_factory=dict)
    flags: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.verdict

    def to_json(self):
        out = {
            "notion": self.notion,
            "gamma_or_theta": rational_to_json(self.gamma_or_theta),
            "verdict": "pass" if self.verdict else "fail",
            "stats": dict(self.stats),
            "flags": list(self.flags),
        }
        if self.witness is not None:
            w = {}
            if "S" in self.witness:
                w["S"] = sorted(self.witness["S"])
            if "T" in self.witness:
                w["T"] = sorted(self.witness["T"])
            if "completions" in self.witness:
                w["completions"] = [
                    {"hatW": sorted(h), "Wprime": sorted(p)}
                    for h, p in sorted(
                        self.witness["completions"].items(), key=lambda kv: canonical(kv[0])
                    )
                ]
            out["witness"] = w
        return out


def _at_least_one(value, name: str) -> Fraction:
    value = parse_rational(value)
    if value < 1:
        raise ValueError(f"{name} must be at least 1")
    return value


# ---------------------------------------------------------------------------
# committees as bitmasks
# ---------------------------------------------------------------------------


class _Space:
    """An instance's sorted candidates, with committees as bitmasks over
    them (bit i standing for the i-th), in arrays of ``errors.mask_array``."""

    def __init__(self, instance):
        self.universe = tuple(sorted(instance.candidates))
        self.m = m = len(self.universe)
        self.position = {c: i for i, c in enumerate(self.universe)}
        self.bit = {c: 1 << i for i, c in enumerate(self.universe)}
        # the bit of each position, and none for the padding position m
        self.bits = mask_array([1 << i for i in range(m)] + [0], m)

    def masks(self, positions):
        """The mask of each committee given by the positions of its
        members (a row of ``positions``, padded with m)."""
        return self.bits[positions].sum(axis=-1)

    def members(self, mask) -> frozenset:
        return members(self.universe, int(mask))


@functools.lru_cache(maxsize=64)
def _combinations(n: int, r: int):
    """The r-subsets of range(n) in lexicographic order, as a read-only
    (C(n, r), r) array."""
    count = math.comb(n, r)
    flat = itertools.chain.from_iterable(itertools.combinations(range(n), r))
    out = np.fromiter(flat, np.int64, count * r).reshape(count, r)
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=16)
def _extensions(n: int, top: int) -> tuple:
    """(patterns, ends): the subsets of range(n) of at most ``top``
    members in canonical order, as read-only rows padded with n to width
    ``top``, and for each r <= top how many have at most r members."""
    sizes = range(min(top, n) + 1)
    patterns = np.concatenate(
        [np.pad(_combinations(n, r), ((0, 0), (0, top - r)), constant_values=n) for r in sizes]
    )
    ends = np.cumsum([math.comb(n, r) for r in range(top + 1)])
    patterns.flags.writeable = ends.flags.writeable = False
    return patterns, ends


def _times(x, c: int):
    """x * c exactly, for an integer array x: int64 while no product can
    overflow, Python ints otherwise."""
    peak = int(abs(x).max()) if len(x) else 0
    return exact_ints(x, max(peak, 1) * abs(c)) * c


# ---------------------------------------------------------------------------
# enumerating notions: one (tests, affordable) pair each
# ---------------------------------------------------------------------------


def _affordable(instance, theta=1) -> tuple:
    """(weights, A, B): T is affordable to S when Cost(T)*theta*n <= |S|*b,
    that is, when (the sum of ``weights`` over T) * A <= |S| * B, the
    weights being the sizes over the lcm of their denominators, or None
    for the unit sizes (and b = k) of a committee-size instance."""
    theta = Fraction(theta)
    if instance.is_k_mode:
        weights, scale, b = None, 1, Fraction(instance.k)
    else:
        scale = functools.reduce(math.lcm, (s.denominator for s in instance.sizes.values()), 1)
        weights = {c: int(size * scale) for c, size in instance.sizes.items()}
        b = instance.budget
    A = theta.numerator * instance.n * b.denominator
    return weights, A, b.numerator * scale * theta.denominator


def _gain_notion(instance, W, gamma):
    """The gamma-core and the pb-core: T satisfies the voters with
    u_i(T) >= gamma * (u_i(W) + 1), tested as measure_i(T) >= bar_i."""
    tests = [(u, gain_threshold(u, W, gamma)[1], False) for u in instance.utilities]
    return tests, _affordable(instance)


def _endowment_notion(instance, W, theta):
    """The theta-endowment core: T satisfies the voters with
    u_i(T) > u_i(W), within a budget scaled down by theta.

    The printed definition compares with >=, but that reading is
    degenerate (any committee ties with itself and the empty deviation
    ties with zero-utility voters); equality-only deviations are
    reported as flags, never as blocks.
    """
    tests = [(u, exact_measure(u)(W), True) for u in instance.utilities]
    return tests, _affordable(instance, theta)


def _passes(test, T) -> bool:
    u, bar, strict = test
    value = exact_measure(u)(T)
    return value > bar if strict else value >= bar


def _blocks(notion, instance, W, param, S, T) -> bool:
    param, W, S, T = parse_rational(param), frozenset(W), frozenset(S), frozenset(T)
    instance.require_voters(S)
    instance.require_candidates(W | T)
    if not S or not T:
        return False
    tests, (weights, A, B) = notion(instance, W, param)
    cost = len(T) if weights is None else sum(weights[c] for c in T)
    if cost * A > len(S) * B:
        return False
    return S <= frozenset(i for i, test in enumerate(tests) if _passes(test, T))


def blocks_core(instance, W, gamma, S, T, min_coalition=None) -> bool:
    """Does (S, T) block W in the gamma-approximate core sense?"""
    S = frozenset(S)
    if min_coalition is not None and len(S) < min_coalition:
        return False
    return _blocks(_gain_notion, instance, W, gamma, S, T)


def blocks_pb_core(instance, W, gamma, S, T) -> bool:
    return _blocks(_gain_notion, instance, W, gamma, S, T)


def blocks_endowment(instance, W, theta, S, T) -> bool:
    """Endowment blocking demands a strict gain for every member."""
    return _blocks(_endowment_notion, instance, W, theta, S, T)


def _enumerating_check(instance, W, name, param, notion, max_size, min_coalition=None):
    """The scan over nonempty deviations T of size <= ``max_size``, whose
    steps are checked against the work limit before any oracle call: the
    witness is the first T whose coalition (of at least ``min_coalition``
    voters) affords it.  A failed evaluation is raised when it falls at or
    before the witness, where a scan deciding T by T would reach it."""
    require_work(subsets_up_to(instance.m, max_size), f"the {name} check's deviations")
    instance.require_candidates(frozenset(W))
    tests, (weights, A, B) = notion(instance, frozenset(W), param)
    space = _Space(instance)
    least = 1 if min_coalition is None else max(1, math.ceil(min_coalition))
    witness, enumerated = None, 0
    if weights is not None:
        weights = [weights[c] for c in space.universe]
    for size, layer in enumerate(_layers(space.m, max_size)):
        if not size:
            continue
        count = np.zeros(len(layer), dtype=np.int64)
        sat, errors = [], {}

        @functools.cache
        def committees():
            # the layer's members, built once for every oracle tested mask by mask
            return list(subsets(space.universe, [size]))

        for u, bar, strict in tests:
            ok, failed = meets_threshold(u, space.universe, layer, bar, strict, committees)
            sat.append(ok)
            count += ok
            for j, exc in failed.items():
                errors.setdefault(j, exc)  # the lowest voter's, as T by T
        cost = size * A if weights is None else _times(weighted_sums(weights, layer), A)
        hits = np.flatnonzero((count >= least) & (cost <= _times(count, B)))
        first = int(hits[0]) if len(hits) else len(layer)
        if errors and min(errors) <= first:
            raise errors[min(errors)]
        if len(hits):
            enumerated += first + 1
            S = frozenset(i for i, ok in enumerate(sat) if ok[first])
            witness = {"S": S, "T": space.members(layer[first])}
            break
        enumerated += len(layer)
    stats = {"committees_enumerated": enumerated}
    report = VerificationReport(name, param, witness is None, witness, stats)
    if witness is None and min_coalition is not None:
        report.flags.append(f"coalitions-restricted-to-size>={min_coalition}")
    return report


def check_core(
    instance: Instance, W: Iterable[int], gamma, min_coalition=None
) -> VerificationReport:
    """gamma-approximate core: no (S, T) with |T| <= (|S|/n)k and
    u_i(T) >= gamma*(u_i(W)+1) for all of S.  Exact comparisons."""
    instance.require_k_mode("check_core")
    gamma = _at_least_one(gamma, "gamma")
    return _enumerating_check(instance, W, "core", gamma, _gain_notion, instance.k, min_coalition)


def check_pb_core(
    instance: Instance, W: Iterable[int], gamma, auto_lift: bool = False
) -> VerificationReport:
    """Budget-mode core: Cost(T) <= (|S|/n) b instead of the size bound.
    With ``auto_lift`` a committee-size instance is read as unit sizes
    and budget k, so deviations of every size are scanned."""
    if not auto_lift:
        instance.require_budget_mode("check_pb_core")
    lifted = instance.is_k_mode
    gamma = _at_least_one(gamma, "gamma")
    report = _enumerating_check(instance, W, "pb_core", gamma, _gain_notion, instance.m)
    if lifted:
        report.flags.append("auto-lifted-unit-sizes")
    return report


def check_endowment_core(
    instance: Instance, W: Iterable[int], theta, auto_lift: bool = False
) -> VerificationReport:
    """theta-approximate endowment core: coalition budgets are scaled down
    by theta and members need only match their current utility; with
    ``auto_lift``, as for the pb-core."""
    if not auto_lift:
        instance.require_budget_mode("check_endowment_core")
    lifted = instance.is_k_mode
    theta = _at_least_one(theta, "theta")
    W = frozenset(W)
    report = _enumerating_check(
        instance, W, "endowment_core", theta, _endowment_notion, instance.m
    )
    # the empty deviation ties exactly with zero-utility voters; that is
    # an equality artifact of the printed >= definition, flagged not blocked
    zero_S = [i for i, u in enumerate(instance.utilities) if exact_measure(u)(W) == 0]
    if zero_S:
        report.flags.append("degenerate-empty-deviation")
        report.stats["degenerate_S"] = zero_S
    if lifted:
        report.flags.append("auto-lifted-unit-sizes")
    return report


# ---------------------------------------------------------------------------
# restrained notions: one engine
# ---------------------------------------------------------------------------


def _bits(flags) -> int:
    """A boolean vector as an int, bit j for flags[j]."""
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def _positions(bits: int, width: int):
    """The set bits of ``bits``, all below ``width``, ascending."""
    data = np.frombuffer(bits.to_bytes((width + 7) // 8, "little"), np.uint8)
    return np.flatnonzero(np.unpackbits(data, bitorder="little"))


class _Tables:
    """The k' tables of a check, one for each k' in ``kprimes``
    (ascending).

    The k' table holds every k'-completable hatW of size <= k - k' (a
    subset of W, or any committee in ``any_hatW`` mode), in enumeration
    order (``hats[k']``), and for each its entries: the feasible T =
    hatW + W' for the W' of at most k' of the candidates outside hatW, in
    W' order, so that hatW is k'-completable exactly when it has one.
    With ``cert`` (and one k'), only the T of hatW's certified W' stays,
    when that has at most k' candidates.

    A hatW of size h is extended once, by the W' of the largest k' whose
    table takes it; the first subsets_up_to(m - h, k') of those are the W'
    of a smaller k', so each table's entries of hatW are a prefix of its
    extension.  ``entries`` holds the extensions end to end, and a verdict
    on them is one int: each extension takes consecutive bits, followed
    by a guard bit that no verdict sets.  ``starts[k']`` and ``ends[k']``
    set the first bit and the bit past the last entry of each hatW of the
    k' table, so that ``_complete`` decides all of them with a few integer
    operations."""

    def __init__(self, instance, W, kprimes, mode, space, cert=None):
        feasible = feasibility_of_masks(instance.feasibility, space.universe)
        if mode == "subset_of_W":
            pool = np.array(sorted(space.position[c] for c in W), dtype=np.int64)
        else:
            pool = np.arange(space.m)
        blocks = []  # (the last W' of each table taking them, hatW masks, T masks)
        for size in range(min(instance.k - kprimes[0], len(pool)) + 1):
            takers = [kp for kp in kprimes if size <= instance.k - kp]
            ends = _extensions(space.m - size, takers[-1])[1]
            H = pool[_combinations(len(pool), size)]
            blocks += [(ends[takers] - 1, hat, T) for hat, T in _extend(space, H, takers[-1])]
        ok = feasible(np.concatenate([T.ravel() for _, _, T in blocks]))
        hats, entries, held, lo = [], [], [], 0
        for last, hat, T in blocks:
            fits = ok[lo : lo + T.size].reshape(T.shape)
            lo += T.size
            count = np.zeros((len(hat), len(kprimes)), dtype=np.int64)
            count[:, : len(last)] = fits.cumsum(axis=1)[:, last]
            hats.append(hat)
            entries.append(T[fits])
            held.append(count)
        held = np.concatenate(held)  # each hatW's entries in each k' table
        full = held.max(axis=1)  # its extension's
        hats, held, full = np.concatenate(hats)[full > 0], held[full > 0], full[full > 0]
        takes = held > 0  # which tables take each hatW
        self.entries = np.concatenate(entries)
        if cert is not None:
            (kp,) = kprimes
            targets = [_certified(space, h, cert, kp) for h in hats.tolist()]
            found = np.array([t is not None for t in targets], dtype=bool)
            T = mask_array([t for t in targets if t is not None], space.m)
            ok = feasible(T)
            self.entries = T[ok]
            full = np.zeros(len(hats), dtype=np.int64)
            full[found] = ok
            held = full[:, None]
        self.width = len(self.entries) + len(hats)
        first = np.cumsum(full + 1) - full - 1  # each extension's first bit
        self.slots = np.arange(len(self.entries)) + np.repeat(np.arange(len(hats)), full)
        self.entry_at = np.zeros(self.width, dtype=np.int64)  # the entry at each slot
        self.entry_at[self.slots] = np.arange(len(self.entries))
        self.hats = {kp: hats[takes[:, j]] for j, kp in enumerate(kprimes)}
        self.sizes = {kp: int(held[takes[:, j], j].sum()) for j, kp in enumerate(kprimes)}
        rows, cols = np.nonzero(takes)  # hatW rows[i] is in the table of kprimes[cols[i]]
        marks = np.zeros((2, len(kprimes), self.width), dtype=bool)
        marks[0, cols, first[rows]] = marks[1, cols, first[rows] + held[rows, cols]] = True
        packed = np.packbits(marks, axis=2, bitorder="little")
        self.starts, self.ends = (
            {kp: int.from_bytes(row.tobytes(), "little") for kp, row in zip(kprimes, side)}
            for side in packed
        )

    @functools.cached_property
    def distinct(self) -> tuple:
        """(masks, where): the distinct committees among the entries, and
        where each entry's is among them."""
        return np.unique(self.entries, return_inverse=True)

    def verdict(self, ok) -> int:
        """The verdict of the entries with ok, one flag per entry."""
        flags = np.zeros(self.width, dtype=bool)
        flags[self.slots[ok]] = True
        return _bits(flags)


def _core_test(instance, W, voters, space, gamma):
    """(requirement, meets, audit) of the gamma-restrained core.

    Voters with identical oracles and thresholds form one class, so a
    coalition requires the bitmask of its classes, and ``meets(req,
    tables)`` is the verdict of the entries whose T brings every class of
    req to gamma*(u_i(W)+1): the AND of the classes' verdicts.  A class is
    evaluated on the distinct committees of the entries the first time a
    requirement reaches it (``model.meets_threshold``).  ``audit`` is None
    unless some class's evaluation may raise (see ``_audit``).
    """
    classes, class_of, tests = {}, {}, []
    for i in voters:
        u = instance.utilities[i]
        bar = gain_threshold(u, W, gamma)[1]
        # one hash of the key: setdefault both looks it up and stores it
        c = class_of[i] = classes.setdefault((u.key(), bar), len(classes))
        if c == len(tests):
            tests.append((u, bar))
    passes = [None] * len(tests)  # class -> whether it passes at each entry
    verdicts = [None] * len(tests)  # class -> the same as a verdict
    errors = {}  # (class, committee mask) -> the failed evaluation

    def requirement(S):
        mask = 0
        for i in S:
            mask |= 1 << class_of[i]
        return mask

    def meets(req, tables):
        hit = -1
        for c in indices(req):
            if verdicts[c] is None:
                u, bar = tests[c]
                masks, where = tables.distinct
                ok, failed = meets_threshold(u, space.universe, masks, bar)
                for j, exc in failed.items():
                    errors[c, int(masks[j])] = exc
                passes[c] = ok[where]
                verdicts[c] = tables.verdict(passes[c])
            hit &= verdicts[c]
        return hit

    if not any(may_raise(u) for u, _ in tests):
        return requirement, meets, None
    return requirement, meets, _audit(passes, errors)


def _audit(passes, errors):
    """audit(req, tables, seen): raise the failed evaluation that testing
    the T of the entries in ``seen`` (bits of a verdict), in order and
    lazily, against req would reach.

    A lazy test of T keeps the classes it has found failing at T.  Against
    req it stops at once when one of those is in req; otherwise it
    evaluates the untested classes of req lowest first and stops at the
    first that does not pass, which then is known to fail at T, unless its
    evaluation failed: that is raised.
    """
    known: dict = {}  # committee mask -> the classes known to fail there

    def audit(req, tables, seen):
        visited = tables.entry_at[_positions(seen, tables.width)]
        for j, t in zip(visited.tolist(), tables.entries[visited].tolist()):
            if known.get(t, 0) & req:
                continue
            for c in indices(req):
                if not passes[c][j]:
                    if (c, t) in errors:
                        raise errors[c, t]
                    known[t] = known.get(t, 0) | 1 << c
                    break

    return audit


def _ejr_test(instance, W, voters, space):
    """(requirement, meets, audit) of restrained EJR.

    A coalition requires (A_S, max_{i in S} u_i(W) + 1), the bitmask of
    its commonly approved candidates and the count it must reach, or None
    when no T of size <= k can reach it; T meets it when |A_S & T| reaches
    the count.  Approved ids outside the candidates take bits above them.
    """
    for i in voters:
        if not isinstance(instance.utilities[i], ApprovalUtility):
            raise RuleMismatchError("restrained EJR needs approval utilities")
    at_W = {i: instance.utilities[i].numerator(W) for i in voters}
    bit = dict(space.bit)
    approved = {
        i: sum(bit.setdefault(c, 1 << len(bit)) for c in instance.utilities[i].approved)
        for i in voters
    }
    within = (1 << len(space.universe)) - 1

    def requirement(S):
        A_S = functools.reduce(operator.and_, (approved[i] for i in S))
        threshold = max(at_W[i] for i in S) + 1
        if A_S.bit_count() < threshold or threshold > instance.k:
            return None
        return A_S, threshold

    def meets(req, tables):
        A_S, threshold = req
        return tables.verdict(popcount(tables.entries & (A_S & within)) >= threshold)

    return requirement, meets, None


# a block of W' extensions holds at most this many member positions
_BLOCK = 1 << 16


def _extend(space, H, top):
    """Extend each hatW, given by its sorted member positions (a row of
    H), by every W' of at most ``top`` of the candidates outside it, one
    block of hatW at a time: yield, per block, the masks of its hatW and,
    one row per hatW in W' order, the masks of T = hatW + W'.

    W' is taken as positions among the m - h free slots of a hatW of size
    h; the j-th free slot is j + #{i : H[i] - i <= j}, which maps the
    padding m - h to m."""
    size = H.shape[1]
    patterns = _extensions(space.m - size, top)[0]
    shifts = H - np.arange(size)
    step = max(1, _BLOCK // (len(patterns) * max(1, top)))
    for lo in range(0, len(H), step):
        shift = shifts[lo : lo + step]
        wprime = np.repeat(patterns[None], len(shift), axis=0)
        for i in range(size):
            wprime += shift[:, i, None, None] <= patterns
        hat = space.masks(H[lo : lo + step])
        yield hat, hat[:, None] | space.masks(wprime)


def _certified(space, hat: int, cert: dict, kprime: int):
    """hatW + cert[hatW] as a mask, or None when there is no certified W'
    of at most k' candidates."""
    wprime = cert.get(space.members(hat))
    if wprime is None or len(wprime) > kprime or not set(wprime) <= space.bit.keys():
        return None
    return hat | sum(space.bit[c] for c in wprime)


def _complete(tables: _Tables, kprime: int, hit: int, req=None, audit=None):
    """For ALL hatW of the k' table, its first entry whose T meets (a bit
    of ``hit``, a verdict).

    Returns (firsts, visited): the masks of those T, or None when some
    hatW has none or there is no hatW at all; and the entries visited,
    each hatW's up to its first hit or all of them, stopping after the
    first hatW with none.  ``audit`` checks the visited entries against
    req in that order.

    Every hatW at once, with fill = ends - starts the bits of the table's
    entries and hit within them: hit + fill carries into a hatW's end bit
    exactly when it has a hit; hit & ~((hit | ends) - starts) keeps its
    lowest hit; and from there ((lowest << 1) | ends) - starts spans its
    entries up to that hit, or all of them when there is none.  No carry
    or borrow crosses an end bit, which hit never holds.
    """
    if not len(tables.hats[kprime]):
        return None, 0
    starts, ends = tables.starts[kprime], tables.ends[kprime]
    fill = ends - starts
    hit &= fill
    missing = ends & ~(hit + fill)
    lowest = hit & ~((hit | ends) - starts)
    seen = ((lowest << 1 | ends) - starts) & fill
    if missing:
        seen &= (missing & -missing) - 1  # up to the first hatW without a hit
    if audit is not None:
        audit(req, tables, seen)
    if missing:
        return None, seen.bit_count()
    firsts = tables.entries[tables.entry_at[_positions(lowest, tables.width)]]
    return firsts.tolist(), seen.bit_count()


def _completions(space, hats, firsts, cert=None) -> dict:
    """hatW -> its completing W', in enumeration order."""
    completions = {}
    for h, t in zip(hats.tolist(), firsts):
        hat = space.members(h)
        if cert is not None:
            completions[hat] = cert[hat]
        else:
            completions[hat] = space.members(t ^ h)
    return completions


def _hat_pool(mode: str, W, m: int) -> int:
    """The number of candidates a hatW is drawn from in ``mode``."""
    if mode == "subset_of_W":
        return len(W)
    if mode == "any_hatW":
        return m
    raise ValueError("mode must be subset_of_W or any_hatW")


def _blocks_restrained(instance, W, S, mode, cert, test, what):
    W, S = frozenset(W), frozenset(S)
    pool = _hat_pool(mode, W, instance.m)
    instance.require_voters(S)
    if not S:
        return False, None
    kprime = floored_endowment(len(S), instance.k, instance.n)
    require_work(_tables_work(1, {kprime}, instance.m, instance.k, pool), what)
    space = _Space(instance)
    requirement, meets, audit = test(instance, W, sorted(S), space)
    req = requirement(S)
    if req is None:
        return False, None
    instance.require_candidates(W)
    tables = _Tables(instance, W, [kprime], mode, space, cert)
    firsts, _ = _complete(tables, kprime, meets(req, tables), req, audit)
    if firsts is None:
        return False, None
    return True, _completions(space, tables.hats[kprime], firsts, cert)


def _restrained_work(n: int, m: int, k: int, pool: int) -> int:
    """An upper bound on the steps of one restrained check: its 2^n
    coalitions and the table of every distinct k'."""
    kprimes = {floored_endowment(size, k, n) for size in range(1, n + 1)}
    return _tables_work(1 << n, kprimes, m, k, pool)


def _tables_work(coalitions: int, kprimes, m: int, k: int, pool: int) -> int:
    """An upper bound on the steps of scanning ``coalitions`` against the
    tables of ``kprimes``: per k', every hatW of size h <= k - k' drawn
    from the pool and, for each, every W' of size <= k' drawn from the
    m - h candidates outside it."""
    work = coalitions
    for kp in kprimes:
        hat_sizes = range(min(k - kp, pool) + 1)
        work += sum(math.comb(pool, h) * (1 + subsets_up_to(m - h, kp)) for h in hat_sizes)
    return work


def _check_restrained(instance, W, notion, param, mode, flags, test, count_visited):
    """The one coalition scan: sizes ascending, then ids; the first
    coalition whose every hatW completes is the witness.  Coalitions with
    equal (k', requirement) share a verdict, and the tables of the k' it
    can still reach are built together when a first coalition has a
    requirement.
    ``_restrained_work`` bounds the steps, checked up front.

    ``stats["wprime_sets"]`` counts every (hatW, W') entry of the tables
    reached or, with ``count_visited``, the entries visited completing
    them.
    """
    W = frozenset(W)
    n, m, k = instance.n, instance.m, instance.k
    pool = _hat_pool(mode, W, m)
    require_work(_restrained_work(n, m, k, pool), f"the {notion} check")
    space = _Space(instance)
    requirement, meets, audit = test(instance, W, range(n), space)
    if not is_feasible(instance.feasibility, W):
        raise ValueError("W must itself be feasible")
    instance.require_candidates(W)
    kprimes = sorted({floored_endowment(size, k, n) for size in range(1, n + 1)})
    tables = None
    coalitions = hatw_sets = entries = visited = 0
    reached: set = set()
    memo: dict = {}
    witness = None
    for S in subsets(range(n), range(1, n + 1)):
        coalitions += 1
        req = requirement(S)
        if req is None:
            continue
        kprime = floored_endowment(len(S), k, n)
        key = (kprime, req)
        if key not in memo:
            if tables is None:
                # k' never falls as coalitions grow: the first one reached is the least
                reachable = [kp for kp in kprimes if kp >= kprime]
                tables = _Tables(instance, W, reachable, mode, space)
            if kprime not in reached:
                reached.add(kprime)
                assert len(tables.hats[kprime]), "a feasible W leaves every k' a completable hatW"
                hatw_sets += len(tables.hats[kprime])
                entries += tables.sizes[kprime]
            memo[key], seen = _complete(tables, kprime, meets(req, tables), req, audit)
            visited += seen
        if memo[key] is not None:
            completions = _completions(space, tables.hats[kprime], memo[key])
            witness = {"S": S, "completions": completions}
            break
    wprime_sets = visited if count_visited else entries
    stats = {"coalitions": coalitions, "hatw_sets": hatw_sets, "wprime_sets": wprime_sets}
    return VerificationReport(notion, param, witness is None, witness, stats, flags)


def blocks_restrained_core(instance, W, gamma, S, mode="subset_of_W", cert=None):
    """Does coalition S block W in the restrained-core sense?

    Quantifiers verbatim: with endowment k' = floor(|S| k / n), for ALL
    k'-completable hatW there EXISTS W' (|W'| <= k', hatW + W' feasible)
    giving every i in S utility >= gamma*(u_i(W)+1).  Returns
    (blocks, completions map).  If ``cert`` is given, only the certified
    W' choices are replayed.  An empty hatW domain never blocks.
    """
    test = functools.partial(_core_test, gamma=parse_rational(gamma))
    return _blocks_restrained(instance, W, S, mode, cert, test, "blocks_restrained_core")


def blocks_restrained_ejr(instance, W, S, mode="subset_of_W", cert=None):
    """Restrained-EJR blocking: condition (2) counts commonly approved
    candidates |A_S(T)| against max_{i in S} u_i(W) + 1."""
    return _blocks_restrained(instance, W, S, mode, cert, _ejr_test, "blocks_restrained_ejr")


def check_restrained_core(
    instance: Instance, W: Iterable[int], gamma, mode: str = "subset_of_W"
) -> VerificationReport:
    """gamma-approximate restrained core, quantifiers verbatim.

    A coalition S with endowment k' = floor(|S| k / n) blocks when for
    every k'-completable hatW (subset of W, or any committee in
    ``any_hatW`` mode) there is a W' of size <= k' making hatW + W'
    feasible and gamma-satisfying all of S.  Fails with the full
    hatW -> W' certificate map of the first blocking coalition.
    """
    instance.require_k_mode("check_restrained_core")
    gamma = _at_least_one(gamma, "gamma")
    flags = ["floored-endowment"]
    if instance.feasibility.kind == "cardinality":
        flags.insert(0, "unconstrained-reduces-to-core")
    test = functools.partial(_core_test, gamma=gamma)
    return _check_restrained(
        instance, W, "restrained_core", gamma, mode, flags, test, count_visited=False
    )


def check_restrained_ejr(
    instance: Instance, W: Iterable[int], mode: str = "subset_of_W"
) -> VerificationReport:
    """Restrained EJR for approval utilities (exact integers throughout)."""
    instance.require_k_mode("check_restrained_ejr")
    return _check_restrained(
        instance, W, "restrained_ejr", Fraction(1), mode, [], _ejr_test, count_visited=True
    )
