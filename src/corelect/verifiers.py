"""Brute-force decision procedures for the five stability notions.

Each checker enumerates in the canonical subset order (``errors.subsets``:
sizes ascending, then candidate ids), decides with exact arithmetic, and
returns a report whose failure witness replays through the definitional
predicates in this module.  Witnesses are canonical: the first blocking
object in enumeration order.

The three enumerating notions (core, pb-core and endowment core) are
each one pair: ``coalition(T)``, every voter the deviation T satisfies,
and ``affordable(T, S)``, Cost(T)*theta*n <= |S|*b.  The core is its
unit-size case (Cost(T) = |T|, b = k, theta = 1), compared against the
proportional endowment |S|*k/n without rounding (for integer |T| this
coincides with the floored endowment used by the restrained notions).
The checker scans T and the ``blocks_*`` predicate tests one (S, T),
both through the same pair.  Empty coalitions and empty deviations never
block; an empty deviation that ties with zero-utility voters in the
endowment core is flagged instead.

The restrained core and restrained EJR share one engine: coalition S,
with endowment k' = floor(|S| k / n), blocks W when for EVERY
k'-completable planner reply hatW SOME W' (|W'| <= k', hatW + W'
feasible) satisfies S.  A notion supplies only ``requirement(S)`` (the
bitmask of S's voter classes for the core, (A_S, max u_i(W) + 1) for
EJR) and ``meets(requirement, T)`` for T = hatW + W'.  The engine builds
one table of hatW and their feasible W' per k', completes each hatW with
the first W' that meets, and scans coalitions memoized on (k',
requirement); the checkers and the ``blocks_restrained_*`` replay
predicates all run through it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional

from .constraints import is_feasible, is_q_completable
from .errors import RuleMismatchError, canonical, require_work, subsets, subsets_up_to
from .exactnum import parse_rational, rational_to_json
from .model import ApprovalUtility, Instance, exact_measure, floored_endowment, gain_threshold


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
# enumerating notions: one (coalition, affordable) pair each
# ---------------------------------------------------------------------------


def _affordable(instance, theta=1):
    """(T, S) -> Cost(T)*theta*n <= |S|*b; a committee-size instance has
    unit sizes and b = k."""
    cost, b = (len, instance.k) if instance.is_k_mode else (instance.cost, instance.budget)
    return lambda T, S: cost(T) * theta * instance.n <= len(S) * b


def _gain_notion(instance, W, gamma):
    """The gamma-core and the pb-core: T satisfies the voters with
    u_i(T) >= gamma * (u_i(W) + 1)."""
    tests = [gain_threshold(u, W, gamma) for u in instance.utilities]

    def coalition(T):
        return frozenset(i for i, (measure, bar) in enumerate(tests) if measure(T) >= bar)

    return coalition, _affordable(instance)


def _endowment_notion(instance, W, theta):
    """The theta-endowment core: T satisfies the voters with
    u_i(T) > u_i(W), within a budget scaled down by theta.

    The printed definition compares with >=, but that reading is
    degenerate (any committee ties with itself and the empty deviation
    ties with zero-utility voters); equality-only deviations are
    reported as flags, never as blocks.
    """
    measures = [exact_measure(u) for u in instance.utilities]
    current = [measure(W) for measure in measures]

    def coalition(T):
        return frozenset(i for i, measure in enumerate(measures) if measure(T) > current[i])

    return coalition, _affordable(instance, theta)


def _blocks(notion, instance, W, param, S, T) -> bool:
    param, S, T = parse_rational(param), frozenset(S), frozenset(T)
    if not S or not T:
        return False
    coalition, affordable = notion(instance, frozenset(W), param)
    return affordable(T, S) and S <= coalition(T)


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
    voters) affords it."""
    require_work(subsets_up_to(instance.m, max_size), f"the {name} check's deviations")
    coalition, affordable = notion(instance, frozenset(W), param)
    witness, enumerated = None, 0
    for T in subsets(instance.candidates, range(1, max_size + 1)):
        enumerated += 1
        S = coalition(T)
        if S and (min_coalition is None or len(S) >= min_coalition) and affordable(T, S):
            witness = {"S": S, "T": T}
            break
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


def _core_test(instance, W, voters, gamma):
    """(requirement, meets) of the gamma-restrained core.

    Voters with identical oracles and thresholds form one class, so a
    coalition requires the bitmask of its classes; T meets it when every
    one of those classes reaches gamma*(u_i(W)+1) at T.  A class is tested
    at T only when a requirement reaches it: the test stops at the first
    class that fails, and each T keeps the classes it has tested and
    those that passed.
    """
    class_of, ids, tests = {}, {}, []
    for i in voters:
        u = instance.utilities[i]
        measure, bar = gain_threshold(u, W, gamma)
        key = (u.key(), bar)
        if key not in ids:
            ids[key] = len(tests)
            tests.append((measure, bar))
        class_of[i] = ids[key]
    tested: dict = {}  # T -> (classes tested at T, those satisfied)

    def requirement(S):
        mask = 0
        for i in S:
            mask |= 1 << class_of[i]
        return mask

    def meets(mask, T):
        known, sat = tested.get(T, (0, 0))
        if mask & known & ~sat:
            return False
        todo = mask & ~known
        while todo:
            bit = todo & -todo
            todo ^= bit
            known |= bit
            measure, bar = tests[bit.bit_length() - 1]
            if measure(T) < bar:
                tested[T] = known, sat
                return False
            sat |= bit
        tested[T] = known, sat
        return True

    return requirement, meets


def _ejr_test(instance, W, voters):
    """(requirement, meets) of restrained EJR.

    A coalition requires (A_S, max_{i in S} u_i(W) + 1), its commonly
    approved candidates and the count it must reach, or None when no T of
    size <= k can reach it; T meets it when |A_S & T| reaches the count.
    """
    for i in voters:
        if not isinstance(instance.utilities[i], ApprovalUtility):
            raise RuleMismatchError("restrained EJR needs approval utilities")
    at_W = {i: instance.utilities[i].numerator(W) for i in voters}

    def requirement(S):
        A_S = frozenset.intersection(*(instance.utilities[i].approved for i in S))
        threshold = max(at_W[i] for i in S) + 1
        if len(A_S) < threshold or threshold > instance.k:
            return None
        return A_S, threshold

    def meets(req, T):
        A_S, threshold = req
        return len(A_S & T) >= threshold

    return requirement, meets


def _completion_tables(instance, W, kprime, mode, feasible) -> list:
    """[(hatW, [(W', hatW + W'), ...]), ...]: every k'-completable hatW of
    size <= k - k' (a subset of W, or any committee in ``any_hatW`` mode)
    with the W' of size <= k' making hatW + W' ``feasible``, both in
    enumeration order."""
    P, candidates = instance.feasibility, instance.candidates
    pool = W if mode == "subset_of_W" else candidates
    tables = []
    for hatW in subsets(pool, range(instance.k - kprime + 1)):
        if is_q_completable(P, hatW, kprime, candidates)[0]:
            rest = set(candidates) - hatW
            pairs = ((wprime, hatW | wprime) for wprime in subsets(rest, range(kprime + 1)))
            tables.append((hatW, [(wprime, T) for wprime, T in pairs if feasible(T)]))
    return tables


def _feasibility(instance):
    """is_feasible on the instance's family, decided once per committee:
    one T recurs across the hatW and k' of a check."""
    return functools.cache(functools.partial(is_feasible, instance.feasibility))


def _complete(instance, tables, kprime, req, meets, cert=None):
    """For ALL hatW, the first W' in its table whose T meets ``req``; with
    ``cert``, the certified W' alone.

    Returns (hatW -> W' map, or None when some hatW has no such W' or
    there is no hatW at all; table entries visited).
    """
    if not tables:
        return None, 0
    completions, visited = {}, 0
    for hatW, entries in tables:
        if cert is not None:
            entries = _certified_entry(instance, hatW, cert.get(hatW), kprime)
        for wprime, T in entries:
            visited += 1
            if meets(req, T):
                completions[hatW] = wprime
                break
        else:
            return None, visited
    return completions, visited


def _certified_entry(instance, hatW, wprime, kprime) -> list:
    if wprime is None or len(wprime) > kprime:
        return []
    T = hatW | wprime
    return [(wprime, T)] if is_feasible(instance.feasibility, T) else []


def _blocks_restrained(instance, W, S, mode, cert, test, what):
    W, S = frozenset(W), frozenset(S)
    if not S:
        return False, None
    kprime = floored_endowment(len(S), instance.k, instance.n)
    pool = len(W) if mode == "subset_of_W" else instance.m
    require_work(_tables_work(1, {kprime}, instance.m, instance.k, pool), what)
    requirement, meets = test(instance, W, sorted(S))
    req = requirement(S)
    if req is None:
        return False, None
    tables = _completion_tables(instance, W, kprime, mode, _feasibility(instance))
    completions, _ = _complete(instance, tables, kprime, req, meets, cert)
    return completions is not None, completions


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
    equal (k', requirement) share a verdict, and each k' table is built
    once.  ``_restrained_work`` bounds the steps, checked up front.

    ``stats["wprime_sets"]`` counts every (hatW, W') entry of the tables
    built or, with ``count_visited``, the entries visited completing them.
    """
    if mode not in ("subset_of_W", "any_hatW"):
        raise ValueError("mode must be subset_of_W or any_hatW")
    W = frozenset(W)
    n, m, k = instance.n, instance.m, instance.k
    pool = len(W) if mode == "subset_of_W" else m
    require_work(_restrained_work(n, m, k, pool), f"the {notion} check")
    requirement, meets = test(instance, W, range(n))
    if not is_feasible(instance.feasibility, W):
        raise ValueError("W must itself be feasible")
    coalitions = hatw_sets = entries = visited = 0
    feasible = _feasibility(instance)
    tables_of: dict = {}
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
            if kprime not in tables_of:
                tables = tables_of[kprime] = _completion_tables(
                    instance, W, kprime, mode, feasible
                )
                assert tables, "a feasible W leaves every k' a completable hatW"
                hatw_sets += len(tables)
                entries += sum(len(wprimes) for _, wprimes in tables)
            memo[key], seen = _complete(instance, tables_of[kprime], kprime, req, meets)
            visited += seen
        if memo[key] is not None:
            witness = {"S": S, "completions": memo[key]}
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
