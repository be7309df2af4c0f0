"""Brute-force decision procedures for the five stability notions.

Each checker enumerates deterministically (sizes ascending, candidate ids
ascending), decides with exact arithmetic, and returns a report whose
failure witness replays through the definitional predicates in this
module.  Witnesses are canonical: the first blocking object in
enumeration order.

The committee-size notions compare the deviating committee's size against
the coalition's proportional endowment |S|*k/n without rounding (for
integer |T| this coincides with the floored endowment used by the
restrained notions; the report notes the convention).  Empty coalitions
and empty deviations never block; a degenerate empty deviation that would
tie on utility is flagged instead.

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
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional

from .constraints import is_feasible, is_q_completable
from .errors import RuleMismatchError, require_work, subsets_up_to
from .exactnum import parse_rational, rational_to_json
from .model import ApprovalUtility, Instance, exact_measure, gain_threshold

NOTIONS = ("core", "restrained_core", "restrained_ejr", "endowment_core", "pb_core")


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
                        self.witness["completions"].items(),
                        key=lambda kv: (len(kv[0]), sorted(kv[0])),
                    )
                ]
            out["witness"] = w
        return out


def _subsets_by_size(pool: Iterable[int], max_size: int):
    pool = sorted(pool)
    for size in range(max_size + 1):
        yield from (frozenset(c) for c in itertools.combinations(pool, size))


# ---------------------------------------------------------------------------
# definitional predicates (used by the checkers and for witness replay)
# ---------------------------------------------------------------------------


def _gain_coalition(instance, W, gamma):
    """T -> the voters i with u_i(T) >= gamma * (u_i(W) + 1)."""
    tests = [gain_threshold(u, W, gamma) for u in instance.utilities]
    return lambda T: frozenset(i for i, (measure, bar) in enumerate(tests) if measure(T) >= bar)


def blocks_core(instance, W, gamma, S, T, min_coalition=None) -> bool:
    """Does (S, T) block W in the gamma-approximate core sense?"""
    W, T, S = frozenset(W), frozenset(T), frozenset(S)
    gamma = parse_rational(gamma)
    if not S or not T:
        return False
    if min_coalition is not None and len(S) < min_coalition:
        return False
    if len(T) * instance.n > len(S) * instance.k:
        return False
    return S <= _gain_coalition(instance, W, gamma)(T)


def blocks_pb_core(instance, W, gamma, S, T) -> bool:
    W, T, S = frozenset(W), frozenset(T), frozenset(S)
    gamma = parse_rational(gamma)
    if not S or not T:
        return False
    if instance.cost(T) * instance.n > len(S) * instance.budget:
        return False
    return S <= _gain_coalition(instance, W, gamma)(T)


def blocks_endowment(instance, W, theta, S, T) -> bool:
    """Endowment blocking demands a strict gain for every member.

    The printed definition compares with >=, but that reading is
    degenerate (any committee ties with itself and the empty deviation
    ties with zero-utility voters); equality-only deviations are
    reported as flags, never as blocks.
    """
    W, T, S = frozenset(W), frozenset(T), frozenset(S)
    theta = parse_rational(theta)
    if not S or not T:
        return False
    if instance.cost(T) * theta * instance.n > len(S) * instance.budget:
        return False
    measures = (exact_measure(instance.utilities[i]) for i in S)
    return all(measure(T) > measure(W) for measure in measures)


# ---------------------------------------------------------------------------
# checkers
# ---------------------------------------------------------------------------


def _max_deviation_size(instance, notion) -> int:
    """The largest deviation size, once the scan over every deviation up
    to it fits the work limit; called before any oracle call."""
    max_size = instance.k if instance.is_k_mode else instance.m
    require_work(subsets_up_to(instance.m, max_size), f"the {notion} check's deviations")
    return max_size


def _enumerating_core_check(
    instance, notion, param, max_size, coalition, endowment_ok, min_coalition=None
):
    """Shared scan over deviations T of size <= ``max_size``: the best
    coalition is ``coalition(T)``, every voter T satisfies."""
    degenerate = None
    enumerated = 0
    for T in _subsets_by_size(instance.candidates, max_size):
        S_T = coalition(T)
        if not T:
            if S_T and endowment_ok(T, S_T):
                degenerate = S_T
            continue
        enumerated += 1
        if not S_T:
            continue
        if min_coalition is not None and len(S_T) < min_coalition:
            continue
        if endowment_ok(T, S_T):
            report = VerificationReport(
                notion=notion,
                gamma_or_theta=param,
                verdict=False,
                witness={"S": S_T, "T": T},
                stats={"committees_enumerated": enumerated},
            )
            if degenerate:
                report.flags.append("degenerate-empty-deviation")
            return report
    report = VerificationReport(
        notion=notion,
        gamma_or_theta=param,
        verdict=True,
        stats={"committees_enumerated": enumerated},
    )
    if degenerate is not None:
        report.flags.append("degenerate-empty-deviation")
        report.stats["degenerate_S"] = sorted(degenerate)
    if min_coalition is not None:
        report.flags.append(f"coalitions-restricted-to-size>={min_coalition}")
    return report


def check_core(
    instance: Instance, W: Iterable[int], gamma, min_coalition=None
) -> VerificationReport:
    """gamma-approximate core: no (S, T) with |T| <= (|S|/n)k and
    u_i(T) >= gamma*(u_i(W)+1) for all of S.  Exact comparisons."""
    instance.require_k_mode("check_core")
    gamma = parse_rational(gamma)
    if gamma < 1:
        raise ValueError("gamma must be at least 1")
    return _enumerating_core_check(
        instance,
        "core",
        gamma,
        _max_deviation_size(instance, "core"),
        coalition=_gain_coalition(instance, frozenset(W), gamma),
        endowment_ok=lambda T, S: len(T) * instance.n <= len(S) * instance.k,
        min_coalition=min_coalition,
    )


def _budget_mode(instance: Instance, auto_lift: bool, op: str) -> Instance:
    """A budget-mode instance as is; a k-mode one, with ``auto_lift``,
    lifted to unit sizes and budget k."""
    if not auto_lift:
        instance.require_budget_mode(op)
    if not instance.is_k_mode:
        return instance
    return Instance(
        candidates=instance.candidates,
        utilities=instance.utilities,
        sizes={c: 1 for c in instance.candidates},
        budget=instance.k,
        validate="trust",
    )


def check_pb_core(
    instance: Instance, W: Iterable[int], gamma, auto_lift: bool = False
) -> VerificationReport:
    """Budget-mode core: Cost(T) <= (|S|/n) b instead of the size bound."""
    lifted = instance.is_k_mode
    instance = _budget_mode(instance, auto_lift, "check_pb_core")
    gamma = parse_rational(gamma)
    if gamma < 1:
        raise ValueError("gamma must be at least 1")
    report = _enumerating_core_check(
        instance,
        "pb_core",
        gamma,
        _max_deviation_size(instance, "pb_core"),
        coalition=_gain_coalition(instance, frozenset(W), gamma),
        endowment_ok=lambda T, S: instance.cost(T) * instance.n
        <= len(S) * instance.budget,
    )
    if lifted:
        report.flags.append("auto-lifted-unit-sizes")
    return report


def check_endowment_core(
    instance: Instance, W: Iterable[int], theta, auto_lift: bool = False
) -> VerificationReport:
    """theta-approximate endowment core: coalition budgets are scaled down
    by theta and members need only match their current utility."""
    lifted = instance.is_k_mode
    instance = _budget_mode(instance, auto_lift, "check_endowment_core")
    theta = parse_rational(theta)
    if theta < 1:
        raise ValueError("theta must be at least 1")
    max_size = _max_deviation_size(instance, "endowment_core")
    W = frozenset(W)
    measures = [exact_measure(u) for u in instance.utilities]
    current = [measure(W) for measure in measures]
    report = _enumerating_core_check(
        instance,
        "endowment_core",
        theta,
        max_size,
        coalition=lambda T: frozenset(
            i for i, measure in enumerate(measures) if measure(T) > current[i]
        ),
        endowment_ok=lambda T, S: instance.cost(T) * theta * instance.n
        <= len(S) * instance.budget,
    )
    # the empty deviation ties exactly with zero-utility voters; that is
    # an equality artifact of the printed >= definition, flagged not blocked
    zero_S = sorted(i for i in range(instance.n) if current[i] == 0)
    if zero_S and "degenerate-empty-deviation" not in report.flags:
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
    one of those classes reaches gamma*(u_i(W)+1) at T.  The satisfied
    classes of each T are computed once.
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
    satisfied: dict = {}

    def requirement(S):
        mask = 0
        for i in S:
            mask |= 1 << class_of[i]
        return mask

    def meets(mask, T):
        sat = satisfied.get(T)
        if sat is None:
            sat = 0
            for c, (measure, bar) in enumerate(tests):
                if measure(T) >= bar:
                    sat |= 1 << c
            satisfied[T] = sat
        return sat & mask == mask

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


def _completion_tables(instance, W, kprime, mode) -> list:
    """[(hatW, [(W', hatW + W'), ...]), ...]: every k'-completable hatW of
    size <= k - k' (a subset of W, or any committee in ``any_hatW`` mode)
    with the W' of size <= k' making hatW + W' feasible, both in
    enumeration order."""
    P, candidates = instance.feasibility, instance.candidates
    pool = W if mode == "subset_of_W" else candidates
    tables = []
    for hatW in _subsets_by_size(pool, instance.k - kprime):
        if is_q_completable(P, hatW, kprime, candidates)[0]:
            rest = set(candidates) - hatW
            pairs = ((wprime, hatW | wprime) for wprime in _subsets_by_size(rest, kprime))
            tables.append((hatW, [(wprime, T) for wprime, T in pairs if is_feasible(P, T)]))
    return tables


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


def _blocks_restrained(instance, W, S, mode, cert, test):
    W, S = frozenset(W), frozenset(S)
    if not S:
        return False, None
    requirement, meets = test(instance, W, sorted(S))
    req = requirement(S)
    if req is None:
        return False, None
    kprime = (len(S) * instance.k) // instance.n
    tables = _completion_tables(instance, W, kprime, mode)
    completions, _ = _complete(instance, tables, kprime, req, meets, cert)
    return completions is not None, completions


def _restrained_work(n: int, m: int, k: int, pool: int) -> int:
    """An upper bound on the steps of one restrained check: the 2^n
    coalitions plus, per distinct k', every hatW of size h <= k - k' drawn
    from the pool and, for each, every W' of size <= k' drawn from the
    m - h candidates outside it."""
    work = 1 << n
    for kp in {(size * k) // n for size in range(1, n + 1)}:
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
    tables_of: dict = {}
    memo: dict = {}
    witness = None
    for S in itertools.chain.from_iterable(
        itertools.combinations(range(n), size) for size in range(1, n + 1)
    ):
        coalitions += 1
        req = requirement(S)
        if req is None:
            continue
        kprime = (len(S) * k) // n
        key = (kprime, req)
        if key not in memo:
            if kprime not in tables_of:
                tables = tables_of[kprime] = _completion_tables(instance, W, kprime, mode)
                assert tables, "a feasible W leaves every k' a completable hatW"
                hatw_sets += len(tables)
                entries += sum(len(wprimes) for _, wprimes in tables)
            memo[key], seen = _complete(instance, tables_of[kprime], kprime, req, meets)
            visited += seen
        if memo[key] is not None:
            witness = {"S": frozenset(S), "completions": memo[key]}
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
    return _blocks_restrained(instance, W, S, mode, cert, test)


def blocks_restrained_ejr(instance, W, S, mode="subset_of_W", cert=None):
    """Restrained-EJR blocking: condition (2) counts commonly approved
    candidates |A_S(T)| against max_{i in S} u_i(W) + 1."""
    return _blocks_restrained(instance, W, S, mode, cert, _ejr_test)


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
    gamma = parse_rational(gamma)
    if gamma < 1:
        raise ValueError("gamma must be at least 1")
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
