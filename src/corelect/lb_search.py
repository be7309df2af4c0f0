"""Capped exhaustive restrained-core search over the 16/15 construction.

The four-voter, six-party instance is symmetric under permuting
candidates within a party, so committees are enumerated as party-count
vectors (with dummies filling to k).  Three exact reductions keep the
search sound:

* only maximal-dummy committees need checking: shrinking the dummy part
  only removes planner options, so a failing maximal-dummy committee
  forces every smaller-dummy variant to fail too;
* the planner's sub-committee hatW matters only through its non-dummy
  party counts (dummies consume neither the packing cap nor utility);
* blocking is downward-closed in the counts: if coalition S blocks the
  class c + e_p (one more seat for party p), it blocks c.  Proof: the
  planner replies under c (every h <= c within S's seat limit) are among
  those under c + e_p; each reply's caps ``pool - h`` and budget
  min(k', cap - sum h) depend on h alone; the targets ceil(gamma (u_v + 1))
  do not grow when a count falls (for gamma > 0 they rise with u_v, and
  for gamma <= 0 all are <= 0, so every class is blocked); so the cover
  that met S's residual targets after a reply under c + e_p also meets
  the smaller ones under c.  The skip of a coalition with a target above
  3 * pool is monotone the same way.

The scan uses the third reduction on runs: the classes that share the
counts c0..c4 and differ in the last count b = 0..top, which are
consecutive in scan order.  The class at b = top decides a blocked run
in one evaluation; a run whose last class passes is bisected on b for
its first passing class, which is the class a one-by-one scan would
stop at.

Deciding "can the coalition reach its utility targets given hatW" is a
capacitated b-edge-cover question on K4 (each party is approved by
exactly two voters): can edge units x_e <= c_e with sum x <= budget give
every voter v at least n_v?  It is answered in closed form.  By Gallai's
identity rho = n(V) - nu and the Tutte-Berge formula for capacitated
b-matching (Schrijver, *Combinatorial Optimization*, the b-matching and
b-edge-cover chapters), the least cover of a coverable demand (each n_v
at most the caps on v's three edges) is

    rho = max over W of  n(W) - c(E[W]) + ceil(sum_{v not in W} (n_v - c(E(v, W)))^+ / 2),

W ranging over the 16 subsets of the voters: on K4 the voters outside W
form a single component and each adds its own uncovered remainder.  When
no cap is below the largest need, rho = max(max n, ceil(n(V) / 2)).  The
search keeps no memo; a query costs at most the 16 terms, over index
tuples built at import.

Targets are integers: u_v is an integer and gamma = p/q, so
ceil(gamma (u_v + 1)) = -(-p (u_v + 1) // q), with no Fraction per class.

The planner replies of one class are kept in layers by seats used
(``_ReplyLayers``): layer t lists every h <= counts with sum(h) = t in
lexicographic order, each with its voter utilities and its least cap
left in the pool (the caps ``pool - h`` are formed only when a cap is
below a residual target).  A layer is built the first time a coalition
reaches it and then serves all 15 coalitions; a layer below every
coalition's first refuting reply is never built.  A coalition whose
planner may use L seats walks layers min(L, sum counts) down to 0, and
within layer t its completion budget min(k', cap - t) is one constant.
That walk visits the replies in the order of the former single list,
the lexicographic list sorted stably by descending seats used: a stable
sort keeps each sum's lexicographic order.  ``verify_passing_class``
walks the same layers, so it meets the same first refuting reply per
coalition and its certificates are unchanged.

The search reports honestly: confirmed emptiness, cap exceeded (no
claim; it stops at a class-count cap or a wall-clock cap), or a
candidate committee that passed (which would refute the bound at this
scale).
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .exactnum import parse_rational, rational_to_json
from .instances import LB1_GAMMA, LB1_PARTIES, LB1_VOTERS, lb1_geometry
from .model import floored_endowment

# the scan's default stop: a class count, so its outcome does not depend on
# the host; 40,000 classes reach r = 5's passing class 32,679
LB1_CLASS_CAP = 40_000

EDGE_ENDPOINTS = tuple(
    tuple(LB1_VOTERS.index(ch) for ch in party) for party in LB1_PARTIES
)
EDGES_OF_VOTER = tuple(
    tuple(e for e, ends in enumerate(EDGE_ENDPOINTS) if v in ends) for v in range(4)
)
# every coalition, largest first
COALITIONS = tuple(
    S for size in (4, 3, 2, 1) for S in itertools.combinations(range(4), size)
)


def _cover_terms():
    """For each voter subset W: (W, edges inside W, ((v, edges from v into W)
    for each voter v outside W))."""
    terms = []
    for W in itertools.chain.from_iterable(
        itertools.combinations(range(4), size) for size in range(5)
    ):
        inner = tuple(
            e for e, ends in enumerate(EDGE_ENDPOINTS) if all(u in W for u in ends)
        )
        outside = tuple(
            (v, tuple(e for e in EDGES_OF_VOTER[v] if any(u in W for u in EDGE_ENDPOINTS[e])))
            for v in range(4)
            if v not in W
        )
        terms.append((W, inner, outside))
    return tuple(terms)


COVER_TERMS = _cover_terms()


def _min_cover(needs, caps):
    """Least total of edge units covering nonnegative ``needs`` within
    ``caps``: the max of the 16 terms in the module docstring.  Exact
    whenever every voter's need is at most the caps on its three edges."""
    top = max(needs)
    if min(caps) >= top:
        # no cap binds: a term with W nonempty is at most its largest need
        return max(top, (sum(needs) + 1) // 2)
    rho = 0
    for W, inner, outside in COVER_TERMS:
        spill = 1  # rounds the halved remainder up
        for v, edges in outside:
            d = needs[v]
            for e in edges:
                d -= caps[e]
            if d > 0:
                spill += d
        term = spill // 2
        for v in W:
            term += needs[v]
        for e in inner:
            term -= caps[e]
        if term > rho:
            rho = term
    return rho


def _cover_feasible(needs, caps, budget):
    """Can per-voter demands be met by K4 edge units within the budget?

    Each unit on edge e supplies one unit to both its endpoints;
    per-edge supply is capped.  Negative demands count as zero.
    """
    needs = tuple(x if x > 0 else 0 for x in needs)
    if not any(needs):
        return True
    if budget <= 0:
        return False
    for v, (e1, e2, e3) in enumerate(EDGES_OF_VOTER):
        if needs[v] > caps[e1] + caps[e2] + caps[e3]:
            return False
    return _min_cover(needs, caps) <= budget


def _utilities(h):
    """Each voter's utility under party counts h: its three parties' counts."""
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2), (d0, d1, d2) = EDGES_OF_VOTER
    return (
        h[a0] + h[a1] + h[a2], h[b0] + h[b1] + h[b2], h[c0] + h[c1] + h[c2], h[d0] + h[d1] + h[d2]
    )


def _targets(utils, gamma: Fraction):
    """ceil(gamma * (u + 1)) for each integer utility u, in integers."""
    p, q = gamma.numerator, gamma.denominator
    return tuple(-(-p * (u + 1) // q) for u in utils)


def _compositions(counts, t):
    """Every h <= counts (six parties) with sum(h) == t, in lexicographic order."""
    c0, c1, c2, c3, c4, c5 = counts
    room4 = c5
    room3 = c4 + room4
    room2 = c3 + room3
    room1 = c2 + room2
    room0 = c1 + room1  # seats the parties after party 0 can take
    for a in range(max(0, t - room0), min(c0, t) + 1):
        ta = t - a
        for b in range(max(0, ta - room1), min(c1, ta) + 1):
            tb = ta - b
            for c in range(max(0, tb - room2), min(c2, tb) + 1):
                tc = tb - c
                for d in range(max(0, tc - room3), min(c3, tc) + 1):
                    td = tc - d
                    for e in range(max(0, td - room4), min(c4, td) + 1):
                        yield (a, b, c, d, e, td - e)


class _ReplyLayers(dict):
    """The planner replies under one committee class, by seats used.

    ``self[t]`` lists (h, voter utilities, least cap left in the pool)
    for every h <= counts with sum(h) == t, in lexicographic order; a
    layer is built on first use.
    """

    def __init__(self, counts, pool):
        super().__init__()
        self.counts = counts
        self.pool = pool
        self.seats = sum(counts)

    def __missing__(self, t):
        pool = self.pool
        layer = self[t] = [
            (h, _utilities(h), pool - max(h)) for h in _compositions(self.counts, t)
        ]
        return layer

    def caps(self, h):
        """Units of each party left in the pool after reply h."""
        pool = self.pool
        return tuple([pool - c for c in h])

    def walk(self, limit):
        """(seats used, layer) for the replies using at most ``limit``
        seats, largest first."""
        for t in range(min(limit, self.seats), -1, -1):
            yield t, self[t]


@dataclass
class EmptinessReport:
    result: str  # confirmed-empty / cap-exceeded / counterexample-candidate
    gamma: Fraction
    r: int
    classes_total: int
    classes_checked: int = 0
    elapsed_s: float = 0.0
    passing_class: object = None
    notes: list = field(default_factory=list)

    def to_json(self):
        return {
            "result": self.result,
            "gamma": rational_to_json(self.gamma),
            "r": self.r,
            "classes_total": self.classes_total,
            "classes_checked": self.classes_checked,
            "elapsed_s": round(self.elapsed_s, 3),
            "passing_class": list(self.passing_class) if self.passing_class else None,
            "notes": list(self.notes),
        }


def _cover_feasible_second_opinion(needs, caps, budget):
    """Independent complete check of the covering question, used to verify
    passing-class certificates.  Nested per-edge enumeration with
    reachability pruning; deliberately shares no code with the main
    allocator above."""
    needs = tuple(max(0, v) for v in needs)

    def rec(idx, needs, caps, budget):
        needs = tuple(max(0, x) for x in needs)
        if sum(needs) == 0:
            return True
        if budget <= 0 or sum(needs) > 2 * budget:
            return False
        if idx == 6:
            return False
        for v in range(4):
            reach = sum(
                min(caps[j], budget)
                for j in range(idx, 6)
                if v in EDGE_ENDPOINTS[j]
            )
            if needs[v] > reach:
                return False
        a, b = EDGE_ENDPOINTS[idx]
        hi = min(caps[idx], budget, max(needs[a], needs[b]))
        for x in range(hi, -1, -1):
            nn = list(needs)
            nn[a] -= x
            nn[b] -= x
            if rec(idx + 1, tuple(nn), caps, budget - x):
                return True
        return False

    return rec(0, needs, tuple(caps), budget)


def _coalition_queries(layers, S, needs, kprime, hat_limit, cap):
    """(reply, residual targets, caps, budget) for every planner reply of
    coalition S, in the scan's layer order; voters outside S need 0."""
    wants = [(needs[v], v in S) for v in range(4)]
    for t, layer in layers.walk(hat_limit):
        budget = min(kprime, cap - t)
        for hatw, hat_util, _ in layer:
            residual = tuple([n - u if member else 0 for (n, member), u in zip(wants, hat_util)])
            yield hatw, residual, layers.caps(hatw), budget


def _second_opinion(query, expected):
    """Raise unless the second-opinion allocator answers ``expected``."""
    if _cover_feasible_second_opinion(*query[1:]) != expected:
        raise RuntimeError(f"the two cover allocators disagree on {query}")


def verify_passing_class(r: int, counts, gamma=LB1_GAMMA, pool_size=None) -> dict:
    """Independently certify that a committee class passes the restrained core.

    For each of the 15 coalitions, finds with ``_cover_feasible`` the first
    planner reply, in the scan's layer order, after which no completion
    covers the coalition's residual targets, and has the second-opinion
    allocator confirm that impossibility.  A coalition with no such reply
    blocks; the second opinion then confirms a cover after every one of
    its replies.  A disagreement between the allocators raises.  Returns
    {"passes": bool, "certificates": [...]}; a blocked class reports the
    blocking coalition instead.
    """
    k, cap, pool = lb1_geometry(r, pool_size)
    gamma = parse_rational(gamma)
    counts = tuple(int(c) for c in counts)
    utils = _utilities(counts)
    needs_full = _targets(utils, gamma)
    certificates = []
    layers = _ReplyLayers(counts, pool)
    for S in COALITIONS:
        kprime = floored_endowment(len(S), k, 4)
        queries = functools.partial(
            _coalition_queries, layers, S, needs_full, kprime, k - kprime, cap
        )
        refuting = next((q for q in queries() if not _cover_feasible(*q[1:])), None)
        if refuting is None:
            for query in queries():
                _second_opinion(query, True)
            return {"passes": False, "blocking_coalition": S, "certificates": certificates}
        _second_opinion(refuting, False)
        hatw, residual, _, budget = refuting
        certificates.append({
            "coalition": S,
            "reply": hatw,
            "residual_targets": [residual[v] for v in S],
            "budget": budget,
        })
    return {"passes": True, "utilities": list(utils), "targets": list(needs_full),
            "certificates": certificates}


def _compositions_count(total, parts, cap):
    # inclusion-exclusion over parts exceeding the cap
    result = 0
    for j in range(parts + 1):
        rem = total - j * (cap + 1)
        if rem < 0:
            break
        result += (-1) ** j * math.comb(parts, j) * math.comb(rem + parts - 1, parts - 1)
    return result


def _class_runs(pool, cap, k):
    """The scan's runs in lexicographic order: (c0..c4, top) for every
    prefix with sum <= min(cap, k) and each count <= pool, standing for
    the classes prefix + (b,), b = 0..top."""

    def rec(prefix, remaining):
        if len(prefix) == 5:
            yield prefix, min(pool, remaining)
            return
        for c in range(min(pool, remaining) + 1):
            yield from rec(prefix + (c,), remaining - c)

    yield from rec((), min(cap, k))


def _class_iter(pool, cap, k):
    """Party-count vectors with sum <= min(cap, k), each count <= pool, in
    lexicographic order: the runs of ``_class_runs`` expanded."""
    for prefix, top in _class_runs(pool, cap, k):
        for b in range(top + 1):
            yield prefix + (b,)


def _blocking_coalition_exists(counts, pool, cap, k, needs):
    """Is there a coalition that blocks the committee with these counts?

    Returns (True, S) for the first blocking S in ``COALITIONS`` order,
    else (False, None).  S is refuted by a planner reply whose residual
    targets no completion within the budget can cover; the cover test is
    ``_cover_feasible`` inlined on the coalition's residuals."""
    layers = _ReplyLayers(counts, pool)
    for S in COALITIONS:
        targets = tuple((v, needs[v]) for v in S)
        if any(n > 3 * pool for _, n in targets):
            continue  # unreachable target even with every approved candidate
        kprime = floored_endowment(len(S), k, 4)
        if _first_refuting_reply(layers, targets, k - kprime, kprime, cap) is None:
            return True, S
    return False, None


def _first_refuting_reply(layers, targets, hat_limit, kprime, cap):
    """The first reply, in layer order, after which the coalition with
    these (voter, target) pairs cannot reach every target, or None.

    A residual never exceeds the caps on its voter's three edges: they sum
    to 3 * pool - u_v, and every target is at most 3 * pool.  So the
    per-voter reach test of ``_cover_feasible`` always passes here."""
    for t, layer in layers.walk(hat_limit):
        budget = min(kprime, cap - t)
        for reply in layer:
            util = reply[1]
            residual = [0, 0, 0, 0]
            top = total = 0
            for v, n in targets:
                d = n - util[v]
                if d > 0:
                    residual[v] = d
                    total += d
                    if d > top:
                        top = d
            if not total:
                continue
            # max(top, ceil(total / 2)) bounds the least cover from below,
            # and equals it when no cap is below the largest residual
            if top > budget or total > 2 * budget:
                return reply
            if reply[2] < top and _min_cover(residual, layers.caps(reply[0])) > budget:
                return reply
    return None


def _first_passing(prefix, size, pool, cap, k, gamma, deadline):
    """The least b < size whose class prefix + (b,) passes, or size when
    all of them are blocked; None when the monotonic clock is past
    ``deadline`` before an evaluation.  Passing is upward-closed in b
    (module docstring), so the class at b = size - 1 is evaluated first
    and a blocked one decides the run; otherwise the first passing b is
    bisected for."""
    lo, hi, b = 0, size, size - 1  # blocked below lo, passing from hi on
    while lo < hi:
        if time.monotonic() > deadline:
            return None
        counts = prefix + (b,)
        needs = _targets(_utilities(counts), gamma)
        if _blocking_coalition_exists(counts, pool, cap, k, needs)[0]:
            lo = b + 1
        else:
            hi = b
        b = (lo + hi) // 2
    return lo


def lb1_emptiness_search(
    r: int,
    gamma=LB1_GAMMA,
    time_cap_s: float = math.inf,
    pool_size=None,
    class_cap=LB1_CLASS_CAP,
) -> EmptinessReport:
    """Scan every committee class of the 16/15 instance for one that passes
    the gamma-approximate restrained core, under a deterministic
    class-count cap (None for none) and an optional wall-clock cap.

    The per-class verdict follows the restrained definition exactly
    (floored endowment, all completable planner replies, coalition
    utility targets gamma*(u+1) rounded up to the next integer).
    Note the +1 in the targets: at small r it is generous enough that
    passing committees exist (the asymptotic emptiness has an o(1)
    allowance); a found one is reported as a counterexample candidate
    and can be certified with ``verify_passing_class``.

    The scan decides whole runs (module docstring), in the order and
    with the outcome of a one-class-at-a-time scan; the class cap ends a
    run where it falls.  The wall clock is read before each evaluation,
    and a stop on it counts only the runs already decided.
    """
    k, cap, pool = lb1_geometry(r, pool_size)
    gamma = parse_rational(gamma)
    classes_total = sum(
        _compositions_count(t, 6, pool) for t in range(min(cap, k) + 1)
    )
    report = EmptinessReport(
        result="cap-exceeded", gamma=gamma, r=r, classes_total=classes_total
    )
    start = time.monotonic()
    checked = 0
    for prefix, top in _class_runs(pool, cap, k):
        size = top + 1
        if class_cap is not None:
            size = max(0, min(size, class_cap - checked))
        first = _first_passing(prefix, size, pool, cap, k, gamma, start + time_cap_s)
        if first is not None and first < size:
            checked += first + 1
            counts = prefix + (first,)
            report.result = "counterexample-candidate"
            report.passing_class = counts
            report.notes.append(
                f"counts {counts} pass the {gamma}-restrained core at r={r}"
            )
            break
        if first is not None:
            checked += size
        if first is None or size <= top:
            report.notes.append(
                f"stopped after {checked} of {classes_total} classes; "
                "no stability claim is made for the unchecked remainder"
            )
            break
    else:
        report.result = "confirmed-empty"
    report.classes_checked = checked
    report.elapsed_s = time.monotonic() - start
    return report
