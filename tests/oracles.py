"""Independent naive reference implementations for the test suite.

These are deliberately written as direct quantifier translations of the
stability definitions, with their own utility evaluation, no caching, no
pruning, and no shared code with the library's verifiers.  They exist to
cross-check the optimized implementations; keep them dumb.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


def naive_value(u, T):
    """Re-evaluate a utility from its raw fields, bypassing u.value()."""
    T = frozenset(T)
    kind = u.kind
    if kind == "approval":
        return Fraction(sum(1 for c in T if c in u.approved))
    if kind == "additive":
        total = Fraction(0)
        for c in T:
            total += u.weights.get(c, Fraction(0))
        return total
    if kind == "coverage":
        elems = set()
        for c in T:
            elems.update(u.covers.get(c, frozenset()))
        total = Fraction(0)
        for e in elems:
            total += u.element_weights.get(e, Fraction(0))
        return total
    if kind == "xos":
        best = Fraction(0)
        for clause in u.clauses:
            s = Fraction(0)
            for c in T:
                s += clause.get(c, Fraction(0))
            if s > best:
                best = s
        return best
    if kind == "table":
        if not T:
            return Fraction(0)
        return u.entries[T]
    if kind == "lb00":
        p, q = u.role
        cp = sum(1 for c in T if u.party_of.get(c) == p)
        cq = sum(1 for c in T if u.party_of.get(c) == q)
        xp = Fraction(cp, u.r)
        xq = Fraction(cq, u.r)
        return Fraction(u.r, u.beta) * (xp**u.beta + u.z * (1 - xp**u.beta) * xq**u.beta)
    raise ValueError(f"unknown kind {kind}")


def _naive_harmonic(x):
    total = Fraction(0)
    for j in range(1, x + 1):
        total = total + Fraction(1, j)
    return total


def _naive_floor(v):
    f = 0
    while f + 1 <= v:
        f += 1
    return f


def oracle_score(rule, instance, W):
    """The exact pav, snw or gpav score of W from the definitions, one
    naive_value per voter: pav sums H(u_i) (integer utilities only), snw
    multiplies 1 + u_i, gpav sums H(floor u_i) + (u_i - floor u_i) / ceil u_i."""
    from corelect.errors import RuleMismatchError

    values = [naive_value(u, W) for u in instance.utilities]
    if rule == "snw":
        product = Fraction(1)
        for v in values:
            product = product * (1 + v)
        return product
    total = Fraction(0)
    for v in values:
        fl = _naive_floor(v)
        if v == fl:
            total = total + _naive_harmonic(fl)
        elif rule == "pav":
            raise RuleMismatchError("pav requires integer utilities")
        else:
            total = total + _naive_harmonic(fl) + (v - fl) / (fl + 1)
    return total


def oracle_global(rule, instance):
    """The Global committee by full enumeration: every subset of at most k
    candidates that the family admits, ranked by ``oracle_score``, then by
    size (larger first), then by sorted ids (lexicographically smallest
    first).  Returns (members, score value)."""
    from corelect.constraints import is_feasible

    ranked = []
    for T in _all_subsets(sorted(instance.candidates), instance.k):
        if is_feasible(instance.feasibility, T):
            ranked.append((oracle_score(rule, instance, T), len(T), sorted(T)))
    top = max(v for v, _, _ in ranked)
    tied = [(size, ids) for v, size, ids in ranked if v == top]
    largest = max(size for size, _ in tied)
    return frozenset(min(ids for size, ids in tied if size == largest)), top


def _all_subsets(pool, max_size=None):
    pool = sorted(pool)
    if max_size is None:
        max_size = len(pool)
    for size in range(max_size + 1):
        for combo in itertools.combinations(pool, size):
            yield frozenset(combo)


def oracle_core(instance, W, gamma, min_coalition=None):
    """Naive double loop over coalitions S and deviations T."""
    W = frozenset(W)
    gamma = Fraction(gamma)
    voters = range(instance.n)
    for S in _all_subsets(voters):
        if not S:
            continue
        if min_coalition is not None and Fraction(len(S)) < min_coalition:
            continue
        for T in _all_subsets(instance.candidates):
            if not T:
                continue
            if Fraction(len(T)) > Fraction(len(S), instance.n) * instance.k:
                continue
            if all(
                naive_value(instance.utilities[i], T)
                >= gamma * (naive_value(instance.utilities[i], W) + 1)
                for i in S
            ):
                return False, (S, T)
    return True, None


def oracle_pb_core(instance, W, gamma):
    W = frozenset(W)
    gamma = Fraction(gamma)
    for S in _all_subsets(range(instance.n)):
        if not S:
            continue
        for T in _all_subsets(instance.candidates):
            if not T:
                continue
            cost = sum((instance.sizes[c] for c in T), Fraction(0))
            if cost > Fraction(len(S), instance.n) * instance.budget:
                continue
            if all(
                naive_value(instance.utilities[i], T)
                >= gamma * (naive_value(instance.utilities[i], W) + 1)
                for i in S
            ):
                return False, (S, T)
    return True, None


def oracle_endowment_core(instance, W, theta):
    # strict gains only: equality-only deviations are degenerate, not blocking
    W = frozenset(W)
    theta = Fraction(theta)
    for S in _all_subsets(range(instance.n)):
        if not S:
            continue
        for T in _all_subsets(instance.candidates):
            if not T:
                continue
            cost = sum((instance.sizes[c] for c in T), Fraction(0))
            if cost > Fraction(1, 1) / theta * Fraction(len(S), instance.n) * instance.budget:
                continue
            if all(
                naive_value(instance.utilities[i], T)
                > naive_value(instance.utilities[i], W)
                for i in S
            ):
                return False, (S, T)
    return True, None


def oracle_q_completable(P, hatW, q, universe):
    hatW = frozenset(hatW)
    for extra in _all_subsets(universe, q):
        if P.contains(hatW | extra):
            return True
    return False


def oracle_restrained_core(instance, W, gamma, mode="subset_of_W"):
    """Quantifier-order-explicit: exists S, for all hatW, exists W'."""
    W = frozenset(W)
    gamma = Fraction(gamma)
    P = instance.feasibility
    cands = set(instance.candidates)
    for S in _all_subsets(range(instance.n)):
        if not S:
            continue
        kprime = (len(S) * instance.k) // instance.n
        pool = W if mode == "subset_of_W" else cands
        hatw_list = [
            hatW
            for hatW in _all_subsets(pool, instance.k - kprime)
            if oracle_q_completable(P, hatW, kprime, cands)
        ]
        if not hatw_list:
            continue
        all_covered = True
        for hatW in hatw_list:
            exists = False
            for wprime in _all_subsets(cands, kprime):
                T = hatW | wprime
                if not P.contains(T):
                    continue
                if all(
                    naive_value(instance.utilities[i], T)
                    >= gamma * (naive_value(instance.utilities[i], W) + 1)
                    for i in S
                ):
                    exists = True
                    break
            if not exists:
                all_covered = False
                break
        if all_covered:
            return False, S
    return True, None


def oracle_restrained_ejr(instance, W, mode="subset_of_W"):
    W = frozenset(W)
    P = instance.feasibility
    cands = set(instance.candidates)
    for S in _all_subsets(range(instance.n)):
        if not S:
            continue
        A_S = frozenset.intersection(*(instance.utilities[i].approved for i in S))
        threshold = max(naive_value(instance.utilities[i], W) for i in S) + 1
        kprime = (len(S) * instance.k) // instance.n
        pool = W if mode == "subset_of_W" else cands
        hatw_list = [
            hatW
            for hatW in _all_subsets(pool, instance.k - kprime)
            if oracle_q_completable(P, hatW, kprime, cands)
        ]
        if not hatw_list:
            continue
        all_covered = True
        for hatW in hatw_list:
            exists = False
            for wprime in _all_subsets(cands, kprime):
                T = hatW | wprime
                if not P.contains(T):
                    continue
                if Fraction(len(A_S & T)) >= threshold:
                    exists = True
                    break
            if not exists:
                all_covered = False
                break
        if all_covered:
            return False, S
    return True, None


def oracle_classic_ejr(instance, W):
    """Classic EJR via cohesive groups: for every ell and every ell-large
    ell-cohesive S, some member has utility >= ell."""
    W = frozenset(W)
    n, k = instance.n, instance.k
    for ell in range(1, k + 1):
        for S in _all_subsets(range(n)):
            if not S or len(S) * k < ell * n:
                continue
            common = frozenset.intersection(
                *(instance.utilities[i].approved for i in S)
            )
            if len(common) < ell:
                continue
            if all(naive_value(instance.utilities[i], W) < ell for i in S):
                return False, (ell, S)
    return True, None


def oracle_axioms(u, universe):
    """Monotonicity and the unit-Lipschitz bound over every (T, j), one
    evaluation per neighbour; subsets by size then lexicographically, j
    ascending, stopping after the first T at which both have failed.

    Returns (monotone witness, Lipschitz witness, subsets checked), each
    witness a (subset, candidate) pair or None.
    """
    universe = sorted(set(universe))
    mono_w = lip_w = None
    checked = 0
    for T in _all_subsets(universe):
        vT = naive_value(u, T)
        checked += 1
        for j in universe:
            if j in T:
                if vT - naive_value(u, T - {j}) > 1:
                    lip_w = lip_w or (T, j)
            elif vT > naive_value(u, T | {j}):
                mono_w = mono_w or (T | {j}, j)
        if mono_w and lip_w:
            break
    return mono_w, lip_w, checked


def oracle_self_bounding_constant(u, universe):
    """max over T with u(T) > 0 of sum_j (u(T) - u(T - {j})) / u(T); 0 when u vanishes."""
    best = Fraction(0)
    for T in _all_subsets(universe):
        vT = naive_value(u, T)
        if not vT > 0:
            continue
        total = Fraction(0)
        for j in T:
            total = total + (vT - naive_value(u, T - {j}))
        ratio = total / vT
        if ratio > best:
            best = ratio
    return best


def oracle_lower_tail_hits(u, T, alpha, delta, trials, seed):
    """Trials whose sample O has u(O) <= (1 - delta) E[u(O)], drawing each
    O from the Philox stream of ``rng_from_seed(seed)``, one
    ``integers(0, q, size=|T|) < p`` call per trial for alpha = p/q."""
    from corelect.instances import rng_from_seed

    T = sorted(T)
    alpha, delta = Fraction(alpha), Fraction(delta)
    threshold = (1 - delta) * oracle_sample_expectation(u, T, alpha)
    rng = rng_from_seed(seed)
    hits = 0
    for _ in range(trials):
        keep = rng.integers(0, alpha.denominator, size=len(T)) < alpha.numerator
        O = frozenset(c for c, k in zip(T, keep) if k)
        if naive_value(u, O) <= threshold:
            hits += 1
    return hits


def oracle_sample_expectation(u, T, alpha):
    """Expected utility of an alpha-sample of T, by full enumeration."""
    T = sorted(T)
    alpha = Fraction(alpha)
    total = Fraction(0)
    for O in _all_subsets(T):
        p = alpha ** len(O) * (1 - alpha) ** (len(T) - len(O))
        total += p * naive_value(u, O)
    return total


def _k4_edges():
    """Voter-index pairs of the 16/15 construction's parties: the edges of K4."""
    from corelect.instances import LB1_PARTIES, LB1_VOTERS

    return tuple(tuple(LB1_VOTERS.index(ch) for ch in party) for party in LB1_PARTIES)


K4_EDGES = _k4_edges()


def oracle_cover_feasible(needs, caps, budget):
    """Can K4 edge units (x_e <= caps[e], sum x <= budget) give each voter
    v at least needs[v]?  Depth-first allocation: serve the voter with the
    largest outstanding demand with exactly that demand across its three
    edges, in every split, and recurse."""
    needs = tuple(max(0, v) for v in needs)
    total = sum(needs)
    if total == 0:
        return True
    if budget <= 0 or total > 2 * budget or max(needs) > budget:
        return False
    v = max(range(4), key=lambda i: needs[i])
    e1, e2, e3 = (e for e, ends in enumerate(K4_EDGES) if v in ends)
    demand = needs[v]
    for x1 in range(min(demand, caps[e1]), -1, -1):
        for x2 in range(min(demand - x1, caps[e2]), -1, -1):
            x3 = demand - x1 - x2
            if x3 > caps[e3]:
                continue
            new_needs = list(needs)
            new_caps = list(caps)
            for e, x in ((e1, x1), (e2, x2), (e3, x3)):
                for end in K4_EDGES[e]:
                    new_needs[end] -= x
                new_caps[e] -= x
            if oracle_cover_feasible(new_needs, tuple(new_caps), budget - demand):
                return True
    return False


def oracle_min_cover(needs, caps):
    """Least sum x over every K4 edge allocation x <= caps that gives each
    voter its need; None when no allocation does."""
    needs = [max(0, v) for v in needs]
    ranges = [range(min(c, max(needs[a], needs[b])) + 1) for c, (a, b) in zip(caps, K4_EDGES)]
    best = None
    for x in itertools.product(*ranges):
        got = [0] * 4
        for xe, (a, b) in zip(x, K4_EDGES):
            got[a] += xe
            got[b] += xe
        if all(g >= n for g, n in zip(got, needs)) and (best is None or sum(x) < best):
            best = sum(x)
    return best


def _lb1_utilities(h):
    """Each voter's utility from party counts h: the sum over its three edges."""
    return tuple(sum(h[e] for e, ends in enumerate(K4_EDGES) if v in ends) for v in range(4))


def oracle_hat_iter(counts, hat_limit, pool):
    """The lb1 planner replies under ``counts`` as one list: every h <= counts
    using at most ``hat_limit`` seats, in lexicographic order, then sorted
    stably by seats used, largest first.  Each entry is (h, caps left in a
    pool of ``pool``, seats used, voter utilities)."""
    replies = [
        h for h in itertools.product(*(range(c + 1) for c in counts)) if sum(h) <= hat_limit
    ]
    replies.sort(key=lambda h: -sum(h))
    return [(h, tuple(pool - c for c in h), sum(h), _lb1_utilities(h)) for h in replies]


def oracle_blocking_coalition(counts, pool, cap, k, gamma):
    """The first coalition (largest first, then lexicographic) that reaches
    its targets ceil(gamma (u + 1)) after every planner reply of
    ``oracle_hat_iter``, or None when the lb1 class passes.  A reply is
    answered by the library's ``_cover_feasible``, which the cover tests
    check against ``oracle_cover_feasible``."""
    from corelect.lb_search import _cover_feasible

    needs = [math.ceil(Fraction(gamma) * (u + 1)) for u in _lb1_utilities(counts)]
    for size in (4, 3, 2, 1):
        kprime = size * k // 4
        replies = oracle_hat_iter(counts, k - kprime, pool)
        for S in itertools.combinations(range(4), size):
            for _, caps, used, util in replies:
                residual = [needs[v] - util[v] if v in S else 0 for v in range(4)]
                if not _cover_feasible(residual, caps, min(kprime, cap - used)):
                    break
            else:
                return S
    return None
