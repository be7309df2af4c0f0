"""Generators for the benchmark constructions and seeded random fuzzers.

Each generator is deterministic given its parameters.  "Infinitely many"
dummy candidates in the source constructions are truncated to the
maximum number any committee could ever use, which preserves every
stability verdict.  Generated instances expose structural details
(party pools, voter groups) in ``instance.meta``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from mpmath import iv

from .constraints import (
    CardinalityFamily,
    CoveringFamily,
    ExplicitFamily,
    PackingFamily,
    PartitionMatroidFamily,
)
from .errors import OutOfRegionError, ParameterError
from .exactnum import parse_rational
from .intervals import PRECISIONS, endpoint_fraction, precision
from .model import (
    AdditiveUtility,
    ApprovalUtility,
    CoverageUtility,
    Instance,
    LB00Utility,
    XOSUtility,
    floored_endowment,
    rng_from_seed,
)


def _attach_meta(instance: Instance, meta: dict) -> Instance:
    instance.meta = meta
    return instance


# ---------------------------------------------------------------------------
# worked constructions
# ---------------------------------------------------------------------------


def gen_xos_example(k: int) -> Instance:
    """2k candidates in blocks A and B, k voters; voter i values a committee
    at max(|T * B|, |T * {a_i}|).  Committee A is a swap-local optimum that
    every voter would abandon for B."""
    if k < 2:
        raise ParameterError("k must be at least 2")
    A = list(range(k))
    B = list(range(k, 2 * k))
    utilities = [
        XOSUtility([{b: 1 for b in B}, {A[i]: 1}]) for i in range(k)
    ]
    inst = Instance(
        candidates=A + B,
        utilities=utilities,
        k=k,
        feasibility=CardinalityFamily(k),
        validate="trust",
    )
    return _attach_meta(inst, {"A": frozenset(A), "B": frozenset(B)})


def gen_rest1(q: int, voters_per_group: int = 1) -> Instance:
    """q voter groups, each approving its own block of q candidates, under a
    partition constraint allowing at most q picks from all blocks combined;
    k = q*q, with a dummy pool large enough to fill any committee."""
    if q < 2:
        raise ParameterError("q must be at least 2")
    if voters_per_group < 1:
        raise ParameterError("voters_per_group must be positive")
    k = q * q
    blocks = [list(range(j * q, (j + 1) * q)) for j in range(q)]
    special = [c for block in blocks for c in block]
    dummies = list(range(q * q, q * q + k))
    utilities = []
    for j in range(q):
        for _ in range(voters_per_group):
            utilities.append(ApprovalUtility(blocks[j]))
    family = PartitionMatroidFamily(groups=[special], caps=[q], k=k)
    inst = Instance(
        candidates=special + dummies,
        utilities=utilities,
        k=k,
        feasibility=family,
        validate="trust",
    )
    return _attach_meta(
        inst,
        {
            "blocks": [frozenset(b) for b in blocks],
            "dummies": frozenset(dummies),
            "q": q,
        },
    )


LB1_PARTIES = ("ab", "bc", "ca", "ad", "bd", "cd")
LB1_VOTERS = ("a", "b", "c", "d")
# the approximation factor the 16/15 construction refutes
LB1_GAMMA = Fraction(16, 15)
# times r: the utility floors of the weakest voter and of the second voter;
# a committee below either is beaten by an explicit deviation
LB1_SINGLE_FLOOR = Fraction(9, 8)
LB1_PAIR_FLOOR = Fraction(21, 8)
# times r: the cap on non-dummy candidates; the rest of lb1_deviation's
# region: u_c's and the total utility's ceilings, the spoiler total up to
# which t leaves the deviation as it is, and the spoiler total's ceiling
LB1_CAP = 6
LB1_THIRD_CEIL = Fraction(33, 8)
LB1_TOTAL_CEIL = 12
LB1_SPOILER_BUDGET = Fraction(6, 5)
LB1_SPOILER_CEIL = Fraction(8, 5)


def lb1_geometry(r: int, pool_size: Optional[int] = None) -> tuple:
    """(k, cap, pool) of the 16/15 instance at r: k = 6.4r seats, a cap of
    6r non-dummy candidates, and each party's pool (default 6r, so any
    single party can fill the cap).  Requires r % 5 == 0 so 6.4r is an
    integer."""
    if r < 5 or r % 5 != 0:
        raise ParameterError("r must be a positive multiple of 5")
    cap = LB1_CAP * r
    pool = cap if pool_size is None else int(pool_size)
    if pool < 1:
        raise ParameterError("pool_size must be positive")
    return 32 * r // 5, cap, pool


def gen_lb_16_15(r: int, pool_size: Optional[int] = None) -> Instance:
    """Four voters, six parties (one per voter pair), committee size 6.4r,
    and a single packing row capping non-dummy candidates at 6r; the pools
    are ``lb1_geometry``'s and the dummy party is truncated to k."""
    k, cap, pool = lb1_geometry(r, pool_size)
    party_ids = {}
    next_id = 0
    for party in LB1_PARTIES:
        party_ids[party] = list(range(next_id, next_id + pool))
        next_id += pool
    dummies = list(range(next_id, next_id + k))
    approves = {v: tuple(p for p in LB1_PARTIES if v in p) for v in LB1_VOTERS}
    utilities = [
        ApprovalUtility(
            [c for party in approves[v] for c in party_ids[party]]
        )
        for v in LB1_VOTERS
    ]
    special = [c for party in LB1_PARTIES for c in party_ids[party]]
    family = PackingFamily(rows=[(special, cap)], k=k)
    inst = Instance(
        candidates=special + dummies,
        utilities=utilities,
        k=k,
        feasibility=family,
        validate="trust",
    )
    return _attach_meta(
        inst,
        {
            "r": r,
            "cap": cap,
            "pool": pool,
            "parties": {p: frozenset(ids) for p, ids in party_ids.items()},
            "dummies": frozenset(dummies),
            "approves": approves,
        },
    )


@dataclass(frozen=True)
class LB1Deviation:
    """Deviation counts for the three parties shared within {a, b, c}."""

    x_ab: Fraction
    x_ca: Fraction
    x_bc: Fraction
    case: str

    @property
    def x(self):
        return (self.x_ab, self.x_ca, self.x_bc)


def lb1_deviation(u: Sequence, t: Sequence, r: int) -> LB1Deviation:
    """Candidate counts (x_ab, x_ca, x_bc) restoring a 16/15 utility gain
    for the three lowest-utility voters, for any spoiler choice t.

    u = (u_a, u_b, u_c, u_d) must be sorted ascending and inside the
    region where a 16/15-stable committee would have to live:
    u_a >= 9r/8, u_b >= 21r/8, u_c <= 33r/8, sum(u) <= 12r.  The spoiler
    counts t = (t_a, t_b, t_c) satisfy t >= 0, sum(t) <= 1.6r.  The result
    exactly satisfies the five deviation constraints (committee cap, the
    three per-voter 16/15 bounds, non-negativity).
    """
    ua, ub, uc, ud = (parse_rational(v) for v in u)
    ta, tb, tc = (parse_rational(v) for v in t)
    r = Fraction(r)
    if not (ua <= ub <= uc <= ud):
        raise OutOfRegionError("utilities must be sorted ascending")
    if ua < LB1_SINGLE_FLOOR * r or ub < LB1_PAIR_FLOOR * r:
        raise OutOfRegionError("u_a >= 9r/8 and u_b >= 21r/8 required")
    if ua + ub + uc + ud > LB1_TOTAL_CEIL * r:
        raise OutOfRegionError("total utility exceeds 12r")
    if uc > LB1_THIRD_CEIL * r:
        raise OutOfRegionError("u_c <= 33r/8 required")
    if min(ta, tb, tc) < 0 or ta + tb + tc > LB1_SPOILER_CEIL * r:
        raise OutOfRegionError("t must be nonnegative with sum <= 1.6r")

    budget = LB1_SPOILER_BUDGET * r
    if ta + tb + tc <= budget:
        if ua + ub >= uc:
            case = "1"
            f = Fraction(8, 15)
            x_ab = f * (ua + ub - uc)
            x_ca = f * (ua + uc - ub)
            x_bc = f * (ub + uc - ua)
        else:
            case = "2"
            x_ab = Fraction(0)
            x_ca = LB1_GAMMA * ua
            x_bc = LB1_GAMMA * (uc - ua)
    else:
        # shrink t componentwise (c, then b, then a) down to total 1.2r
        excess = ta + tb + tc - budget
        t_red = [ta, tb, tc]
        for idx in (2, 1, 0):
            take = min(excess, t_red[idx])
            t_red[idx] -= take
            excess -= take
        hat = [LB1_GAMMA * v - tr for v, tr in zip((ua, ub, uc), t_red)]
        ha, hb, hc = hat
        if ha + hb >= hc:
            case = "3a"
            x_ab = (ha + hb - hc) / 2
            x_ca = (ha + hc - hb) / 2
            x_bc = (hb + hc - ha) / 2
        else:
            case = "3b"
            x_ab = Fraction(0)
            x_ca = ha
            x_bc = hc - ha
    dev = LB1Deviation(x_ab, x_ca, x_bc, case)
    # verified with the *actual* t
    assert lb1_deviation_holds(dev, (ua, ub, uc), (ta, tb, tc), r)
    return dev


def lb1_deviation_holds(dev: LB1Deviation, u: Sequence, t: Sequence, r) -> bool:
    """The five deviation constraints on the counts for u = (u_a, u_b, u_c)
    and spoilers t: the cap of 6r, the three voters' 16/15 gains, and
    non-negativity."""
    ta, tb, tc = t
    return (
        dev.x_ab + dev.x_bc + dev.x_ca + ta + tb + tc <= LB1_CAP * r
        and dev.x_ab + dev.x_ca + ta >= LB1_GAMMA * u[0]
        and dev.x_ab + dev.x_bc + tb >= LB1_GAMMA * u[1]
        and dev.x_ca + dev.x_bc + tc >= LB1_GAMMA * u[2]
        and min(dev.x) >= 0
    )


def _lb1_weakest_first(instance: Instance, W) -> tuple:
    """(each voter's utility of W, the voters from least utility up)."""
    W = frozenset(W)
    values = [instance.utility(i, W) for i in range(4)]
    return values, sorted(range(4), key=lambda i: (values[i], i))


def _lb1_burn_and_gain(instance: Instance, voters) -> tuple:
    """(hatW, W', hatW + W') for the deviating voters: with endowment
    k' = |S| k / 4, hatW burns k - k' seats on the parties no deviator
    approves, and W' takes the cap's remaining room from the first party
    every deviator approves."""
    meta = instance.meta
    names = {LB1_VOTERS[i] for i in voters}
    hat_size = instance.k - floored_endowment(len(voters), instance.k, instance.n)
    burnt = [c for p in LB1_PARTIES if not names & set(p) for c in sorted(meta["parties"][p])]
    hatW = frozenset(burnt[:hat_size])
    gain_party = next(p for p in LB1_PARTIES if names <= set(p))
    wprime = frozenset(sorted(meta["parties"][gain_party])[: meta["cap"] - hat_size])
    return hatW, wprime, hatW | wprime


def lb1_undersupplied_voter_deviation(instance: Instance, W) -> dict:
    """Explicit single-voter deviation when min_v u_v(W) < 9r/8.

    The complement fills hatW with 4.8r candidates from the three parties
    the voter does not approve; the packing cap still leaves room for
    1.2r candidates from one approved party, and 1.2r >= (16/15)*(9r/8)
    beats the voter's current utility by the full 16/15 factor.
    """
    values, order = _lb1_weakest_first(instance, W)
    voter_idx = order[0]
    if values[voter_idx] >= LB1_SINGLE_FLOOR * instance.meta["r"]:
        raise OutOfRegionError("no voter is below the 9r/8 threshold")
    hatW, wprime, T = _lb1_burn_and_gain(instance, (voter_idx,))
    return {
        "voter": voter_idx,
        "hatW": hatW,
        "Wprime": wprime,
        "T": T,
        "old_utility": values[voter_idx],
        "new_utility": instance.utility(voter_idx, T),
    }


def lb1_pair_deviation(instance: Instance, W) -> dict:
    """Explicit two-voter deviation when the second-lowest utility is
    below 21r/8: the complement burns 3.2r cap on the one party neither
    deviator approves, leaving 2.8r >= (16/15)(21r/8) for their shared
    party."""
    values, (lo, hi, *_) = _lb1_weakest_first(instance, W)
    hatW, wprime, T = _lb1_burn_and_gain(instance, (lo, hi))
    return {
        "voters": (lo, hi),
        "hatW": hatW,
        "Wprime": wprime,
        "T": T,
        "old": (values[lo], values[hi]),
        "new": (instance.utility(lo, T), instance.utility(hi, T)),
    }


# two triads of parties; each voter approves two consecutive parties of one
# triad, so the six roles run around both triangles
LB00_TRIADS = (("a", "b", "c"), ("d", "e", "f"))
LB00_PARTIES = tuple(p for triad in LB00_TRIADS for p in triad)
LB00_ROLES = tuple((t[i], t[(i + 1) % 3]) for t in LB00_TRIADS for i in range(3))


def gen_lb00(beta: int, r: int) -> Instance:
    """Six parties of r candidates, six voters with the two-party parametric
    utilities, committee size 3r, no constraints."""
    if not isinstance(beta, int) or beta < 5:
        raise ParameterError("beta must be an integer >= 5")
    if not isinstance(r, int) or r < 1:
        raise ParameterError("r must be a positive integer")
    party_of = {}
    parties = {}
    next_id = 0
    for p in LB00_PARTIES:
        ids = list(range(next_id, next_id + r))
        parties[p] = frozenset(ids)
        for c in ids:
            party_of[c] = p
        next_id += r
    utilities = [LB00Utility(beta, r, role, party_of) for role in LB00_ROLES]
    k = 3 * r
    inst = Instance(
        candidates=list(range(next_id)),
        utilities=utilities,
        k=k,
        feasibility=CardinalityFamily(k),
        validate="trust",
    )
    return _attach_meta(
        inst,
        {"beta": beta, "r": r, "parties": parties, "roles": LB00_ROLES},
    )


# the largest n or y gen_tight_2alpha builds
TIGHT_2ALPHA_CAP = 10_000


def gen_tight_2alpha(alpha, eps) -> Instance:
    """Approval instance whose committee C1 + C3 is a swap-local optimum of
    the interpolated rule yet large coalitions gain a 2-alpha factor.

    Picks the minimal integers n > 2(1-alpha)/(eps*alpha) and
    y > 2(2-alpha)/eps with alpha*n and alpha*y integral, and sets
    k = (1-alpha)*n*y + y.
    """
    alpha = parse_rational(alpha)
    eps = parse_rational(eps)
    if not (0 < alpha <= 1):
        raise ParameterError("alpha must be in (0, 1]")
    if eps <= 0:
        raise ParameterError("eps must be positive")

    def minimal_integer(strict_lower):
        # alpha*v is integral exactly when alpha's denominator divides v
        q = alpha.denominator
        v = q * (strict_lower // q + 1)
        if v > TIGHT_2ALPHA_CAP:
            raise ParameterError("no admissible integer below the search cap")
        return v

    n = minimal_integer(2 * (1 - alpha) / (eps * alpha))
    y = minimal_integer(2 * (2 - alpha) / eps)
    n1 = int(alpha * n)
    n2 = n - n1
    block2 = int(alpha * y)
    k = int((1 - alpha) * n * y + y)

    next_id = 0
    C1 = list(range(next_id, next_id + y))
    next_id += y
    c2_blocks = []
    for _ in range(n1):
        c2_blocks.append(list(range(next_id, next_id + block2)))
        next_id += block2
    c3_blocks = []
    for _ in range(n2):
        c3_blocks.append(list(range(next_id, next_id + y)))
        next_id += y
    utilities = [ApprovalUtility(C1 + c2_blocks[i]) for i in range(n1)]
    utilities += [ApprovalUtility(c3_blocks[j]) for j in range(n2)]
    inst = Instance(
        candidates=list(range(next_id)),
        utilities=utilities,
        k=k,
        feasibility=CardinalityFamily(k),
        validate="trust",
    )
    local_opt = frozenset(C1) | frozenset(c for b in c3_blocks for c in b)
    return _attach_meta(
        inst,
        {
            "alpha": alpha,
            "eps": eps,
            "n": n,
            "y": y,
            "C1": frozenset(C1),
            "C2_blocks": [frozenset(b) for b in c2_blocks],
            "C3_blocks": [frozenset(b) for b in c3_blocks],
            "V1": frozenset(range(n1)),
            "V2": frozenset(range(n1, n)),
            "local_optimum": local_opt,
        },
    )


@dataclass(frozen=True)
class BoundInterval:
    lo: Fraction
    hi: Fraction
    feasible_q: bool

    def __contains__(self, value):
        value = Fraction(value)
        return self.lo <= value <= self.hi


# the endowment reduction's parameters, kept as the decimal strings that
# manifests record
ENDOW2_KAPPA = "1.454"
ENDOW2_ETA = "11.63"


def endow2_bound(beta: int, kappa, eta) -> BoundInterval:
    """Certified interval for the endowment-to-utility reduction constant
    eta * beta * (32 kappa / (1 - A/(1 - B)))^beta, where
    A = exp(-(eta-2)^2 / (2(eta-1))) and B = exp(kappa-1) / kappa^kappa.

    Requires kappa > 1, eta > 2, integer beta >= 1; raises when the inner
    denominator is certifiably non-positive.  ``feasible_q`` reports
    whether a sampling fraction q with q > 32*kappa/gamma and q < 1
    exists, which is exactly the positivity of that denominator.
    """
    kappa = parse_rational(kappa)
    eta = parse_rational(eta)
    if not isinstance(beta, int) or beta < 1:
        raise ParameterError("beta must be an integer >= 1")
    if kappa <= 1:
        raise ParameterError("kappa must exceed 1")
    if eta <= 2:
        raise ParameterError("eta must exceed 2")
    for bits in PRECISIONS:
        with precision(bits):
            K = iv.mpf(kappa.numerator) / iv.mpf(kappa.denominator)
            H = iv.mpf(eta.numerator) / iv.mpf(eta.denominator)
            A = iv.exp(-((H - 2) ** 2) / (2 * (H - 1)))
            B = iv.exp(K - 1) / iv.exp(K * iv.log(K))
            one_minus_B = 1 - B
            if not one_minus_B.a > 0:
                if one_minus_B.b <= 0:
                    raise ParameterError("1 - e^(kappa-1)/kappa^kappa is non-positive")
                continue
            denom = 1 - A / one_minus_B
            if not denom.a > 0:
                if denom.b <= 0:
                    raise ParameterError("inner denominator is non-positive")
                continue
            lo_t, hi_t = (H * beta * iv.exp(beta * iv.log(32 * K / denom)))._mpi_
        return BoundInterval(
            lo=endpoint_fraction(lo_t), hi=endpoint_fraction(hi_t), feasible_q=True
        )
    raise ParameterError("could not certify the bound at maximum precision")


# ---------------------------------------------------------------------------
# seeded random fuzzers
# ---------------------------------------------------------------------------


def _random_fraction(rng, denominator_max=8, lo=0, hi=1) -> Fraction:
    d = int(rng.integers(1, denominator_max + 1))
    span = (hi - lo) * d
    return Fraction(lo) + Fraction(int(rng.integers(0, span + 1)), d)


def random_utility(kind: str, candidates: Sequence[int], rng) -> object:
    """One random voter utility of the given kind, weights in [0, 1]."""
    candidates = list(candidates)
    m = len(candidates)
    if kind == "approval":
        size = int(rng.integers(0, m + 1))
        picks = rng.permutation(m)[:size]
        return ApprovalUtility([candidates[i] for i in picks])
    if kind == "additive":
        return AdditiveUtility(
            {c: _random_fraction(rng) for c in candidates}
        )
    if kind == "coverage":
        n_elems = int(rng.integers(m, 2 * m + 1))
        weights = {e: Fraction(int(rng.integers(1, 5)), 16) for e in range(n_elems)}
        covers = {}
        for c in candidates:
            size = int(rng.integers(0, 5))
            picks = rng.permutation(n_elems)[:size]
            covers[c] = [int(e) for e in picks]
        return CoverageUtility(covers, weights)
    if kind == "xos":
        n_clauses = int(rng.integers(1, 4))
        clauses = []
        for _ in range(n_clauses):
            clauses.append({c: _random_fraction(rng) for c in candidates})
        return XOSUtility(clauses)
    raise ParameterError(f"no random generator for kind {kind!r}")


def _random_constraint(kind, candidates, k, rng):
    m = len(candidates)
    if kind == "none":
        return CardinalityFamily(k)
    if kind == "partition":
        # disjoint groups with caps, keeping the matroid rank at least k
        n_groups = int(rng.integers(1, max(2, m // 2) + 1))
        perm = [candidates[i] for i in rng.permutation(m)]
        groups, caps = [], []
        idx = 0
        for _ in range(n_groups):
            if idx >= m:
                break
            size = int(rng.integers(1, m - idx + 1))
            groups.append(perm[idx : idx + size])
            caps.append(int(rng.integers(1, size + 1)))
            idx += size
        free = m - idx
        while free + sum(min(c, len(g)) for g, c in zip(groups, caps)) < k:
            j = int(rng.integers(0, len(groups)))
            caps[j] = min(len(groups[j]), caps[j] + 1)
        return PartitionMatroidFamily(groups, caps, k)
    if kind in ("packing", "covering"):
        # one row: a cap in 1..|row|, or a floor in 0..min(|row|, k)
        size = int(rng.integers(1, m + 1))
        row = [candidates[i] for i in rng.permutation(m)[:size]]
        if kind == "packing":
            return PackingFamily([(row, int(rng.integers(1, size + 1)))], k)
        return CoveringFamily([(row, int(rng.integers(0, min(size, k) + 1)))], k)
    if kind == "explicit":
        count = int(rng.integers(1, 13))
        sets = []
        for _ in range(count):
            size = int(rng.integers(0, k + 1))
            sets.append([candidates[i] for i in rng.permutation(m)[:size]])
        return ExplicitFamily(sets, k)
    raise ParameterError(f"no random generator for constraint {kind!r}")


def random_instance(
    seed: int,
    n_max: int = 6,
    m_max: int = 8,
    k_max: int = 4,
    utility_kinds: Sequence[str] = ("approval", "additive", "xos"),
    constraint_kinds: Sequence[str] = ("none", "partition", "packing", "explicit"),
    budget_mode: bool = False,
) -> Instance:
    """Seeded random instance; identical seed gives an identical instance."""
    rng = rng_from_seed(seed)
    n = int(rng.integers(1, n_max + 1))
    m = int(rng.integers(2, m_max + 1))
    candidates = list(range(m))
    kind = utility_kinds[int(rng.integers(0, len(utility_kinds)))]
    utilities = [random_utility(kind, candidates, rng) for _ in range(n)]
    if budget_mode:
        sizes = {c: int(rng.integers(1, 4)) for c in candidates}
        budget = int(rng.integers(1, sum(sizes.values()) + 1))
        return Instance(
            candidates=candidates,
            utilities=utilities,
            sizes=sizes,
            budget=budget,
            validate="trust",
        )
    k = int(rng.integers(1, min(k_max, m) + 1))
    ckind = constraint_kinds[int(rng.integers(0, len(constraint_kinds)))]
    family = _random_constraint(ckind, candidates, k, rng)
    return Instance(
        candidates=candidates,
        utilities=utilities,
        k=k,
        feasibility=family,
        validate="trust",
    )
