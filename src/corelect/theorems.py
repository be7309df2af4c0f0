"""Property suites that check each headline guarantee at desk scale.

Every suite draws seeded random instances satisfying the relevant
premises, runs the rule, and checks the stability claim with exact
arithmetic (interval certificates where ln/e appear).  The suites are
shared by the test suite and the command-line runner.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .constraints import is_feasible
from .errors import InfeasibleInstanceError
from .exactnum import Quad
from .instances import (
    ENDOW2_ETA,
    ENDOW2_KAPPA,
    LB00_PARTIES,
    LB00_ROLES,
    LB00_TRIADS,
    LB1_GAMMA,
    LB1_PAIR_FLOOR,
    LB1_PARTIES,
    LB1_SINGLE_FLOOR,
    LB1_SPOILER_BUDGET,
    LB1_SPOILER_CEIL,
    LB1_THIRD_CEIL,
    LB1_TOTAL_CEIL,
    gen_lb00,
    gen_lb_16_15,
    gen_tight_2alpha,
    lb1_deviation,
    lb1_deviation_holds,
    lb1_pair_deviation,
    lb1_undersupplied_voter_deviation,
    endow2_bound,
    random_instance,
    random_utility,
    rng_from_seed,
)
from .intervals import certified_log_gt, certified_log_le, exp_upper
from .lb_search import _compositions
from .model import (
    AdditiveUtility,
    Instance,
    check_axioms,
    floored_endowment,
    gain_threshold,
    self_bounding_constant,
)
from .sampling import mc_lower_tail, verify_sampling_bound
from .scoring import delta_star, marginal_add, marginal_remove
from .solvers import SolverConfig, solve_global, solve_local
from .verifiers import blocks_core, check_core, check_restrained_core, check_restrained_ejr


@dataclass
class SuiteResult:
    name: str
    total: int = 0
    failures: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, ok: bool, detail: str):
        self.total += 1
        if not ok:
            self.failures.append(detail)

    def to_json(self):
        return {
            "suite": self.name,
            "cases": self.total,
            "failures": list(self.failures),
            "notes": list(self.notes),
            "verdict": "pass" if self.passed else "fail",
        }


def _require_cases(count: int) -> None:
    """Refuse a seeded suite of no cases: it would pass having checked nothing."""
    if count < 1:
        raise ValueError(f"a suite needs at least one case, got {count}")


def _valid_random_instance(seed):
    """Resample forward from seed until the feasibility family is nonempty."""
    attempt = seed
    while True:
        inst = random_instance(attempt)
        try:
            return inst, solve_global(inst, "snw"), attempt
        except InfeasibleInstanceError:
            attempt += 100_003  # jump to an unrelated seed stream


def run_main1(count: int = 200, seed0: int = 1000) -> SuiteResult:
    """Global snw optimum lies in the e-approximate restrained core
    (1-self-bounding utilities, arbitrary constraints)."""
    _require_cases(count)
    result = SuiteResult("main1")
    e_upper = exp_upper(1)  # sound for pass-direction core checks
    for case in range(count):
        inst, solved, seed = _valid_random_instance(seed0 + case)
        report = check_restrained_core(inst, solved.committee.members, e_upper)
        result.record(report.verdict, f"seed {seed}: blocked, witness={report.witness}")
    return result


def run_matroid(count: int = 100, seed0: int = 2000, starts: int = 5) -> SuiteResult:
    """Local snw on a matroid with submodular (coverage) utilities is a
    2-approximate restrained core, from every seeded start."""
    _require_cases(count)
    result = SuiteResult("matroid")
    for case in range(count):
        inst = random_instance(
            seed0 + case,
            utility_kinds=("coverage",),
            constraint_kinds=("partition",),
        )
        for j in range(starts):
            solved = solve_local(inst, "snw", SolverConfig(seed=seed0 + case + 17 * j))
            report = check_restrained_core(inst, solved.committee.members, Fraction(2))
            result.record(
                report.verdict,
                f"seed {seed0 + case} start {j}: blocked, witness={report.witness}",
            )
    return result


def run_ejr(count: int = 100, seed0: int = 3000) -> SuiteResult:
    """Local pav on approval + matroid satisfies restrained EJR."""
    _require_cases(count)
    result = SuiteResult("ejr")
    for case in range(count):
        inst = random_instance(
            seed0 + case,
            utility_kinds=("approval",),
            constraint_kinds=("partition",),
        )
        solved = solve_local(inst, "pav")
        report = check_restrained_ejr(inst, solved.committee.members)
        result.record(report.verdict, f"seed {seed0 + case}: blocked, witness={report.witness}")
    return result


def run_tight_upper(
    count: int = 100, seed0: int = 4000, alphas=(Fraction(1, 4), Fraction(1, 2), Fraction(1))
) -> SuiteResult:
    """Local gpav on additive unconstrained instances: coalitions of size
    at least alpha*n cannot block at 2 - alpha."""
    _require_cases(count)
    result = SuiteResult("tight-upper")
    for case in range(count):
        inst = random_instance(
            seed0 + case,
            utility_kinds=("additive",),
            constraint_kinds=("none",),
        )
        solved = solve_local(inst, "gpav")
        for alpha in alphas:
            gamma = 2 - alpha
            report = check_core(
                inst,
                solved.committee.members,
                gamma,
                min_coalition=alpha * inst.n,
            )
            result.record(
                report.verdict,
                f"seed {seed0 + case} alpha={alpha}: blocked, witness={report.witness}",
            )
    return result


def tight_lower_instance(alpha=Fraction(1, 2), eps=Fraction(1, 2)):
    """The committee C1 + C3 and the explicit large-coalition deviation."""
    inst = gen_tight_2alpha(alpha, eps)
    meta = inst.meta
    W = meta["local_optimum"]
    budget = math.floor(alpha * inst.k)
    per_voter = (budget - meta["y"]) // len(meta["V1"])
    T = set(meta["C1"])
    for block in meta["C2_blocks"]:
        T |= set(sorted(block)[:per_voter])
    return inst, W, frozenset(meta["V1"]), frozenset(T)


def run_tight_lower() -> SuiteResult:
    """The 2 - alpha factor is tight: at alpha = eps = 1/2 the committee
    C1 + C3 is a gpav local optimum and coalition V1 blocks it at
    gamma = 2 - alpha - eps."""
    result = SuiteResult("tight-lower")
    inst, W, V1, T = tight_lower_instance()
    alpha, eps = inst.meta["alpha"], inst.meta["eps"]
    solved = solve_local(inst, "gpav", SolverConfig(start=W))
    result.record(
        solved.committee.members == W and solved.iterations == 0,
        "C1+C3 is not a gpav local optimum",
    )
    gamma = 2 - alpha - eps
    result.record(
        blocks_core(inst, W, gamma, V1, T, min_coalition=alpha * inst.n),
        f"V1 does not block at gamma={gamma}",
    )
    min_util = min(inst.utility(i, T) for i in V1)
    result.record(
        min_util >= gamma * (inst.meta["y"] + 1),
        "deviation utility falls short of the (2-alpha-eps)(y+1) target",
    )
    return result


# ---------------------------------------------------------------------------
# 16/15 lower-bound machinery
# ---------------------------------------------------------------------------


def _lb1_case_samplers(r: Fraction):
    """Targeted rational samplers for the four deviation cases.

    All quantities are sampled as integers in units of r/16, inside
    ``lb1_deviation``'s region: the utility floors and ceilings, and a
    spoiler total within 1.2r for cases 1 and 2 and in (1.2r, 1.6r] for
    cases 3a and 3b.
    """
    unit = r / 16
    lo_a, lo_b = (math.ceil(16 * f) for f in (LB1_SINGLE_FLOOR, LB1_PAIR_FLOOR))
    hi_c, hi_sum, hi_t1, hi_t3 = (
        math.floor(16 * f)
        for f in (LB1_THIRD_CEIL, LB1_TOTAL_CEIL, LB1_SPOILER_BUDGET, LB1_SPOILER_CEIL)
    )

    def sample_u(rng, case):
        for _ in range(1000):
            if case in ("1", "3a"):
                a = int(rng.integers(lo_a, 45))
                b = int(rng.integers(max(lo_b, a), 61))
                top_c = min(hi_c, a + b)
                if top_c < b:
                    continue
                c = int(rng.integers(b, top_c + 1))
            else:
                a = int(rng.integers(lo_a, 24))
                b = int(rng.integers(lo_b, 48))
                lo_c = a + b + 1
                if lo_c > hi_c:
                    continue
                c = int(rng.integers(lo_c, hi_c + 1))
            rem = hi_sum - a - b - c
            if rem < c:
                continue
            d = int(rng.integers(c, rem + 1))
            return tuple(unit * v for v in (a, b, c, d))
        raise RuntimeError("sampler failed to hit the region")

    def sample_t(rng, case):
        while True:
            t = tuple(int(rng.integers(0, 10)) for _ in range(3))
            total = sum(t)
            if case in ("1", "2") and total <= hi_t1:
                return tuple(unit * v for v in t)
            if case in ("3a", "3b") and hi_t1 < total <= hi_t3:
                return tuple(unit * v for v in t)

    return sample_u, sample_t


def run_lb1_points(per_case: int = 250, r: int = 40, seed0: int = 5000) -> SuiteResult:
    """The deviation constructor satisfies all five constraints exactly on
    rational points covering every proof case."""
    _require_cases(per_case)
    result = SuiteResult("lb1-points")
    rF = Fraction(r)
    sample_u, sample_t = _lb1_case_samplers(rF)
    for offset, case in enumerate(("1", "2", "3a", "3b")):
        rng = rng_from_seed(seed0 + offset)
        produced = 0
        attempts = 0
        while produced < per_case:
            attempts += 1
            if attempts > 100 * per_case:
                result.record(False, f"case {case}: sampler starved")
                break
            u = sample_u(rng, case)
            t = sample_t(rng, case)
            dev = lb1_deviation(u, t, r)
            if dev.case != case:
                continue
            produced += 1
            ok = lb1_deviation_holds(dev, u, t, rF)
            result.record(ok, f"case {case} point {u} {t}: constraints violated")
    return result


def run_lb1_lemma_deviations(r: int = 40, trials: int = 50, seed0: int = 5500) -> SuiteResult:
    """Both explicit deviations behind the utility floor: a committee
    undersupplying its weakest voter (below 9r/8) or its second voter
    (below 21r/8) is beaten by the constructed deviation with the full
    16/15 multiplicative margin."""
    _require_cases(trials)
    result = SuiteResult("lb1-lemma-deviations")
    inst = gen_lb_16_15(r)
    meta = inst.meta
    rng = rng_from_seed(seed0)
    cap = meta["cap"]
    kp_single, kp_pair = (floored_endowment(size, inst.k, inst.n) for size in (1, 2))
    # the cap's room left for W' once hatW burns its k - k' seats
    room_single, room_pair = (cap - (inst.k - kp) for kp in (kp_single, kp_pair))
    produced_single = produced_pair = 0
    while produced_single < trials or produced_pair < trials:
        counts = {p: int(rng.integers(0, cap + 1)) for p in LB1_PARTIES}
        while sum(counts.values()) > cap:
            p = LB1_PARTIES[int(rng.integers(0, 6))]
            counts[p] = max(0, counts[p] - int(rng.integers(1, r)))
        W = set()
        for p, c in counts.items():
            W |= set(sorted(meta["parties"][p])[:c])
        fill = inst.k - len(W)
        W |= set(sorted(meta["dummies"])[:fill])
        W = frozenset(W)
        if not is_feasible(inst.feasibility, W):
            continue
        values = sorted(inst.utility(i, W) for i in range(4))
        if values[0] < LB1_SINGLE_FLOOR * r and produced_single < trials:
            produced_single += 1
            dev = lb1_undersupplied_voter_deviation(inst, W)
            ok = (
                is_feasible(inst.feasibility, dev["T"])
                and len(dev["hatW"]) <= inst.k - kp_single
                and len(dev["Wprime"]) <= kp_single
                and dev["new_utility"] >= room_single
                and room_single >= LB1_GAMMA * LB1_SINGLE_FLOOR * r
                and dev["new_utility"] >= LB1_GAMMA * dev["old_utility"]
            )
            result.record(ok, f"single-voter deviation fails for counts {counts}")
        elif values[1] < LB1_PAIR_FLOOR * r and produced_pair < trials:
            produced_pair += 1
            dev = lb1_pair_deviation(inst, W)
            ok = (
                is_feasible(inst.feasibility, dev["T"])
                and len(dev["hatW"]) <= inst.k - kp_pair
                and len(dev["Wprime"]) <= kp_pair
                and min(dev["new"]) >= room_pair
                and room_pair >= LB1_GAMMA * LB1_PAIR_FLOOR * r
                and all(nv >= LB1_GAMMA * ov for nv, ov in zip(dev["new"], dev["old"]))
            )
            result.record(ok, f"pair deviation fails for counts {counts}")
    return result


def lb00_two_voter_deviation(instance, counts):
    """The pair deviation: find a triad pair with both fractions <= 3/4,
    send the two voters sharing its second party to that party's full slate."""
    meta = instance.meta
    r = meta["r"]
    count_of = dict(zip(LB00_PARTIES, counts))
    for triad in LB00_TRIADS:
        for idx in range(3):
            p, q = triad[idx], triad[(idx + 1) % 3]
            if 4 * count_of[p] <= 3 * r and 4 * count_of[q] <= 3 * r:
                third = triad[(idx + 2) % 3]
                voters = (LB00_ROLES.index((p, q)), LB00_ROLES.index((q, third)))
                Wprime = frozenset(meta["parties"][q])
                return voters, Wprime
    return None


def _note_value(x) -> str:
    """An exact value as a note prints it: a rational as itself, a Quad
    as "a + b*sqrt(d)" (a left out when 0) with its decimal value beside
    it.  JSON output escapes non-ASCII, so the notation stays ASCII."""
    if not isinstance(x, Quad):
        return str(x)
    if not x.a:
        exact = f"{x.b}*sqrt({x.d})"
    else:
        exact = f"{x.a} {'+' if x.b > 0 else '-'} {abs(x.b)}*sqrt({x.d})"
    return f"{exact} (~{float(x):.6g})"


def run_lb00(beta: int = 6, rs=(2, 3), seed0: int = 6000) -> SuiteResult:
    """Exponential lower bound: axioms hold, the exponent is at most beta,
    and every committee of size 3r admits the two-voter deviation with
    an exact utility ratio of at least (1/2)(4/3)^(beta/2)."""
    result = SuiteResult("lb00")
    for r in rs:
        inst = gen_lb00(beta, r)
        u0 = inst.utilities[0]
        # 1/(2z) = (1/2)(4/3)^(beta/2), in the utilities' own field: rational
        # for even beta, a Quad over (3/4)^beta otherwise
        ratio_bound = 1 / (2 * u0.z)
        rep = check_axioms(u0, inst.candidates)
        result.record(
            rep.ok and rep.exhaustive,
            f"r={r}: axioms fail ({rep.monotone_witness or rep.lipschitz_witness})",
        )
        bstar = self_bounding_constant(u0, inst.candidates)
        result.record(bstar <= beta, f"r={r}: self-bounding constant {bstar} > {beta}")
        worst_gamma = None
        for counts in _compositions((r,) * len(LB00_PARTIES), 3 * r):
            W = set()
            for p, c in zip(LB00_PARTIES, counts):
                W |= set(sorted(inst.meta["parties"][p])[:c])
            W = frozenset(W)
            dev = lb00_two_voter_deviation(inst, counts)
            if dev is None:
                result.record(False, f"r={r} counts={counts}: no qualifying pair")
                continue
            voters, Wprime = dev
            ratios = []
            slacked = []
            for i in voters:
                old = inst.utility(i, W)
                new = inst.utility(i, Wprime)
                ratios.append(None if old == 0 else new / old)
                slacked.append(new / (old + 1))
            finite = [x for x in ratios if x is not None]
            ok = all(x >= ratio_bound for x in finite)
            result.record(
                ok, f"r={r} counts={counts}: ratio(s) {finite} below {ratio_bound}"
            )
            g = min(slacked)
            worst_gamma = g if worst_gamma is None else min(worst_gamma, g)
        result.notes.append(
            f"r={r}: every size-3r committee blocked at gamma <= {_note_value(worst_gamma)} "
            f"(+1 slack included); ratio bound without slack {_note_value(ratio_bound)}"
        )
        if worst_gamma is not None and worst_gamma < 1:
            result.notes.append(
                f"r={r}: slack-adjusted factor below 1, so the core emptiness claim "
                "is vacuous at this scale and only the ratio bound is asserted"
            )
    return result


# ---------------------------------------------------------------------------
# lemma suites
# ---------------------------------------------------------------------------


def _random_small(seedstream, kinds=("approval", "additive", "coverage", "xos")):
    rng = rng_from_seed(seedstream)
    m = int(rng.integers(3, 8))
    candidates = list(range(m))
    kind = kinds[int(rng.integers(0, len(kinds)))]
    u = random_utility(kind, candidates, rng)
    return u, candidates, rng


def _accepted_cases(draw, count: int, seed0: int):
    """(seed, case) for the first ``count`` seeds from seed0 upward whose
    draw is accepted; ``draw(seed)`` returns the case, or None to reject."""
    drawn = ((seed, draw(seed)) for seed in itertools.count(seed0))
    return itertools.islice(((seed, case) for seed, case in drawn if case is not None), count)


def run_lemma_smoothed_log(count: int = 500, seed0: int = 7000) -> SuiteResult:
    """ln(1+u(W)) - ln(1+u(W-j)) <= (u(W) - u(W-j)) / u(W) when u(W) > 0."""
    result = SuiteResult("lemma-smoothed-log")

    def draw(seed):
        u, candidates, rng = _random_small(seed)
        size = int(rng.integers(1, len(candidates) + 1))
        W = frozenset(int(c) for c in rng.permutation(len(candidates))[:size])
        a = u.value(W)
        if not a > 0:
            return None
        j = sorted(W)[int(rng.integers(0, len(W)))]
        return W, j, a, u.value(W - {j})

    for seed, (W, j, a, b) in _accepted_cases(draw, count, seed0):
        if a == b:
            continue  # both sides zero: counted in the total, not recorded
        ratio = (1 + a) / (1 + b)
        ok = certified_log_le(ratio, (a - b) / a)
        result.record(ok, f"seed {seed}: W={sorted(W)}, j={j}")
    result.total = count
    return result


def run_lemma_nabla(count: int = 500, seed0: int = 7100) -> SuiteResult:
    """For additive weights <= 1, per-voter removal marginals of the
    interpolated rule sum to at most 1 over the committee."""
    result = SuiteResult("lemma-nabla")
    for case in range(count):
        u, candidates, rng = _random_small(seed0 + case, kinds=("additive",))
        inst = Instance(candidates, [u], k=len(candidates), validate="trust")
        size = int(rng.integers(1, len(candidates) + 1))
        W = frozenset(int(c) for c in rng.permutation(len(candidates))[:size])
        total = Fraction(0)
        for c in sorted(W):
            total += marginal_remove("gpav", inst, W, c).per_voter[0]
        result.record(total <= 1, f"seed {seed0 + case}: sum {total} > 1")
    return result


def run_lemma_2abc(count: int = 500, seed0: int = 7200) -> SuiteResult:
    """u_i(c)/(u_i(W)+1) never exceeds the gpav add marginal (c outside W)
    nor the gpav removal marginal (c inside W)."""
    result = SuiteResult("lemma-2abc")
    for case in range(count):
        u, candidates, rng = _random_small(seed0 + case, kinds=("additive",))
        inst = Instance(candidates, [u], k=len(candidates), validate="trust")
        size = int(rng.integers(1, len(candidates)))
        W = frozenset(int(c) for c in rng.permutation(len(candidates))[:size])
        ok = True
        for c in candidates:
            star = delta_star(inst, W, c, [0])
            if c in W:
                ok = ok and star <= marginal_remove("gpav", inst, W, c).per_voter[0]
            else:
                ok = ok and star <= marginal_add("gpav", inst, W, c).per_voter[0]
        result.record(ok, f"seed {seed0 + case}: W={sorted(W)}")
    return result


def run_lemma_mat_nabla(count: int = 500, seed0: int = 7300) -> SuiteResult:
    """Average snw removal marginal over a size-k committee is at most n/k,
    i.e. the product of removal factors is at most e^n."""
    result = SuiteResult("lemma-mat-nabla")
    for case in range(count):
        rng = rng_from_seed(seed0 + case)
        n = int(rng.integers(1, 5))
        m = int(rng.integers(3, 8))
        candidates = list(range(m))
        kind = ("approval", "additive", "coverage", "xos")[int(rng.integers(0, 4))]
        utilities = [random_utility(kind, candidates, rng) for _ in range(n)]
        inst = Instance(candidates, utilities, k=m, validate="trust")
        k = int(rng.integers(1, m + 1))
        W = frozenset(int(c) for c in rng.permutation(m)[:k])
        product = Fraction(1)
        for c in sorted(W):
            product *= marginal_remove("snw", inst, W, c).total
        ok = certified_log_le(product, n)
        result.record(ok, f"seed {seed0 + case}: product {float(product):.4f} vs e^{n}")
    return result


def run_lemma_mat_delta(count: int = 500, seed0: int = 7400) -> SuiteResult:
    """When a disjoint T more than doubles every coalition member's
    utility-plus-one, the average snw add marginal over T exceeds |S|/|T|."""
    result = SuiteResult("lemma-mat-delta")

    def draw(seed):
        rng = rng_from_seed(seed)
        n = int(rng.integers(1, 5))
        m = int(rng.integers(6, 11))
        candidates = list(range(m))
        kind = ("additive", "coverage")[int(rng.integers(0, 2))]
        utilities = [random_utility(kind, candidates, rng) for _ in range(n)]
        inst = Instance(candidates, utilities, k=m, validate="trust")
        w_size = int(rng.integers(0, 3))
        perm = [int(c) for c in rng.permutation(m)]
        W = frozenset(perm[:w_size])
        t_size = int(rng.integers(max(1, m - w_size - 2), m - w_size + 1))
        T = frozenset(perm[w_size : w_size + t_size])
        tests = (gain_threshold(u, W, 2) for u in utilities)
        S = [i for i, (measure, bar) in enumerate(tests) if measure(T | W) >= bar]
        return (inst, W, T, S) if S else None

    for seed, (inst, W, T, S) in _accepted_cases(draw, count, seed0):
        product = Fraction(1)
        for c in sorted(T):
            product *= marginal_add("snw", inst, W, c).total
        ok = certified_log_gt(product, len(S))
        result.record(ok, f"seed {seed}: product vs e^{len(S)}")
    return result


def run_lemma_m2(count: int = 500, seed0: int = 7500) -> SuiteResult:
    """At a gpav local optimum, the out-of-committee mass of Delta* is
    bounded by (alpha-beta)/(1-beta) * (n - in-committee mass)."""
    result = SuiteResult("lemma-m2")

    def draw(seed):
        rng = rng_from_seed(seed)
        n = int(rng.integers(2, 6))
        m = int(rng.integers(4, 9))
        k = int(rng.integers(2, min(m, 5)))
        candidates = list(range(m))
        utilities = [random_utility("additive", candidates, rng) for _ in range(n)]
        inst = Instance(candidates, utilities, k=k, validate="trust")
        W = solve_local(inst, "gpav").committee.members
        s_size = int(rng.integers(1, n + 1))
        S = [int(i) for i in rng.permutation(n)[:s_size]]
        alpha = Fraction(s_size, n)
        t_cap = int(alpha * k)
        if t_cap < 1:
            return None
        t_size = int(rng.integers(1, t_cap + 1))
        T = frozenset(int(c) for c in rng.permutation(m)[:t_size])
        beta = Fraction(len(T & W), k)
        return (inst, W, S, T, alpha, beta) if beta < 1 else None

    for seed, (inst, W, S, T, alpha, beta) in _accepted_cases(draw, count, seed0):
        n = inst.n
        m1 = sum((delta_star(inst, W, c, S) for c in T & W), Fraction(0))
        m2 = sum((delta_star(inst, W, c, S) for c in T - W), Fraction(0))
        ok = m2 <= (alpha - beta) / (1 - beta) * (n - m1)
        result.record(ok, f"seed {seed}: M2*={m2} exceeds bound")
    return result


def run_lemmas(count: int = 500) -> SuiteResult:
    _require_cases(count)
    combined = SuiteResult("lemmas")
    for runner in (
        run_lemma_smoothed_log,
        run_lemma_nabla,
        run_lemma_2abc,
        run_lemma_mat_nabla,
        run_lemma_mat_delta,
        run_lemma_m2,
    ):
        sub = runner(count)
        combined.total += sub.total
        combined.failures.extend(f"{sub.name}: {f}" for f in sub.failures)
        combined.notes.append(f"{sub.name}: {sub.total} cases, {len(sub.failures)} failures")
    return combined


# ---------------------------------------------------------------------------
# sampling suites
# ---------------------------------------------------------------------------


def run_sampling_bound(per_kind: int = 500, seed0: int = 8000) -> SuiteResult:
    """E[u(O)] >= alpha^beta u(T) on random (utility, T, alpha) triples."""
    _require_cases(per_kind)
    result = SuiteResult("sampling-bound")
    for kind_idx, kind in enumerate(("approval", "additive", "coverage", "xos")):
        for case in range(per_kind):
            rng = rng_from_seed(seed0 + 10_000 * kind_idx + case)
            m = int(rng.integers(2, 9))
            candidates = list(range(m))
            u = random_utility(kind, candidates, rng)
            t_size = int(rng.integers(1, m + 1))
            T = [int(c) for c in rng.permutation(m)[:t_size]]
            alpha = Fraction(int(rng.integers(0, 9)), 8)
            ok = verify_sampling_bound(u, T, alpha, beta=1)
            result.record(ok, f"{kind} seed {seed0 + 10_000 * kind_idx + case}: bound fails")
    # the parametric family at beta = 5, restricted universe
    inst = gen_lb00(5, 2)
    u = inst.utilities[0]
    T = sorted(inst.candidates)[:12]
    ok = verify_sampling_bound(u, T, Fraction(1, 3), beta=5)
    result.record(ok, "lb00 beta=5 restricted bound fails")
    return result


def run_tail(trials: int = 100_000, seed: int = 8100) -> SuiteResult:
    """Monte-Carlo lower-tail frequency respects the Chernoff-style bound."""
    result = SuiteResult("tail")
    u = AdditiveUtility({c: Fraction(1) for c in range(14)})
    T = list(range(14))
    for delta in (Fraction(9, 10), Fraction(1, 2), Fraction(1, 4)):
        rep = mc_lower_tail(u, T, Fraction(1, 2), delta, trials, seed, beta=1)
        result.record(
            rep.verdict == "pass",
            f"delta={delta}: empirical {float(rep.empirical):.5f} vs "
            f"bound {rep.analytic_bound:.5f} + {rep.slack:.5f}",
        )
    rep0 = mc_lower_tail(u, T, Fraction(1, 2), Fraction(0), 1000, seed, beta=1)
    result.record(rep0.analytic_bound == 1.0 and rep0.verdict == "pass", "delta=0 must pass")
    rep1 = mc_lower_tail(u, T, Fraction(1, 2), Fraction(1, 2), 1, seed, beta=1)
    result.record(rep1.verdict == "inconclusive", "single trial must be inconclusive")
    return result


def run_endow2_bound() -> SuiteResult:
    """The reduction constant at kappa=1.454, eta=11.63 stays below
    11.7 * beta * 55^beta for beta up to 5."""
    result = SuiteResult("endow2-bound")
    kappa, eta = Fraction(ENDOW2_KAPPA), Fraction(ENDOW2_ETA)
    for beta in range(1, 6):
        interval = endow2_bound(beta, kappa, eta)
        cap = Fraction("11.7") * beta * Fraction(55) ** beta
        result.record(
            interval.hi <= cap and interval.feasible_q,
            f"beta={beta}: hi {float(interval.hi):.2f} exceeds {float(cap):.2f}",
        )
    return result


THEOREM_SUITES: dict = {
    "main1": run_main1,
    "matroid": run_matroid,
    "ejr": run_ejr,
    "tight-upper": run_tight_upper,
    "tight-lower": run_tight_lower,
    "lb1-points": run_lb1_points,
    "lb1-lemma-deviations": run_lb1_lemma_deviations,
    "lb00": run_lb00,
    "lemmas": run_lemmas,
    "sampling-bound": run_sampling_bound,
    "tail": run_tail,
    "endow2-bound": run_endow2_bound,
}
