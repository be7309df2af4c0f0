import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corelect.constraints import PartitionMatroidFamily
from corelect.errors import (
    InfeasibleInstanceError,
    MalformedUtilityError,
    RuleMismatchError,
)
from corelect.instances import (
    gen_lb00,
    gen_rest1,
    gen_xos_example,
    random_instance,
)
from corelect.model import (
    AdditiveUtility,
    ApprovalUtility,
    CoverageUtility,
    Instance,
    LB00Utility,
    TableUtility,
    XOSUtility,
)
from corelect.solvers import solve_global, solve_local
from corelect.verifiers import (
    blocks_core,
    blocks_endowment,
    blocks_pb_core,
    blocks_restrained_core,
    blocks_restrained_ejr,
    check_core,
    check_endowment_core,
    check_pb_core,
    check_restrained_core,
    check_restrained_ejr,
)

from oracles import (
    oracle_classic_ejr,
    oracle_core,
    oracle_endowment_core,
    oracle_pb_core,
    oracle_restrained_core,
    oracle_restrained_ejr,
)


# ---------------------------------------------------------------------------
# plain core
# ---------------------------------------------------------------------------


def test_core_xos_block_fails_at_half_k():
    k = 4
    inst = gen_xos_example(k)
    A, B = inst.meta["A"], inst.meta["B"]
    report = check_core(inst, A, Fraction(k, 2))
    assert not report.verdict
    assert report.witness["T"] == B
    assert report.witness["S"] == frozenset(range(k))


def test_core_single_voter_optimum_passes():
    u = AdditiveUtility({0: 1, 1: Fraction(3, 4), 2: Fraction(1, 2), 3: Fraction(1, 4)})
    inst = Instance([0, 1, 2, 3], [u], k=2, validate="trust")
    W = solve_global(inst, "snw").committee.members
    assert check_core(inst, W, 1).verdict


def test_core_matches_oracle_on_random_instances():
    for seed in range(60):
        inst = random_instance(seed, n_max=4, m_max=6, k_max=3, utility_kinds=("additive",))
        W = solve_global(inst, "snw").committee.members
        for gamma in (Fraction(1), Fraction(3, 2)):
            mine = check_core(inst, W, gamma)
            ref, witness = oracle_core(inst, W, gamma)
            assert mine.verdict == ref
            if not mine.verdict:
                S, T = mine.witness["S"], mine.witness["T"]
                assert blocks_core(inst, W, gamma, S, T)


def test_core_min_coalition_filter():
    # a deviation only a lone voter wants disappears once coalitions
    # must contain at least two voters
    inst = Instance(
        [0, 1],
        [ApprovalUtility([0]), ApprovalUtility([1])],
        k=2,
        validate="trust",
    )
    W = frozenset({1})  # fails for voter 0 alone at gamma = 1
    lone = check_core(inst, W, 1)
    assert not lone.verdict and lone.witness["S"] == frozenset({0})
    filtered = check_core(inst, W, 1, min_coalition=2)
    assert filtered.verdict


def test_core_rejects_budget_mode():
    inst = random_instance(5, budget_mode=True)
    with pytest.raises(InfeasibleInstanceError):
        check_core(inst, frozenset(), 1)


def test_core_gamma_monotone():
    for seed in range(20):
        inst = random_instance(seed + 900, n_max=4, m_max=6, k_max=3)
        try:
            W = solve_global(inst, "snw").committee.members
        except InfeasibleInstanceError:
            continue
        verdicts = [
            check_core(inst, W, g).verdict
            for g in (Fraction(1), Fraction(5, 4), Fraction(2), Fraction(4))
        ]
        for lo, hi in zip(verdicts, verdicts[1:]):
            assert not lo or hi  # pass at gamma implies pass at gamma' >= gamma


# ---------------------------------------------------------------------------
# restrained core
# ---------------------------------------------------------------------------


def test_restrained_equals_core_when_unconstrained():
    for seed in range(40):
        inst = random_instance(
            seed + 37, n_max=4, m_max=6, k_max=3, constraint_kinds=("none",)
        )
        W = solve_global(inst, "snw").committee.members
        for gamma in (Fraction(1), Fraction(2)):
            a = check_restrained_core(inst, W, gamma)
            b = check_core(inst, W, gamma)
            assert a.verdict == b.verdict
            assert "unconstrained-reduces-to-core" in a.flags


def test_restrained_spreading_committee_passes_rest1():
    inst = gen_rest1(2)
    W = solve_global(inst, "snw").committee.members
    report = check_restrained_core(inst, W, Fraction(101, 100))
    assert report.verdict


def test_restrained_lopsided_committee_also_passes_rest1():
    # two from block 1, none from block 2, dummies fill up: the blocked
    # group is shut out by any planner reply holding both specials
    inst = gen_rest1(2)
    block1 = sorted(inst.meta["blocks"][0])
    dummies = sorted(inst.meta["dummies"])
    W = frozenset(block1) | frozenset(dummies[:2])
    report = check_restrained_core(inst, W, Fraction(101, 100))
    assert report.verdict
    # yet the same committee fails the naive constrained core at factor q:
    # the shut-out block deviates inside the constraint on its own
    q = inst.meta["q"]
    group2 = inst.meta["blocks"][1]
    voters = frozenset(i for i in range(inst.n) if inst.utility(i, group2) > 0)
    assert blocks_core(inst, W, Fraction(q), voters, group2)
    from corelect.constraints import is_feasible

    assert is_feasible(inst.feasibility, group2)


def test_restrained_matches_quantifier_oracle_with_packing():
    for seed in range(40):
        inst = random_instance(
            seed + 71, n_max=4, m_max=6, k_max=3, constraint_kinds=("packing",)
        )
        W = solve_global(inst, "snw").committee.members
        for gamma in (Fraction(1), Fraction(2)):
            mine = check_restrained_core(inst, W, gamma)
            ref, _ = oracle_restrained_core(inst, W, gamma)
            assert mine.verdict == ref


def test_restrained_witness_replays():
    # deliberately bad committees (lexicographically first feasible) so
    # blocked verdicts are plentiful, then replay every certificate
    from corelect.constraints import is_feasible
    import itertools as it

    found = 0
    for seed in range(200):
        inst = random_instance(seed, n_max=4, m_max=6, k_max=3)
        W = None
        for size in range(inst.k, -1, -1):
            for cand in it.combinations(sorted(inst.candidates), size):
                if is_feasible(inst.feasibility, frozenset(cand)):
                    W = frozenset(cand)
                    break
            if W is not None:
                break
        if W is None:
            continue
        report = check_restrained_core(inst, W, 1)
        if report.verdict:
            continue
        found += 1
        S = report.witness["S"]
        cert = report.witness["completions"]
        ok, _ = blocks_restrained_core(inst, W, 1, S, cert=cert)
        assert ok
        if found >= 10:
            break
    assert found >= 3


def test_restrained_any_hatw_mode_is_no_easier_to_block():
    for seed in range(25):
        inst = random_instance(seed + 300, n_max=3, m_max=5, k_max=3)
        try:
            W = solve_global(inst, "snw").committee.members
        except InfeasibleInstanceError:
            continue
        sub = check_restrained_core(inst, W, 1, mode="subset_of_W")
        anyw = check_restrained_core(inst, W, 1, mode="any_hatW")
        # blocking in any-committee mode implies blocking in subset mode
        if not anyw.verdict:
            assert not sub.verdict


def test_restrained_requires_feasible_committee():
    inst = gen_rest1(2)
    special = frozenset(sorted(inst.meta["blocks"][0] | inst.meta["blocks"][1]))
    with pytest.raises(ValueError):
        check_restrained_core(inst, special, 1)  # violates the partition cap


def test_restrained_enumeration_caps():
    from corelect.errors import EnumerationLimitError
    from corelect.instances import gen_lb_16_15

    inst = gen_lb_16_15(5)  # 212 candidates, way past the cap
    W = frozenset(sorted(inst.meta["dummies"])[: inst.k])
    with pytest.raises(EnumerationLimitError):
        check_restrained_core(inst, W, Fraction(16, 15))


def test_restrained_covering_constraints_match_oracle():
    # covering rows go through the generic completability path
    from corelect.constraints import CoveringFamily
    from corelect.instances import random_utility, rng_from_seed

    checked = 0
    for seed in range(60):
        rng = rng_from_seed(seed + 31337)
        n = int(rng.integers(1, 4))
        m = int(rng.integers(3, 6))
        k = int(rng.integers(1, 4))
        cands = list(range(m))
        kind = ("approval", "additive")[seed % 2]
        utilities = [random_utility(kind, cands, rng) for _ in range(n)]
        row = [int(c) for c in rng.permutation(m)[: int(rng.integers(1, 3))]]
        lo = int(rng.integers(0, min(len(row), k) + 1))
        inst = Instance(
            cands, utilities, k=k, feasibility=CoveringFamily([(row, lo)], k), validate="trust"
        )
        try:
            W = solve_global(inst, "snw").committee.members
        except InfeasibleInstanceError:
            continue
        for gamma in (Fraction(1), Fraction(2)):
            mine = check_restrained_core(inst, W, gamma).verdict
            ref, _ = oracle_restrained_core(inst, W, gamma)
            assert mine == ref, (seed, gamma)
            checked += 1
    assert checked >= 40


def test_restrained_any_hatw_matches_oracle():
    checked = 0
    for seed in range(60):
        inst = random_instance(seed + 99000, n_max=3, m_max=5, k_max=3)
        try:
            W = solve_global(inst, "snw").committee.members
        except InfeasibleInstanceError:
            continue
        mine = check_restrained_core(inst, W, Fraction(1), mode="any_hatW").verdict
        ref, _ = oracle_restrained_core(inst, W, Fraction(1), mode="any_hatW")
        assert mine == ref, seed
        checked += 1
    assert checked >= 40


def test_zero_committee_size_edge():
    inst = Instance([0, 1], [ApprovalUtility([0])], k=0, validate="trust")
    assert check_core(inst, frozenset(), 1).verdict
    assert check_restrained_core(inst, frozenset(), 1).verdict


# ---------------------------------------------------------------------------
# restrained EJR
# ---------------------------------------------------------------------------


def test_ejr_equals_classic_when_unconstrained():
    for seed in range(50):
        inst = random_instance(
            seed + 11,
            n_max=4,
            m_max=6,
            k_max=3,
            utility_kinds=("approval",),
            constraint_kinds=("none",),
        )
        W = solve_local(inst, "pav").committee.members
        mine = check_restrained_ejr(inst, W)
        classic, _ = oracle_classic_ejr(inst, W)
        restrained, _ = oracle_restrained_ejr(inst, W)
        assert mine.verdict == classic == restrained


def test_ejr_single_voter_with_enough_approvals_passes():
    inst = Instance([0, 1, 2, 3], [ApprovalUtility([0, 1, 2])], k=2, validate="trust")
    assert check_restrained_ejr(inst, {0, 1}).verdict


def test_ejr_unrepresented_committee_fails():
    inst = Instance([0, 1, 2, 3], [ApprovalUtility([0, 1])] * 4, k=2, validate="trust")
    report = check_restrained_ejr(inst, {2, 3})
    assert not report.verdict
    S = report.witness["S"]
    ok, _ = blocks_restrained_ejr(inst, frozenset({2, 3}), S, cert=report.witness["completions"])
    assert ok


def test_ejr_local_pav_passes_on_partition_instances():
    for seed in range(30):
        inst = random_instance(
            seed + 5,
            n_max=5,
            m_max=7,
            k_max=4,
            utility_kinds=("approval",),
            constraint_kinds=("partition",),
        )
        W = solve_local(inst, "pav").committee.members
        assert check_restrained_ejr(inst, W).verdict


def test_ejr_requires_approval():
    inst = random_instance(2, utility_kinds=("additive",))
    with pytest.raises(RuleMismatchError):
        check_restrained_ejr(inst, frozenset())


# ---------------------------------------------------------------------------
# the restrained engine: pinned reports and a fuzz against the oracles
# ---------------------------------------------------------------------------


def _two_party_instance():
    # voters 0 and 1 share one oracle (one voter class); parties {0,1,2}
    # and {3,4,5} each capped at 2 seats of k = 4
    u = [
        ApprovalUtility([0, 1, 2]),
        ApprovalUtility([0, 1, 2]),
        ApprovalUtility([3, 4, 5]),
        ApprovalUtility([4, 5]),
    ]
    family = PartitionMatroidFamily([[0, 1, 2], [3, 4, 5]], [2, 2], 4)
    return Instance(list(range(6)), u, k=4, feasibility=family, validate="trust")


def _completions(pairs):
    return [{"hatW": h, "Wprime": p} for h, p in pairs]


def test_restrained_core_reports_are_pinned():
    inst = _two_party_instance()
    assert check_restrained_core(inst, {0, 1, 3, 4}, 2).to_json() == {
        "notion": "restrained_core",
        "gamma_or_theta": 2,
        "verdict": "pass",
        "stats": {"coalitions": 15, "hatw_sets": 32, "wprime_sets": 376},
        "flags": ["floored-endowment"],
    }
    assert check_restrained_core(inst, {3, 4}, 2).to_json() == {
        "notion": "restrained_core",
        "gamma_or_theta": 2,
        "verdict": "fail",
        "stats": {"coalitions": 5, "hatw_sets": 8, "wprime_sets": 82},
        "flags": ["floored-endowment"],
        "witness": {
            "S": [0, 1],
            "completions": _completions(
                [([], [0, 1]), ([3], [0, 1]), ([4], [0, 1]), ([3, 4], [0, 1])]
            ),
        },
    }


def test_restrained_ejr_reports_are_pinned():
    # wprime_sets counts the W' visited, not the table size as the core does
    inst = _two_party_instance()
    assert check_restrained_ejr(inst, {0, 1, 3, 4}).to_json() == {
        "notion": "restrained_ejr",
        "gamma_or_theta": 1,
        "verdict": "pass",
        "stats": {"coalitions": 15, "hatw_sets": 26, "wprime_sets": 43},
        "flags": [],
    }
    assert check_restrained_ejr(inst, {0, 3}).to_json() == {
        "notion": "restrained_ejr",
        "gamma_or_theta": 1,
        "verdict": "fail",
        "stats": {"coalitions": 4, "hatw_sets": 4, "wprime_sets": 34},
        "flags": [],
        "witness": {
            "S": [3],
            "completions": _completions([([], [4]), ([0], [4]), ([3], [4]), ([0, 3], [4])]),
        },
    }


E_SUGAR = Fraction(5436563657, 2000000000)  # the CLI's e^1
GAMMAS = (Fraction(1), Fraction(16, 15), Fraction(3, 2), Fraction(2), E_SUGAR)


def _rational(denominators, top=1):
    """Rationals in [0, top] over the given denominators."""
    return st.sampled_from(denominators).flatmap(
        lambda d: st.integers(0, int(top * d)).map(lambda w: Fraction(w, d))
    )


KINDS = ("approval", "additive", "xos", "coverage")


def _oracle(cands, kind):
    """Oracles of one kind over cands; additive, xos and coverage weights
    have denominators, so their scale D is not 1."""
    weights = _rational((2, 3, 4, 5))
    strategies = {
        "approval": st.sets(st.sampled_from(cands)).map(ApprovalUtility),
        "additive": st.dictionaries(st.sampled_from(cands), weights).map(AdditiveUtility),
        "xos": st.lists(
            st.dictionaries(st.sampled_from(cands), weights), min_size=1, max_size=3
        ).map(XOSUtility),
        # every candidate covers one or two of six elements of weight <= 1/2,
        # which stays within the unit bound
        "coverage": st.builds(
            CoverageUtility,
            st.lists(
                st.frozensets(st.integers(0, 5), min_size=1, max_size=2),
                min_size=len(cands),
                max_size=len(cands),
            ).map(lambda covers: dict(zip(cands, covers))),
            st.lists(
                st.sampled_from((Fraction(1, 6), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2))),
                min_size=6,
                max_size=6,
            ).map(lambda weights: dict(enumerate(weights))),
        ),
    }
    return strategies[kind]


@st.composite
def _restrained_cases(draw):
    """A small instance of one oracle kind under a partition matroid, a
    feasible W, a mode and a gamma, integer or not.  Voters are drawn from
    a pool of at most three oracles, so voter classes merge often."""
    m = draw(st.integers(2, 5))
    cands = list(range(m))
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, min(3, m)))
    kind = draw(st.sampled_from(KINDS))
    pool = draw(st.lists(_oracle(cands, kind), min_size=1, max_size=3))
    utilities = [pool[draw(st.integers(0, len(pool) - 1))] for _ in range(n)]
    group_of = draw(st.lists(st.integers(0, 2), min_size=m, max_size=m))
    groups = [[c for c in cands if group_of[c] == g] for g in range(3)]
    groups = [g for g in groups if g]
    caps = [draw(st.integers(1, len(g))) for g in groups]
    family = PartitionMatroidFamily(groups, caps, k)
    inst = Instance(cands, utilities, k=k, feasibility=family, validate="trust")
    W = frozenset()
    for c in draw(st.permutations(cands))[: draw(st.integers(0, k))]:
        if family.contains(W | {c}):
            W |= {c}
    mode = draw(st.sampled_from(("subset_of_W", "any_hatW")))
    gamma = draw(st.sampled_from(GAMMAS))
    return inst, W, mode, gamma


@settings(max_examples=160, deadline=None, derandomize=True, database=None)
@given(_restrained_cases())
def test_restrained_engine_matches_oracles_and_replays(case):
    # the oracles count naively what each report states, stats included
    inst, W, mode, gamma = case
    report = check_restrained_core(inst, W, gamma, mode=mode)
    assert report.to_json() == oracle_restrained_core(inst, W, gamma, mode=mode, report=True)
    if not report.verdict:
        S, cert = report.witness["S"], report.witness["completions"]
        assert blocks_restrained_core(inst, W, gamma, S, mode=mode, cert=cert)[0]
    core = check_core(inst, W, gamma)
    assert core.to_json() == oracle_core(inst, W, gamma, report=True)
    if not core.verdict:
        assert blocks_core(inst, W, gamma, core.witness["S"], core.witness["T"])
    if all(isinstance(u, ApprovalUtility) for u in inst.utilities):
        report = check_restrained_ejr(inst, W, mode=mode)
        assert report.to_json() == oracle_restrained_ejr(inst, W, mode=mode, report=True)
        if not report.verdict:
            S, cert = report.witness["S"], report.witness["completions"]
            assert blocks_restrained_ejr(inst, W, S, mode=mode, cert=cert)[0]


def _lb00_instance(beta):
    """gen_lb00's six two-party voters at r = 1 with exponent beta (odd
    beta takes the Quad path), k = 6, and at most 2, 2 and 1 seats for the
    candidates of residues 0, 1 and 2 mod 3.  Only beta = 1 at gamma = 1
    lets a coalition block: the utilities are at most r/beta = 1."""
    base = gen_lb00(5, 1)
    utilities = [LB00Utility(beta, 1, u.role, u.party_of) for u in base.utilities]
    groups = [[c for c in base.candidates if c % 3 == g] for g in range(3)]
    family = PartitionMatroidFamily(groups, [2, 2, 1], 6)
    return Instance(base.candidates, utilities, k=6, feasibility=family, validate="trust")


@pytest.mark.parametrize("beta", [1, 2, 3])
@pytest.mark.parametrize("gamma", [Fraction(1), Fraction(16, 15)])
def test_lb00_reports_match_the_oracles(beta, gamma):
    inst = _lb00_instance(beta)
    verdicts = set()
    for W in (frozenset(), frozenset({0}), frozenset({1, 3})):
        for mode in ("subset_of_W", "any_hatW"):
            report = check_restrained_core(inst, W, gamma, mode=mode)
            assert report.to_json() == oracle_restrained_core(
                inst, W, gamma, mode=mode, report=True
            )
            verdicts.add(report.verdict)
        report = check_core(inst, W, gamma)
        assert report.to_json() == oracle_core(inst, W, gamma, report=True)
        verdicts.add(report.verdict)
    assert (False in verdicts) == (beta == 1 and gamma == 1)


def _partial_table(weights, missing):
    """An additive table over candidates 0..3 that lacks the listed
    subsets: evaluating one of them raises MalformedUtilityError."""
    entries = {}
    for size in range(1, 5):
        for T in itertools.combinations(range(4), size):
            if list(T) not in missing:
                entries[frozenset(T)] = sum((Fraction(weights[c]) for c in T), Fraction(0))
    return TableUtility(entries)


def _fail_core(S, T, enumerated):
    return {
        "notion": "core",
        "gamma_or_theta": 1,
        "verdict": "fail",
        "stats": {"committees_enumerated": enumerated},
        "flags": [],
        "witness": {"S": S, "T": T},
    }


def _pass_restrained(coalitions, hatw_sets, wprime_sets):
    return {
        "notion": "restrained_core",
        "gamma_or_theta": 2,
        "verdict": "pass",
        "stats": {"coalitions": coalitions, "hatw_sets": hatw_sets, "wprime_sets": wprime_sets},
        "flags": ["floored-endowment"],
    }


# (voters as (weights of 0..3, missing subsets), W, gamma, mode, the
# restrained check's outcome, the core check's): a report, or the
# message of the MalformedUtilityError raised.  The restrained check
# tests a committee's voter classes lazily, lowest class first, so it
# can raise at a missing entry that the core check, which tests every
# voter at each committee in turn, does not reach first, and it can pass
# without reaching a missing entry at all.
PARTIAL_TABLE_CASES = [
    (
        [((1, 0, 1, 0), [[2]]), ((2, 2, 1, 0), [[0]])],
        [], 1, "subset_of_W",
        "table has no entry for [2]",
        "table has no entry for [0]",
    ),
    (
        [
            ((0, 2, 0, 0), [[0, 1, 2, 3]]),
            ((1, 1, 2, 1), [[0, 1], [0, 2, 3], [1, 2]]),
            ((0, 2, 2, 1), [[0], [0, 3]]),
        ],
        [], 1, "any_hatW",
        "table has no entry for [1, 2]",
        "table has no entry for [0]",
    ),
    (
        [((1, 0, 1, 1), [[0, 1, 2, 3]]), ((0, 1, 0, 1), [[1, 2, 3], [2, 3]])],
        [0, 2], 2, "any_hatW",
        _pass_restrained(3, 6, 29),
        "table has no entry for [2, 3]",
    ),
    (
        [
            ((2, 0, 1, 1), [[0, 1]]),
            ((0, 2, 1, 2), [[0, 1, 2], [0, 2, 3]]),
            ((1, 1, 0, 0), [[0, 1, 3], [1, 3]]),
        ],
        [2], 2, "subset_of_W",
        _pass_restrained(7, 5, 21),
        "table has no entry for [0, 1]",
    ),
    (
        [
            ((1, 1, 1, 2), [[0, 1, 3]]),
            ((0, 0, 0, 2), [[2, 3]]),
            ((0, 2, 0, 2), [[0, 1, 2, 3], [0, 1, 3]]),
        ],
        [2], 1, "any_hatW",
        "table has no entry for [2, 3]",
        _fail_core([1, 2], [3], 4),
    ),
    (
        [((1, 1, 2, 0), [[3]]), ((0, 2, 2, 2), [[3], [1, 3]])],
        [], 1, "any_hatW",
        "table has no entry for [3]",
        _fail_core([1], [1], 2),
    ),
]


@pytest.mark.parametrize("voters, W, gamma, mode, restrained, core", PARTIAL_TABLE_CASES)
def test_missing_table_entries_raise_where_a_lazy_scan_reaches_them(
    voters, W, gamma, mode, restrained, core
):
    # weights in halves; the expected outcomes are those of the scans that
    # evaluated each committee's oracles one at a time, as needed
    utilities = [_partial_table([Fraction(w, 2) for w in ws], missing) for ws, missing in voters]
    family = PartitionMatroidFamily([[0, 1], [2, 3]], [1, 2], 2)
    inst = Instance(range(4), utilities, k=2, feasibility=family, validate="trust")
    checks = (
        (lambda: check_restrained_core(inst, W, gamma, mode=mode), restrained),
        (lambda: check_core(inst, W, gamma), core),
    )
    for run, expected in checks:
        if isinstance(expected, str):
            with pytest.raises(MalformedUtilityError) as raised:
                run()
            assert str(raised.value) == expected
        else:
            assert run().to_json() == expected


# ---------------------------------------------------------------------------
# budget-mode notions
# ---------------------------------------------------------------------------


def _pb_instance(weights_list, sizes, budget):
    m = len(sizes)
    return Instance(
        list(range(m)),
        [AdditiveUtility(w) for w in weights_list],
        sizes={c: s for c, s in enumerate(sizes)},
        budget=budget,
        validate="trust",
    )


def test_endowment_huge_theta_passes_with_flag():
    inst = _pb_instance([{0: 1}], [1, 1], 2)
    report = check_endowment_core(inst, {1}, 1000)
    # the lone voter gets nothing from W, so the empty deviation ties;
    # it never blocks but the degeneracy is flagged
    assert report.verdict
    assert "degenerate-empty-deviation" in report.flags
    happy = check_endowment_core(inst, {0}, 1000)
    assert happy.verdict and "degenerate-empty-deviation" not in happy.flags


def test_endowment_welfare_optimum_passes_theta_one():
    inst = _pb_instance([{0: 1, 1: Fraction(1, 2)}], [1, 2], 2)
    # spend the whole budget on the voter's favorite affordable bundle
    report = check_endowment_core(inst, {0}, 1)
    assert report.verdict


def test_endowment_matches_oracle():
    for seed in range(60):
        inst = random_instance(seed, n_max=3, m_max=5, budget_mode=True)
        W = frozenset(sorted(inst.candidates)[:2])
        for theta in (Fraction(1), Fraction(2)):
            mine = check_endowment_core(inst, W, theta)
            ref, _ = oracle_endowment_core(inst, W, theta)
            assert mine.verdict == ref


def test_endowment_mode_errors_and_lift():
    inst = random_instance(8)  # k-mode
    with pytest.raises(InfeasibleInstanceError):
        check_endowment_core(inst, frozenset(), 1)
    lifted = check_endowment_core(inst, frozenset(sorted(inst.candidates)[: inst.k]), 1, auto_lift=True)
    assert "auto-lifted-unit-sizes" in lifted.flags


def test_pb_core_unit_sizes_matches_core():
    for seed in range(40):
        inst = random_instance(seed + 21, n_max=4, m_max=6, k_max=3, constraint_kinds=("none",))
        W = solve_global(inst, "snw").committee.members
        pb = check_pb_core(inst, W, Fraction(3, 2), auto_lift=True)
        plain = check_core(inst, W, Fraction(3, 2))
        assert pb.verdict == plain.verdict


def test_auto_lift_reports_match_the_unit_size_budget_instance():
    # a k-mode instance read as unit sizes and budget k gives the report of
    # that budget instance built explicitly, apart from the lift's flag
    for seed in range(40):
        inst = random_instance(seed + 700, n_max=4, m_max=6, k_max=3)
        unit = Instance(
            inst.candidates, inst.utilities, sizes={c: 1 for c in inst.candidates},
            budget=inst.k, validate="trust",
        )
        for W in (frozenset(), frozenset(sorted(inst.candidates)[: inst.k])):
            for check, param in (
                (check_pb_core, Fraction(1)), (check_pb_core, Fraction(3, 2)),
                (check_endowment_core, Fraction(1)), (check_endowment_core, Fraction(2)),
            ):
                lifted = check(inst, W, param, auto_lift=True).to_json()
                assert "auto-lifted-unit-sizes" in lifted["flags"]
                lifted["flags"].remove("auto-lifted-unit-sizes")
                assert lifted == check(unit, W, param).to_json()


def test_pb_core_empty_committee_blocked_at_gamma_one():
    inst = _pb_instance([{0: 1}], [1], 1)
    report = check_pb_core(inst, frozenset(), 1)
    assert not report.verdict
    assert report.witness["T"] == frozenset({0})


def test_pb_core_matches_oracle():
    for seed in range(60):
        inst = random_instance(seed + 100, n_max=3, m_max=5, budget_mode=True)
        W = frozenset(sorted(inst.candidates)[:1])
        for gamma in (Fraction(1), Fraction(3, 2)):
            mine = check_pb_core(inst, W, gamma)
            ref, _ = oracle_pb_core(inst, W, gamma)
            assert mine.verdict == ref


def test_theta_monotone_for_endowment():
    for seed in range(20):
        inst = random_instance(seed + 400, n_max=3, m_max=5, budget_mode=True)
        W = frozenset(sorted(inst.candidates)[:2])
        verdicts = [
            check_endowment_core(inst, W, theta).verdict
            for theta in (Fraction(1), Fraction(2), Fraction(5))
        ]
        for lo, hi in zip(verdicts, verdicts[1:]):
            assert not lo or hi


@st.composite
def _budget_cases(draw):
    """A small budget-mode instance of one rational oracle kind, with
    rational sizes and budget, and a committee W of at most two."""
    m = draw(st.integers(2, 5))
    cands = list(range(m))
    n = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(KINDS))
    utilities = draw(st.lists(_oracle(cands, kind), min_size=n, max_size=n))
    size = _rational((1, 2, 3, 4), top=2).filter(lambda s: s > 0)
    sizes = draw(st.lists(size, min_size=m, max_size=m))
    budget = draw(_rational((1, 2, 3), top=6).filter(lambda b: b > 0))
    inst = Instance(
        cands, utilities, sizes=dict(enumerate(sizes)), budget=budget, validate="trust"
    )
    W = frozenset(draw(st.sets(st.sampled_from(cands), max_size=2)))
    return inst, W


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_budget_cases(), st.sampled_from(GAMMAS))
def test_pb_core_fuzz_matches_oracle_and_replays(case, gamma):
    inst, W = case
    report = check_pb_core(inst, W, gamma)
    assert report.verdict == oracle_pb_core(inst, W, gamma)[0]
    if not report.verdict:
        assert blocks_pb_core(inst, W, gamma, report.witness["S"], report.witness["T"])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_budget_cases(), st.sampled_from((Fraction(1), Fraction(16, 15), Fraction(3, 2), Fraction(2))))
def test_endowment_core_fuzz_matches_oracle_and_replays(case, theta):
    inst, W = case
    report = check_endowment_core(inst, W, theta)
    assert report.verdict == oracle_endowment_core(inst, W, theta)[0]
    if not report.verdict:
        assert blocks_endowment(inst, W, theta, report.witness["S"], report.witness["T"])
