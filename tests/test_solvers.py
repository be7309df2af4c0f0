import itertools
from fractions import Fraction

import pytest

from corelect.constraints import ExplicitFamily, is_feasible
from corelect.errors import (
    InfeasibleInstanceError,
    NotABasisError,
    UnsupportedConstraintError,
)
from corelect.instances import gen_rest1, gen_xos_example, random_instance
from corelect.model import AdditiveUtility, ApprovalUtility, Instance
from corelect.scoring import score
from corelect.solvers import SolverConfig, solve_global, solve_local
from corelect.theorems import tight_lower_instance
from oracles import oracle_global


def test_global_single_voter_takes_top_weights():
    u = AdditiveUtility({0: Fraction(1, 4), 1: 1, 2: Fraction(3, 4), 3: Fraction(3, 4)})
    inst = Instance([0, 1, 2, 3], [u], k=2, validate="trust")
    result = solve_global(inst, "snw")
    assert result.committee.members == {1, 2}  # id 2 beats the tied id 3


def test_local_pav_reaches_utilities_in_the_hundreds():
    inst = Instance(list(range(502)), [ApprovalUtility(range(502))], k=500, validate="trust")
    result = solve_local(inst, "pav")
    assert result.committee.size == 500
    assert result.score.value == score("pav", inst, range(500)).value


def test_global_rest1_spreads_across_blocks():
    inst = gen_rest1(2)
    result = solve_global(inst, "snw")
    for block in inst.meta["blocks"]:
        assert len(result.committee.members & block) == 1


def test_global_empty_family_errors():
    inst = Instance(
        [0, 1],
        [ApprovalUtility([0])],
        k=1,
        feasibility=ExplicitFamily([[0, 1]], 1),  # the only set exceeds k
        validate="trust",
    )
    with pytest.raises(InfeasibleInstanceError):
        solve_global(inst, "snw")


def test_global_is_maximum_by_full_rescan():
    for seed in range(25):
        inst = random_instance(seed + 40)
        try:
            result = solve_global(inst, "snw")
        except InfeasibleInstanceError:
            continue
        best = result.score
        for size in range(inst.k + 1):
            for T in itertools.combinations(sorted(inst.candidates), size):
                if is_feasible(inst.feasibility, frozenset(T)):
                    assert not score("snw", inst, frozenset(T)) > best


def test_local_xos_block_committee_is_stuck():
    inst = gen_xos_example(3)
    A = inst.meta["A"]
    result = solve_local(inst, "snw", SolverConfig(start=A))
    assert result.committee.members == A
    assert result.iterations == 0


def test_local_tight_committee_is_stuck():
    inst, W, _, _ = tight_lower_instance()
    result = solve_local(inst, "gpav", SolverConfig(start=W))
    assert result.committee.members == W
    assert result.iterations == 0


def test_local_global_optimum_start_unchanged():
    inst = random_instance(7, constraint_kinds=("none",))
    opt = solve_global(inst, "snw").committee.members
    result = solve_local(inst, "snw", SolverConfig(start=opt))
    assert score("snw", inst, result.committee.members).value == score(
        "snw", inst, opt
    ).value


def test_local_requires_matroid_family():
    inst = random_instance(3, constraint_kinds=("packing",))
    assert inst.feasibility.kind == "packing"
    with pytest.raises(UnsupportedConstraintError):
        solve_local(inst, "snw")


def test_local_rejects_non_basis_start():
    inst = gen_xos_example(2)
    with pytest.raises(NotABasisError):
        solve_local(inst, "snw", SolverConfig(start={0}))


def test_local_output_admits_no_improving_swap():
    for seed in range(25):
        inst = random_instance(seed + 200, constraint_kinds=("none", "partition"))
        result = solve_local(inst, "snw")
        W = result.committee.members
        best = score("snw", inst, W)
        for out_c in W:
            for in_c in set(inst.candidates) - W:
                cand = (W - {out_c}) | {in_c}
                if inst.feasibility.independent(cand):
                    assert not score("snw", inst, cand) > best


def test_local_determinism():
    inst = random_instance(11, constraint_kinds=("partition",))
    a = solve_local(inst, "snw", SolverConfig(seed=5))
    b = solve_local(inst, "snw", SolverConfig(seed=5))
    assert a.committee.members == b.committee.members
    assert a.iterations == b.iterations


def test_local_epsilon_stops_earlier():
    inst = random_instance(13, constraint_kinds=("none",), utility_kinds=("additive",))
    exact = solve_local(inst, "gpav")
    loose = solve_local(inst, "gpav", SolverConfig(epsilon=Fraction(10)))
    assert loose.iterations <= exact.iterations


def test_local_epsilon_snw_certified():
    inst = random_instance(17, constraint_kinds=("none",))
    result = solve_local(inst, "snw", SolverConfig(epsilon=Fraction(1, 100)))
    assert result.committee.size <= inst.k


def test_global_prefers_larger_committee_on_ties():
    # dummies add nothing but the maximizer keeps maximal size
    inst = gen_rest1(2)
    result = solve_global(inst, "snw")
    assert result.committee.size == inst.k


@pytest.mark.parametrize(
    "approved, k, expected",
    [
        ([[0, 1], [2, 3]], 2, {0, 2}),  # four committees tie: the smallest ids win
        ([[0], [1]], 3, {0, 1, 2}),  # a third seat adds nothing: the larger committee wins
    ],
)
def test_global_tie_break_on_hand_built_ties(approved, k, expected):
    inst = Instance(range(4), [ApprovalUtility(a) for a in approved], k=k, validate="trust")
    for rule in ("pav", "snw", "gpav"):
        assert solve_global(inst, rule).committee.members == expected
        assert oracle_global(rule, inst)[0] == expected


@pytest.mark.parametrize("rule", ["pav", "snw", "gpav"])
def test_global_matches_exhaustive_oracle_with_its_tie_break(rule):
    # pav needs integer utilities; approval voters tie often under every rule
    kinds = ("approval",) if rule == "pav" else ("approval", "additive", "xos")
    solved = 0
    for seed in range(30):
        inst = random_instance(seed + 600, utility_kinds=kinds)
        try:
            result = solve_global(inst, rule)
        except InfeasibleInstanceError:
            continue
        members, value = oracle_global(rule, inst)
        assert result.committee.members == members, seed
        assert result.score.value == value, seed
        solved += 1
    assert solved >= 20
