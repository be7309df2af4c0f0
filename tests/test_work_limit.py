"""The one work limit: every exhaustive search estimates its steps and is
refused up front past WORK_LIMIT; inputs under it run and match the
naive oracles."""

import itertools
import math
from fractions import Fraction

import pytest

from corelect.cli import run
from corelect.constraints import CardinalityFamily, PartitionMatroidFamily
from corelect.errors import (
    WORK_LIMIT,
    EnumerationLimitError,
    InfeasibleInstanceError,
    require_work,
    subsets_up_to,
)
from corelect.instances import random_instance, random_utility, rng_from_seed
from corelect.model import (
    AdditiveUtility,
    ApprovalUtility,
    Instance,
    check_axioms,
    check_submodular,
)
from corelect.model import self_bounding_constant
from corelect.serialize import save_instance
from corelect.solvers import solve_global
from corelect.verifiers import (
    _restrained_work,
    blocks_restrained_core,
    blocks_restrained_ejr,
    check_core,
    check_endowment_core,
    check_pb_core,
    check_restrained_core,
    check_restrained_ejr,
)

from oracles import oracle_global, oracle_restrained_core


def test_require_work_admits_the_limit_and_refuses_one_more():
    require_work(WORK_LIMIT, "a search")
    with pytest.raises(EnumerationLimitError, match=f"a search would take {WORK_LIMIT + 1} steps"):
        require_work(WORK_LIMIT + 1, "a search")


def test_subsets_up_to_matches_a_brute_force_count():
    for m in range(8):
        subsets = [T for r in range(m + 1) for T in itertools.combinations(range(m), r)]
        for size in range(m + 3):
            assert subsets_up_to(m, size) == sum(1 for T in subsets if len(T) <= size)


class _Counted(AdditiveUtility):
    """An additive oracle that counts its evaluations (``value`` goes
    through ``numerator``)."""

    def __init__(self, weights, calls):
        super().__init__(weights)
        self.calls = calls

    def numerator(self, T):
        self.calls.append(T)
        return super().numerator(T)


class _CountedFamily(CardinalityFamily):
    def __init__(self, k, calls):
        super().__init__(k)
        self.calls = calls

    def contains(self, T):
        self.calls.append(T)
        return super().contains(T)


def _counted_instance(n, m, k, calls):
    utilities = [_Counted({c: Fraction(1, 2) for c in range(m)}, calls) for _ in range(n)]
    return Instance(range(m), utilities, k=k, feasibility=_CountedFamily(k, calls), validate="trust")


def _budget_instance(n, m, calls):
    utilities = [_Counted({c: Fraction(1, 2) for c in range(m)}, calls) for _ in range(n)]
    return Instance(
        range(m), utilities, sizes={c: 1 for c in range(m)}, budget=m // 2, validate="trust"
    )


@pytest.mark.parametrize(
    "name, steps",
    [
        ("check_axioms", 1 << 21),
        ("self_bounding_constant", 1 << 21),
        ("check_submodular", 4**11),
        ("check_core", subsets_up_to(30, 10)),
        ("check_pb_core", 1 << 24),
        ("check_endowment_core", 1 << 24),
        (
            "check_restrained_core",
            # per k', each hatW of size h <= 6 - k', and its W' of size <= k'
            # among the 40 - h candidates outside it
            (1 << 3)
            + sum(
                math.comb(40, h) * (1 + subsets_up_to(40 - h, kp))
                for kp in (2, 4, 6)
                for h in range(7 - kp)
            ),
        ),
        ("solve_global", 1 << 24),
        # one coalition: one table, k' = 2 for S = {0} and 4 for S = {0, 1}
        (
            "blocks_restrained_core",
            1 + sum(math.comb(40, h) * (1 + subsets_up_to(40 - h, 2)) for h in range(5)),
        ),
        (
            "blocks_restrained_ejr",
            1 + sum(math.comb(40, h) * (1 + subsets_up_to(40 - h, 4)) for h in range(3)),
        ),
    ],
)
def test_each_entry_point_refuses_before_any_evaluation(name, steps):
    calls = []
    one = _Counted({c: Fraction(1, 2) for c in range(21)}, calls)
    run_search = {
        "check_axioms": lambda: check_axioms(one, range(21)),
        "self_bounding_constant": lambda: self_bounding_constant(one, range(21)),
        "check_submodular": lambda: check_submodular(one, range(11)),
        "check_core": lambda: check_core(_counted_instance(3, 30, 10, calls), {0}, 1),
        "check_pb_core": lambda: check_pb_core(_budget_instance(3, 24, calls), {0}, 1),
        "check_endowment_core": lambda: check_endowment_core(
            _budget_instance(3, 24, calls), {0}, 1
        ),
        # any_hatW: every hatW and every W' range over all 40 candidates
        "check_restrained_core": lambda: check_restrained_core(
            _counted_instance(3, 40, 6, calls), {0}, 1, mode="any_hatW"
        ),
        "solve_global": lambda: solve_global(_counted_instance(3, 25, 12, calls), "snw"),
        "blocks_restrained_core": lambda: blocks_restrained_core(
            _counted_instance(3, 40, 6, calls), {0}, 1, {0}, mode="any_hatW"
        ),
        "blocks_restrained_ejr": lambda: blocks_restrained_ejr(
            _counted_instance(3, 40, 6, calls), {0}, {0, 1}, mode="any_hatW"
        ),
    }[name]
    with pytest.raises(EnumerationLimitError, match=f" {steps} steps, over the work limit"):
        run_search()
    assert calls == []


def test_axiom_check_past_the_limit_samples_when_given_a_budget():
    u = AdditiveUtility({c: Fraction(1, 2) for c in range(21)})
    rep = check_axioms(u, range(21), sample_budget=20, seed=3)
    assert rep.ok and not rep.exhaustive and rep.checked == 20


@pytest.mark.parametrize("budget", [0, -3])
def test_sampled_axiom_check_refuses_a_budget_that_checks_nothing(budget):
    u = AdditiveUtility({c: Fraction(1, 2) for c in range(21)})
    with pytest.raises(ValueError, match=f"sample budget of at least 1, got {budget}"):
        check_axioms(u, range(21), sample_budget=budget, seed=3)


def test_cli_names_the_work_limit(tmp_path, capsys):
    path = tmp_path / "big.json"
    utilities = [AdditiveUtility({c: Fraction(1, 2) for c in range(25)}) for _ in range(2)]
    save_instance(Instance(range(25), utilities, k=12, validate="trust"), path)
    argv = ["solve", "--rule", "snw", "--method", "global", "--in", str(path)]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert f"{1 << 24} steps, over the work limit {WORK_LIMIT} (reduce the instance)" in err


def _twelve_voters(seed):
    # 12 voters were past the old restrained cap of 10; the tables are tiny
    rng = rng_from_seed(seed)
    candidates = list(range(5))
    utilities = [random_utility("approval", candidates, rng) for _ in range(12)]
    family = PartitionMatroidFamily([[0, 1, 2], [3, 4]], [2, 1], 3)
    inst = Instance(candidates, utilities, k=3, feasibility=family, validate="trust")
    W = frozenset()
    for c in rng.permutation(5)[: int(rng.integers(0, 4))]:
        if family.contains(W | {int(c)}):
            W |= {int(c)}
    return inst, W


@pytest.mark.parametrize("mode", ["subset_of_W", "any_hatW"])
@pytest.mark.parametrize("gamma", [Fraction(1), Fraction(2)])
def test_restrained_check_past_the_old_voter_cap_matches_the_oracle(mode, gamma):
    verdicts = set()
    for seed in (3, 4):
        inst, W = _twelve_voters(seed)
        report = check_restrained_core(inst, W, gamma, mode=mode)
        ref, ref_S = oracle_restrained_core(inst, W, gamma, mode=mode)
        assert report.verdict == ref, seed
        if not ref:
            assert report.witness["S"] == ref_S, seed
        verdicts.add(report.verdict)
    # at gamma = 1 some coalition blocks in both modes; at 2 none does
    assert (False in verdicts) == (gamma == 1)


def test_global_past_the_old_candidate_cap_matches_the_oracle():
    rng = rng_from_seed(30)
    candidates = list(range(30))
    utilities = [random_utility("additive", candidates, rng) for _ in range(3)]
    inst = Instance(candidates, utilities, k=2, validate="trust")
    result = solve_global(inst, "snw")
    assert result.iterations == subsets_up_to(30, 2) == 466
    members, value = oracle_global("snw", inst)
    assert result.committee.members == members
    assert result.score.value == value



def _restrained_draws():
    """(instance, committee) pairs of small fuzz instances, approval ones
    included so restrained EJR runs too."""
    for seed in range(60):
        inst = random_instance(seed + 12_000, n_max=4, m_max=6, k_max=3)
        try:
            yield inst, solve_global(inst, "snw").committee.members
        except InfeasibleInstanceError:
            continue


@pytest.mark.parametrize("mode", ["subset_of_W", "any_hatW"])
def test_restrained_work_estimate_bounds_the_steps_taken(mode):
    checked = 0
    for inst, W in _restrained_draws():
        pool = len(W) if mode == "subset_of_W" else inst.m
        estimate = _restrained_work(inst.n, inst.m, inst.k, pool)
        reports = [check_restrained_core(inst, W, 1, mode=mode)]
        if all(isinstance(u, ApprovalUtility) for u in inst.utilities):
            reports.append(check_restrained_ejr(inst, W, mode=mode))
        for report in reports:
            stats = report.stats
            assert estimate >= (1 << inst.n) + stats["hatw_sets"] + stats["wprime_sets"]
            checked += 1
    assert checked >= 60


def test_restrained_work_estimate_admits_four_voters_over_fourteen_candidates():
    # n = 4, m = 14, k = 7 in any_hatW mode builds 548,442 table entries;
    # counting every W' over all 14 candidates estimated 1,166,572 steps
    assert _restrained_work(4, 14, 7, 14) == 556_512 <= WORK_LIMIT
