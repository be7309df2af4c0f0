import itertools
import math
from fractions import Fraction

import pytest

from corelect import solvers
from corelect.constraints import (
    CoveringFamily,
    ExplicitFamily,
    MatroidOracleFamily,
    is_feasible,
)
from corelect.errors import (
    CorelectError,
    InfeasibleInstanceError,
    MalformedUtilityError,
    NotABasisError,
    RuleMismatchError,
    UnsupportedConstraintError,
)
from corelect.exactnum import Quad
from corelect.instances import (
    gen_lb00,
    gen_rest1,
    gen_xos_example,
    random_instance,
    random_utility,
)
from corelect.model import (
    AdditiveUtility,
    ApprovalUtility,
    CoverageUtility,
    Instance,
    LB00Utility,
    TableUtility,
    XOSUtility,
    rng_from_seed,
)
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


_HAND_BUILT_TIES = [
    ([[0, 1], [2, 3]], 2, {0, 2}),  # four committees tie: the smallest ids win
    ([[0], [1]], 3, {0, 1, 2}),  # a third seat adds nothing: the larger committee wins
    ([[3], [3]], 2, {0, 3}),  # the larger committee wins, then the smallest ids
]


@pytest.mark.parametrize("approved, k, expected", _HAND_BUILT_TIES)
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


# -- Global on committee masks, against the exhaustive oracle ---------------


def _outcome(f):
    """f's result, or the type and message of the refusal it raised."""
    try:
        return f()
    except (CorelectError, ValueError) as exc:
        return type(exc), str(exc)


def _same_as_oracle(inst, rule):
    """Global's committee and score value equal oracle_global's, or both
    refuse with the same error; True when a committee was compared."""

    def solved():
        result = solve_global(inst, rule)
        return result.committee, result.score.value

    got = _outcome(solved)
    assert got == _outcome(lambda: oracle_global(rule, inst))
    return not isinstance(got[0], type)


def _table_of(u, m):
    """A table utility holding u's value at every nonempty subset of range(m)."""
    return TableUtility({T: u.value(T) for T in _subsets_of(range(m))})


def _subsets_of(pool, top=None):
    pool = list(pool)
    sizes = range(1, (len(pool) if top is None else top) + 1)
    return [frozenset(T) for s in sizes for T in itertools.combinations(pool, s)]


def _integral(kind, m, rng):
    """A random oracle of ``kind`` whose utilities are integers, for pav."""
    if kind == "additive":
        return AdditiveUtility({c: int(rng.integers(0, 2)) for c in range(m)})
    if kind == "xos":
        return XOSUtility([{c: int(rng.integers(0, 2)) for c in range(m)} for _ in range(2)])
    covers = {c: [int(rng.integers(0, m))] for c in range(m)}
    return CoverageUtility(covers, {e: 1 for e in range(m)})


_FAMILIES = ("none", "partition", "packing", "explicit", "covering")


@pytest.mark.parametrize("rule", ["pav", "snw", "gpav"])
@pytest.mark.parametrize("kind", ["approval", "additive", "xos", "coverage"])
def test_global_on_masks_matches_the_oracle_on_every_kind_and_family(rule, kind):
    solved = 0
    for seed in range(24):
        inst = random_instance(seed + 1300, utility_kinds=(kind,), constraint_kinds=_FAMILIES)
        if inst.feasibility.kind == "explicit" and not any(
            len(T) <= inst.k for T in inst.feasibility.sets
        ):
            continue
        solved += _same_as_oracle(inst, rule)
        if rule == "pav" and kind != "approval":
            # the fractional draws above are refused; these are integral
            rng = rng_from_seed(seed)
            us = [_integral(kind, inst.m, rng) for _ in range(3)]
            inst = Instance(inst.candidates, us, k=inst.k, feasibility=inst.feasibility,
                            validate="trust")
            solved += _same_as_oracle(inst, rule)
    assert solved >= 12


@pytest.mark.parametrize("rule", ["pav", "snw", "gpav"])
def test_global_on_masks_matches_the_oracle_on_tables_and_families(rule):
    rng = rng_from_seed(5)
    m, k = 6, 3
    voters = [random_utility(kind, range(m), rng) for kind in ("approval", "coverage", "xos")]
    oracle_family = MatroidOracleFamily(lambda T: len(T & {0, 1, 2}) <= 1, k)
    families = [
        None,
        oracle_family,
        CoveringFamily([({1, 4, 5}, 2)], k),
        ExplicitFamily([[0, 1], [2, 3, 4], [5], [1, 3], [0, 4, 5], []], k),
    ]
    for family in families:
        for chosen in ([0], [0, 1], [1, 2], [0, 2]):
            tables = [_table_of(voters[i], m) for i in chosen]
            inst = Instance(range(m), tables, k=k, feasibility=family, validate="trust")
            assert _same_as_oracle(inst, rule) or rule == "pav"


@pytest.mark.parametrize("rule", ["pav", "snw", "gpav"])
@pytest.mark.parametrize("beta", [5, 6])
def test_global_on_masks_matches_the_oracle_on_lb00_voters(rule, beta):
    inst = gen_lb00(beta, 1)
    assert isinstance(inst.utilities[0].z, Quad) == (beta == 5)
    solved = _same_as_oracle(inst, rule)
    assert solved == (rule != "pav")  # lb00 values are fractional
    # rational voters beside them take the exact path too
    extra = AdditiveUtility({c: Fraction(c + 1, 9) for c in inst.candidates})
    mixed = Instance(inst.candidates, [*inst.utilities[:3], extra], k=inst.k, validate="trust")
    assert _same_as_oracle(mixed, rule) == (rule != "pav")


@pytest.mark.parametrize("rule", ["pav", "snw", "gpav"])
def test_global_on_masks_reaches_64_candidates(rule):
    rng = rng_from_seed(64)
    for kind in ("approval", "additive", "xos", "coverage"):
        voters = [random_utility(kind, range(64), rng) for _ in range(3)]
        if rule == "pav" and kind != "approval":
            voters = [_integral(kind, 64, rng) for _ in range(3)]
        inst = Instance(range(64), voters, k=2, validate="trust")
        assert _same_as_oracle(inst, rule)


def test_global_snw_product_past_int64_stays_exact():
    rng = rng_from_seed(97)
    primes = [p for p in range(50, 98) if all(p % d for d in range(2, 10))]
    voters = []
    for _ in range(8):
        clauses = [
            {c: Fraction(int(rng.integers(1, p)), p) for c in range(6)}
            for p in rng.choice(primes, size=3, replace=False).tolist()
        ]
        voters.append(XOSUtility(clauses))
    inst = Instance(range(6), voters, k=3, validate="trust")
    bound = math.prod(u.scale + max(u.numerator(T) for T in _subsets_of(range(6), 3))
                      for u in voters)
    assert bound >= 1 << 63
    for rule in ("snw", "gpav"):
        assert _same_as_oracle(inst, rule)
    # one prime denominator per voter: gpav's common denominator passes int64
    voters = [AdditiveUtility({c: Fraction(int(rng.integers(1, p)), p) for c in range(6)})
              for p in primes]
    assert math.prod(primes) >= 1 << 61
    inst = Instance(range(6), voters, k=3, validate="trust")
    for rule in ("snw", "gpav"):
        assert _same_as_oracle(inst, rule)


@pytest.mark.parametrize("block", [1, 3, 16])
@pytest.mark.parametrize("rule", ["pav", "snw", "gpav"])
def test_global_carries_its_tie_break_across_blocks(monkeypatch, rule, block):
    monkeypatch.setattr(solvers, "_BLOCK", block)
    for approved, k, expected in _HAND_BUILT_TIES:
        inst = Instance(range(4), [ApprovalUtility(a) for a in approved], k=k, validate="trust")
        assert solve_global(inst, rule).committee == expected
        assert oracle_global(rule, inst)[0] == expected
    for seed in range(12):
        inst = random_instance(seed + 600, utility_kinds=("approval",), constraint_kinds=_FAMILIES)
        _same_as_oracle(inst, rule)


def test_global_size_tie_spans_the_default_blocks():
    # the five singletons' voters are all served by size 5; any sixth
    # member ties, and the size-6 layer starts a later block
    inst = Instance(range(20), [ApprovalUtility([c]) for c in range(5)], k=6, validate="trust")
    result = solve_global(inst, "snw")
    assert result.committee == set(range(6))
    assert result.iterations > 2 * solvers._BLOCK


def test_global_refuses_as_the_committee_loop_did():
    inst = random_instance(3, constraint_kinds=("none",))
    with pytest.raises(RuleMismatchError, match=r"^unknown rule 'borda'$"):
        solve_global(inst, "borda")
    empty = Instance([0, 1], [ApprovalUtility([0])], k=1,
                     feasibility=ExplicitFamily([[0, 1]], 1), validate="trust")
    # an empty family is refused before the rule is read
    for rule in ("snw", "borda"):
        with pytest.raises(InfeasibleInstanceError, match=r"^the feasibility family is empty$"):
            solve_global(empty, rule)
    fractional = Instance(range(3), [AdditiveUtility({2: Fraction(1, 2)})], k=2, validate="trust")
    with pytest.raises(RuleMismatchError, match=r"^pav requires integer utilities$"):
        solve_global(fractional, "pav")


class _NamedTable(TableUtility):
    """A table whose missing entries name their voter."""

    def __init__(self, entries, name):
        super().__init__(entries)
        self.name = name

    def numerator(self, T):
        try:
            return super().numerator(T)
        except MalformedUtilityError as exc:
            raise MalformedUtilityError(f"{self.name}: {exc}") from None


def _gappy(name, missing, m=3):
    return _NamedTable({T: len(T) for T in _subsets_of(range(m)) if T not in missing}, name)


@pytest.mark.parametrize(
    "voters, rule, error, message",
    [
        # {2} precedes {0, 1}: the first committee decides, then the first voter
        (["a:01", "b:2"], "snw", MalformedUtilityError, "b: table has no entry for [2]"),
        (["a:2", "b:2"], "gpav", MalformedUtilityError, "a: table has no entry for [2]"),
        (["a:01", "b:012", "c:1"], "snw", MalformedUtilityError, "c: table has no entry for [1]"),
        # a rational voter's fractional utility stops pav where it is reached
        (["half:1", "a:1"], "pav", RuleMismatchError, "pav requires integer utilities"),
        (["a:1", "half:1"], "pav", MalformedUtilityError, "a: table has no entry for [1]"),
        (["a:1", "half:1"], "snw", MalformedUtilityError, "a: table has no entry for [1]"),
        # beside an lb00 voter every voter is evaluated before pav tests one
        (["lb00", "a:0"], "pav", MalformedUtilityError, "a: table has no entry for [0]"),
        (["lb00", "a:1"], "pav", RuleMismatchError, "pav requires integer utilities"),
        (["lb00", "a:1"], "snw", MalformedUtilityError, "a: table has no entry for [1]"),
    ],
)
def test_global_raises_the_first_failed_evaluation_of_the_committee_loop(
    voters, rule, error, message
):
    built = []
    for spec in voters:
        if spec == "lb00":
            built.append(LB00Utility(6, 1, ("p", "q"), {0: "p", 1: "q", 2: "q"}))
        elif spec == "half:1":
            built.append(AdditiveUtility({1: Fraction(1, 2)}))
        else:
            name, gaps = spec.split(":")
            built.append(_gappy(name, {frozenset(map(int, gap)) for gap in gaps.split(",")}))
    inst = Instance(range(3), built, k=2, validate="trust")
    with pytest.raises(error) as caught:
        solve_global(inst, rule)
    assert str(caught.value) == message


def test_global_walks_an_explicit_family_naming_outside_ids():
    def solved(sets, approved):
        family = ExplicitFamily(sets, 2)
        inst = Instance(range(3), [ApprovalUtility(approved)], k=2, feasibility=family,
                        validate="trust")
        return _outcome(lambda: sorted(solve_global(inst, "snw").committee))

    # an outside id counts for no voter, and a winner holding one is refused
    assert solved([[0, 1], [1, 7], [2]], [0, 1]) == [0, 1]
    assert solved([[0], [1, 7], [2]], [0, 1, 7]) == (ValueError, "unknown candidates [7]")


def test_global_at_twenty_candidates_and_seven_seats():
    rng = rng_from_seed(11)
    voters = [random_utility("additive", range(20), rng) for _ in range(4)]
    inst = Instance(range(20), voters, k=7, validate="trust")
    result = solve_global(inst, "snw")
    assert result.committee == {1, 4, 6, 7, 12, 16, 17}
    assert result.iterations == 137_980
    assert result.score == score("snw", inst, result.committee)


def test_local_refuses_a_start_with_unknown_ids():
    inst = gen_xos_example(2)
    with pytest.raises(ValueError, match=r"^unknown candidates \[99\]$"):
        solve_local(inst, "snw", SolverConfig(start=[0, 99]))
