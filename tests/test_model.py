from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corelect.errors import EnumerationLimitError, MalformedUtilityError
from corelect.instances import gen_lb00, gen_xos_example, random_utility, rng_from_seed
from corelect.model import (
    AdditiveUtility,
    ApprovalUtility,
    CoverageUtility,
    Instance,
    TableUtility,
    XOSUtility,
    check_axioms,
    check_submodular,
    evaluate,
    self_bounding_constant,
)

from oracles import naive_value


def test_evaluate_approval_intersection():
    u = ApprovalUtility([1, 3])
    assert evaluate(u, {1, 2}) == 1
    assert evaluate(u, set()) == 0


def test_evaluate_xos_block_example():
    # the two-block instance: voter i values max(|T & B|, |T & {a_i}|)
    k = 3
    inst = gen_xos_example(k)
    B = inst.meta["B"]
    assert evaluate(inst.utilities[0], B) == k
    assert evaluate(inst.utilities[1], {0, 1}) == 1  # only a_1 counts


def test_evaluate_lb00_full_party():
    inst = gen_lb00(5, 2)
    party_a = inst.meta["parties"]["a"]
    assert evaluate(inst.utilities[0], party_a) == Fraction(2, 5)


def test_table_missing_entry_is_error():
    u = TableUtility({frozenset({1}): 1})
    with pytest.raises(MalformedUtilityError):
        evaluate(u, {1, 2})
    assert evaluate(u, set()) == 0


def test_check_axioms_additive_passes():
    u = AdditiveUtility({0: Fraction(1, 2), 1: 1, 2: Fraction(1, 4)})
    rep = check_axioms(u, [0, 1, 2])
    assert rep.ok and rep.exhaustive


def test_check_axioms_monotone_witness():
    u = TableUtility({frozenset({0}): 1, frozenset({1}): 1, frozenset({0, 1}): Fraction(1, 2)})
    rep = check_axioms(u, [0, 1])
    assert not rep.monotone
    assert rep.monotone_witness.subset == frozenset({0, 1})
    assert rep.monotone_witness.candidate in {0, 1}


def test_check_axioms_lipschitz_witness():
    u = TableUtility({frozenset({0}): 2, frozenset({1}): 0, frozenset({0, 1}): 2})
    rep = check_axioms(u, [0, 1])
    assert not rep.lipschitz
    assert rep.lipschitz_witness is not None


def test_check_axioms_lb00_beta5_exhaustive():
    inst = gen_lb00(5, 2)
    rep = check_axioms(inst.utilities[0], inst.candidates)
    assert rep.ok and rep.exhaustive and rep.checked == 2**12


def test_check_axioms_limit_and_sampling():
    u = AdditiveUtility({c: Fraction(1, 2) for c in range(25)})
    with pytest.raises(EnumerationLimitError):
        check_axioms(u, range(25))
    rep = check_axioms(u, range(25), sample_budget=50, seed=7)
    assert rep.ok and not rep.exhaustive and rep.checked == 50


def test_self_bounding_additive_is_exactly_one():
    for seed in range(30):
        rng = rng_from_seed(seed)
        u = random_utility("additive", range(5), rng)
        if all(w == 0 for w in u.weights.values()) or not u.weights:
            continue
        assert self_bounding_constant(u, range(5)) == 1


def test_self_bounding_xos_example_at_most_one():
    inst = gen_xos_example(3)
    assert self_bounding_constant(inst.utilities[0], inst.candidates) <= 1


def test_self_bounding_lb00_at_most_beta():
    inst = gen_lb00(5, 2)
    assert self_bounding_constant(inst.utilities[0], inst.candidates) <= 5


def test_self_bounding_zero_function():
    u = AdditiveUtility({})
    assert self_bounding_constant(u, range(4)) == 0


def test_submodular_coverage_passes():
    u = CoverageUtility({0: [0, 1], 1: [1, 2], 2: [3]}, {e: Fraction(1, 4) for e in range(4)})
    ok, witness = check_submodular(u, [0, 1, 2])
    assert ok and witness is None


def test_submodular_additive_passes():
    u = AdditiveUtility({0: Fraction(1, 3), 1: Fraction(2, 3)})
    ok, _ = check_submodular(u, [0, 1])
    assert ok


def test_submodular_xos_example_fails_with_witness():
    inst = gen_xos_example(2)
    u = inst.utilities[0]
    ok, witness = check_submodular(u, inst.candidates)
    assert not ok
    T1, T2, j = witness
    assert T1 <= T2 and j in T1
    # the witness replays: marginal in the smaller set is strictly below
    assert u.value(T1) - u.value(T1 - {j}) < u.value(T2) - u.value(T2 - {j})


def test_all_random_kinds_pass_axioms():
    for kind in ("approval", "additive", "coverage", "xos"):
        for seed in range(25):
            rng = rng_from_seed(1000 + seed)
            u = random_utility(kind, range(6), rng)
            rep = check_axioms(u, range(6))
            assert rep.ok, (kind, seed)


def test_evaluate_matches_naive_reevaluation():
    # 1000 random (utility, subset) pairs against an independent evaluator
    count = 0
    seed = 0
    while count < 1000:
        rng = rng_from_seed(2000 + seed)
        seed += 1
        kind = ("approval", "additive", "coverage", "xos")[seed % 4]
        u = random_utility(kind, range(6), rng)
        T = frozenset(int(c) for c in rng.permutation(6)[: int(rng.integers(0, 7))])
        assert evaluate(u, T) == naive_value(u, T)
        count += 1


def test_lb00_evaluate_matches_naive():
    inst = gen_lb00(5, 2)
    rng = rng_from_seed(42)
    for _ in range(200):
        T = frozenset(int(c) for c in rng.permutation(12)[: int(rng.integers(0, 13))])
        for u in inst.utilities:
            assert evaluate(u, T) == naive_value(u, T)


def test_instance_mode_validation():
    u = ApprovalUtility([0])
    with pytest.raises(ValueError):
        Instance([0, 1], [u])  # neither mode
    with pytest.raises(ValueError):
        Instance([0, 1], [u], k=1, sizes={0: 1, 1: 1}, budget=2)
    inst = Instance([0, 1], [u], sizes={0: 1, 1: 2}, budget=2)
    assert not inst.is_k_mode
    assert inst.cost({0, 1}) == 3


def test_instance_checks_axioms_on_construction():
    bad = TableUtility({frozenset({0}): 1, frozenset({1}): 1, frozenset({0, 1}): 0})
    with pytest.raises(MalformedUtilityError):
        Instance([0, 1], [bad], k=1, validate="check")
    Instance([0, 1], [bad], k=1, validate="trust")  # allowed when trusted


def test_additive_rejects_weight_above_one():
    with pytest.raises(MalformedUtilityError):
        AdditiveUtility({0: Fraction(3, 2)})


def test_coverage_rejects_per_candidate_weight_above_one():
    with pytest.raises(MalformedUtilityError):
        CoverageUtility({0: [0, 1]}, {0: Fraction(3, 4), 1: Fraction(1, 2)})


def test_xos_rejects_weight_outside_unit_interval():
    with pytest.raises(MalformedUtilityError):
        XOSUtility([{0: Fraction(5, 4)}])


# -- integer-scaled oracles: value(T) is the exact Fraction the weights give --

UNIVERSE = range(6)
ALL_SUBSETS = [frozenset(c for c in UNIVERSE if mask >> c & 1) for mask in range(1 << 6)]


def _weights(max_weight=Fraction(1)):
    """Rationals in [0, max_weight] over denominators up to 97, with 0 and 1 common."""
    drawn = st.integers(1, 97).flatmap(
        lambda d: st.integers(0, int(max_weight * d)).map(lambda n: Fraction(n, d))
    )
    return st.one_of(st.just(Fraction(0)), st.just(min(Fraction(1), max_weight)), drawn)


def _candidate_weights():
    return st.dictionaries(st.sampled_from(UNIVERSE), _weights(), max_size=6)


def _assert_matches_naive(u):
    for T in ALL_SUBSETS:
        v = u.value(T)
        assert type(v) is Fraction and v == naive_value(u, T), (u, sorted(T))


_settings = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@_settings
@given(_candidate_weights())
def test_scaled_additive_matches_naive(weights):
    _assert_matches_naive(AdditiveUtility(weights))


@_settings
@given(st.lists(_candidate_weights(), min_size=1, max_size=4))
def test_scaled_xos_matches_naive(clauses):
    _assert_matches_naive(XOSUtility(clauses))


@_settings
@given(
    st.dictionaries(
        st.sampled_from(UNIVERSE), st.frozensets(st.integers(0, 7), max_size=3), max_size=6
    ),
    st.dictionaries(st.integers(0, 5), _weights(Fraction(1, 3)), max_size=6),
)
@example({0: frozenset({0}), 1: frozenset({0, 6}), 2: frozenset()}, {0: Fraction(1), 1: 0})
def test_scaled_coverage_matches_naive(covers, element_weights):
    # elements 6 and 7 can be covered but never carry a weight
    _assert_matches_naive(CoverageUtility(covers, element_weights))


def test_scaled_oracles_keep_their_fraction_fields():
    u = XOSUtility([{0: Fraction(1, 2), 1: 0}, {1: Fraction(2, 3), 2: 1}])
    assert u.clauses == [{0: Fraction(1, 2)}, {1: Fraction(2, 3), 2: Fraction(1)}]
    assert u.value({0, 1}) == Fraction(2, 3) and u.value({1, 2}) == Fraction(5, 3)
    assert XOSUtility([dict(cl) for cl in u.to_json()["clauses"]]) == u
    assert AdditiveUtility({}).value({0, 1}) == 0
