import copy
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corelect.errors import (
    EnumerationLimitError,
    MalformedUtilityError,
    mask_array,
    member_matrix,
    words,
)
from corelect.exactnum import Quad, exact_ceil
from corelect.instances import gen_lb00, gen_xos_example, random_utility, rng_from_seed
from corelect.model import (
    AdditiveUtility,
    ApprovalUtility,
    CoverageUtility,
    Instance,
    LB00Utility,
    RationalUtility,
    TableUtility,
    UtilityFunction,
    XOSUtility,
    check_axioms,
    check_submodular,
    evaluate,
    evaluate_masks,
    exact_measure,
    gain_threshold,
    meets_threshold,
    self_bounding_constant,
    _layers,
    _SubsetTable,
)
from corelect.sampling import exact_sample_expectation, mc_lower_tail, verify_sampling_bound

from oracles import naive_value, oracle_sample_expectation, oracle_self_bounding_constant


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
    # the same value, type and repr as the naive Quad arithmetic, odd and even beta
    rng = rng_from_seed(42)
    for beta, r in ((5, 2), (6, 2), (7, 3)):
        inst = gen_lb00(beta, r)
        for _ in range(200):
            size = int(rng.integers(0, 6 * r + 1))
            T = frozenset(int(c) for c in rng.permutation(6 * r)[:size])
            for u in inst.utilities:
                _assert_same(evaluate(u, T), naive_value(u, T))


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
        t = u.numerator(T)
        assert type(t) is int and Fraction(t, u.scale) == v


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


def test_table_and_approval_integer_forms():
    u = TableUtility({(0,): Fraction(1, 3), (1,): Fraction(1, 2), (0, 1): Fraction(3, 4)})
    assert u.scale == 12
    assert [u.numerator(T) for T in ([], [0], [1], [0, 1])] == [0, 4, 6, 9]
    assert u.value({0, 1}) == Fraction(3, 4)
    with pytest.raises(MalformedUtilityError):
        u.numerator({2})
    a = ApprovalUtility([1, 3])
    assert a.scale == 1 and a.numerator([1, 2, 3]) == 2 and a.value({1}) == 1


# the gammas the verifiers meet: 1, the 16/15 bound, 3/2, 2 and the CLI's e^1
GAMMAS = (1, Fraction(16, 15), Fraction(3, 2), 2, Fraction(5436563657, 2000000000))


@pytest.mark.parametrize("kind", ["approval", "additive", "coverage", "xos", "lb00"])
def test_gain_threshold_decides_the_exact_inequality(kind):
    if kind == "lb00":
        oracles = gen_lb00(5, 1).utilities[:2]
        universe = range(6)
    else:
        rng = rng_from_seed(4242)
        universe = range(5)
        oracles = [random_utility(kind, universe, rng) for _ in range(4)]
    subsets = [frozenset(c for c in universe if mask >> c & 1) for mask in range(1 << len(universe))]
    for u in oracles:
        for W in subsets[::3]:
            for gamma in GAMMAS:
                need = gamma * (u.value(W) + 1)
                measure, bar = gain_threshold(u, W, gamma)
                for T in subsets:
                    assert (measure(T) >= bar) == (u.value(T) >= need), (u, W, gamma, T)


def test_gain_threshold_ties_at_the_bar():
    # u(T) = 3/2 equals (3/2) * (0 + 1) exactly; one 1/12 less misses it
    u = AdditiveUtility({0: 1, 1: Fraction(1, 2), 2: Fraction(5, 12)})
    measure, bar = gain_threshold(u, set(), Fraction(3, 2))
    assert (u.scale, bar) == (12, 18)
    assert measure({0, 1}) >= bar and not measure({0, 2}) >= bar


# -- the exhaustive sweeps read one subset table; the naive loops are the reference --

SWEEP_KINDS = ("approval", "additive", "coverage", "xos")
_sweep_settings = settings(max_examples=120, deadline=None, derandomize=True, database=None)


def _universes(max_size=6):
    return st.sets(st.integers(0, 20), max_size=max_size).map(sorted)


@st.composite
def _random_kind(draw, max_size=6):
    universe = draw(_universes(max_size))
    rng = rng_from_seed(draw(st.integers(0, 2**31)))
    return random_utility(draw(st.sampled_from(SWEEP_KINDS)), universe, rng), universe


@st.composite
def _injected_table(draw):
    """A full table of an additive oracle with every weight in [1/2, 1], and
    one entry moved: to 0 (a monotone violation) or up by 2 (Lipschitz)."""
    universe = draw(_universes().filter(lambda U: len(U) >= 2))
    weights = {c: Fraction(draw(st.integers(4, 8)), 8) for c in universe}
    entries = {S: naive_value(AdditiveUtility(weights), S) for S in _power_set(universe)}
    S = draw(st.sampled_from(sorted((S for S in entries if len(S) >= 2), key=sorted)))
    entries[S] = 0 if draw(st.booleans()) else entries[S] + 2
    return TableUtility(entries), universe


@st.composite
def _lb00_voter(draw):
    beta = draw(st.sampled_from((5, 6, 7)))
    u = gen_lb00(beta, 2).utilities[draw(st.integers(0, 5))]
    return u, sorted(draw(st.sets(st.integers(0, 11), max_size=7)))


class _QuadTable(UtilityFunction):
    """Explicit values a + b*sqrt(2), monotone and Lipschitz or not; the
    naive oracles read it as a table."""

    kind = "table"

    def __init__(self, entries):
        self.entries = entries

    def value(self, T):
        return self.entries[T] if T else Fraction(0)


@st.composite
def _quad_table(draw):
    universe = sorted(draw(st.sets(st.integers(0, 9), max_size=4)))
    half = st.integers(-2, 4).map(lambda k: Fraction(k, 2))
    root2 = Quad.sqrt(Fraction(2))
    entries = {S: draw(half) + draw(half) * root2 for S in _power_set(universe) if S}
    return _QuadTable(entries), universe


def _power_set(universe):
    return [
        frozenset(c for i, c in enumerate(universe) if mask >> i & 1)
        for mask in range(1 << len(universe))
    ]


def _all_zero():
    tables = _universes().map(lambda U: (TableUtility({S: 0 for S in _power_set(U)}), U))
    return st.one_of(_universes().map(lambda U: (AdditiveUtility({}), U)), tables)


def _assert_same(got, want):
    assert type(got) is type(want) and got == want and str(got) == str(want), (got, want)


def _witness(w):
    return None if w is None else (w.subset, w.candidate)


@_sweep_settings
@given(
    st.one_of(_random_kind(), _injected_table(), _lb00_voter(), _quad_table(), _all_zero()),
    st.sampled_from([Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(7, 8)]),
    st.integers(0, 2**31),
)
def test_sweeps_match_naive_oracles(case, alpha, seed):
    from corelect.exactnum import exact_ceil
    from corelect.sampling import exact_sample_expectation, mc_lower_tail, verify_sampling_bound

    from oracles import (
        oracle_axioms,
        oracle_lower_tail_hits,
        oracle_sample_expectation,
        oracle_self_bounding_constant,
    )

    u, universe = case
    rep = check_axioms(u, universe)
    mono_w, lip_w, checked = oracle_axioms(u, universe)
    assert rep.exhaustive and rep.checked == checked
    assert (rep.monotone, _witness(rep.monotone_witness)) == (mono_w is None, mono_w)
    assert (rep.lipschitz, _witness(rep.lipschitz_witness)) == (lip_w is None, lip_w)
    if isinstance(u, TableUtility) and any(u.entries.values()):
        assert not rep.ok  # the injected entry is found

    bstar = self_bounding_constant(u, universe)
    _assert_same(bstar, oracle_self_bounding_constant(u, universe))

    expectation = oracle_sample_expectation(u, universe, alpha)
    _assert_same(exact_sample_expectation(u, universe, alpha), expectation)

    beta = max(1, exact_ceil(bstar))
    holds = expectation >= alpha**beta * naive_value(u, universe)
    assert verify_sampling_bound(u, universe, alpha, beta) is holds
    if bstar > 1:
        with pytest.raises(ValueError):
            verify_sampling_bound(u, universe, alpha, 1)

    delta, trials = Fraction(1, 2), 40
    for given_beta in (beta, None):
        tail = mc_lower_tail(u, universe, alpha, delta, trials, seed, beta=given_beta)
        hits = oracle_lower_tail_hits(u, universe, alpha, delta, trials, seed)
        assert tail.empirical == Fraction(hits, trials) and tail.mu0_exact
        _assert_same(tail.mu0, expectation)
        _assert_same(tail.threshold, (1 - delta) * expectation)
    _assert_same(tail.beta, bstar if bstar >= 1 else Fraction(1))


def test_sweeps_evaluate_only_the_subsets_they_reach():
    from corelect.sampling import exact_sample_expectation, mc_lower_tail, verify_sampling_bound

    # alpha 0 and 1 weigh only the empty set and the whole of T
    u = TableUtility({frozenset({0, 1, 2}): Fraction(3, 2)})
    assert exact_sample_expectation(u, [0, 1, 2], 1) == Fraction(3, 2)
    assert exact_sample_expectation(u, [0, 1, 2], 0) == 0
    for alpha, mu0 in ((1, Fraction(3, 2)), (0, Fraction(0))):
        tail = mc_lower_tail(u, [0, 1, 2], alpha, Fraction(1, 2), 50, seed=3, beta=1)
        assert tail.mu0 == mu0 and tail.empirical == (0 if alpha else 1)
    with pytest.raises(MalformedUtilityError, match=r"\[0\]"):
        exact_sample_expectation(u, [0, 1, 2], Fraction(1, 2))
    with pytest.raises(MalformedUtilityError, match=r"\[0\]"):
        verify_sampling_bound(u, [0, 1, 2], 1, beta=1)
    with pytest.raises(MalformedUtilityError, match=r"\[0\]"):
        mc_lower_tail(u, [0, 1, 2], 1, Fraction(1, 2), 50, seed=3)

    # both axioms fail at T = {0}, so the scan stops before {1, 2} and {0, 1, 2}
    partial = {
        frozenset({0}): 2, frozenset({1}): 0, frozenset({2}): 0,
        frozenset({0, 1}): 1, frozenset({0, 2}): 2,
    }
    rep = check_axioms(TableUtility(partial), [0, 1, 2])
    assert rep.checked == 2
    assert _witness(rep.lipschitz_witness) == (frozenset({0}), 0)
    assert _witness(rep.monotone_witness) == (frozenset({0, 1}), 1)
    # the first missing subset the scan reaches is the one named
    partial[frozenset({0})] = 1
    with pytest.raises(MalformedUtilityError, match=r"\[1, 2\]"):
        check_axioms(TableUtility(partial), [0, 1, 2])


def test_axiom_scan_evaluates_no_layer_past_its_early_break():
    # u({0}) = 2 breaks the Lipschitz bound and u({0, 1}) = 1 < u({0})
    # monotonicity, so the scan over 12 candidates stops at T = {0}: it
    # evaluates the sizes 0, 1 and 2 (1 + 12 + 66 subsets), not all 4096
    calls = []

    class Spiked(UtilityFunction):
        def value(self, T):
            calls.append(T)
            return Fraction(2) if T == {0} else Fraction(len(T), 2)

    rep = check_axioms(Spiked(), range(12))
    assert rep.checked == 2
    assert _witness(rep.lipschitz_witness) == (frozenset({0}), 0)
    assert _witness(rep.monotone_witness) == (frozenset({0, 1}), 1)
    assert len(calls) == 1 + 12 + 66 and len(set(calls)) == len(calls)


def _growing(universe):
    """u(T) = |T| / (|T| + 2), read by value: each size layer brings a new
    denominator, so a subset table's common denominator grows with the
    layers it fills."""
    return _QuadTable({S: Fraction(len(S), len(S) + 2) for S in _power_set(universe)})


def _sweep_calls(u, universe, beta):
    """The exhaustive sweeps of one oracle, by name, each returning a
    comparable result; mean0 and tail1 fill one size layer only."""
    third, half = Fraction(1, 3), Fraction(1, 2)

    def axioms():
        rep = check_axioms(u, universe)
        return rep.monotone, _witness(rep.monotone_witness), rep.lipschitz, rep.checked

    return {
        "axioms": axioms,
        "beta*": lambda: repr(self_bounding_constant(u, universe)),
        "bound": lambda: verify_sampling_bound(u, universe, half, beta),
        "tail": lambda: mc_lower_tail(u, universe, third, half, 40, seed=5).to_json(),
        "mean0": lambda: repr(exact_sample_expectation(u, universe, 0)),
        "tail1": lambda: mc_lower_tail(u, universe, 1, half, 40, seed=5, beta=beta).to_json(),
    }


@pytest.mark.parametrize("kind", ["xos", "lb00", "growing"])
def test_shared_table_gives_fresh_results_in_every_call_order(kind):
    import itertools

    from oracles import oracle_axioms, oracle_self_bounding_constant

    if kind == "xos":
        universe = list(range(5))
        make = lambda: random_utility("xos", universe, rng_from_seed(11))  # noqa: E731
    elif kind == "lb00":
        universe, lb = list(range(7)), gen_lb00(5, 2).utilities[1]
        make = lambda: type(lb)(lb.beta, lb.r, lb.role, lb.party_of)  # noqa: E731
    else:
        universe = list(range(4))
        make = lambda: _growing(universe)  # noqa: E731
    bstar = oracle_self_bounding_constant(make(), universe)
    beta = max(1, exact_ceil(bstar))
    # each sweep alone, on an oracle object no other call has seen
    names = _sweep_calls(None, (), 1)
    fresh = {name: _sweep_calls(make(), universe, beta)[name]() for name in names}
    assert fresh["beta*"] == repr(bstar)
    mono_w, _, checked = oracle_axioms(make(), universe)
    assert fresh["axioms"] == (mono_w is None, mono_w, True, checked)
    for order in itertools.permutations(["axioms", "beta*", "bound", "tail"]):
        calls = _sweep_calls(make(), universe, beta)
        for name in ("mean0", "tail1", *order, "tail1", "mean0"):
            assert calls[name]() == fresh[name], (order, name)


def test_sweeps_of_one_oracle_evaluate_each_subset_once():
    evaluated = []

    class Counted(AdditiveUtility):
        def numerator(self, T):
            evaluated.append(T)
            return super().numerator(T)

    u = Counted({0: Fraction(1, 2), 1: Fraction(1, 3), 2: 1, 3: Fraction(3, 4), 4: 0})
    calls = _sweep_calls(u, range(5), 1)
    for name in ("axioms", "beta*", "bound", "tail", "mean0", "tail1"):
        calls[name]()
    assert len(evaluated) == len(set(evaluated)) == 2**5


def test_only_the_most_recent_subset_table_is_kept():
    import gc
    import weakref

    first = AdditiveUtility({c: Fraction(1, 2) for c in range(6)})
    ref = weakref.ref(first)
    self_bounding_constant(first, range(6))
    del first
    gc.collect()
    assert ref() is not None  # its table is kept for a next sweep of it
    self_bounding_constant(AdditiveUtility({0: 1}), range(6))
    gc.collect()
    assert ref() is None


def test_the_kept_subset_table_is_freed_before_the_next_is_built():
    # two equal oracle objects, so two tables of one size: while the second
    # is built, the first is gone, and not even its two columns of 2^12
    # entries are held beside it
    import tracemalloc

    first, second = (random_utility("additive", range(12), rng_from_seed(1)) for _ in range(2))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        self_bounding_constant(first, range(12))
        kept = tracemalloc.get_traced_memory()[0] - start
        tracemalloc.reset_peak()
        self_bounding_constant(second, range(12))
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < kept + 8 * 2**12, (peak, kept)


def test_shared_table_raises_the_same_error_on_every_call():
    # {1} and the whole set have no entry; an alpha = 1 sample needs only
    # the whole set, every other sweep meets {1} first
    entries = {S: Fraction(len(S), 3) for S in _power_set([0, 1, 2]) if S}
    del entries[frozenset({1})], entries[frozenset({0, 1, 2})]

    def sweeps(u):
        return {
            "whole": lambda: exact_sample_expectation(u, [0, 1, 2], 1),
            "axioms": lambda: check_axioms(u, [0, 1, 2]),
            "beta*": lambda: self_bounding_constant(u, [0, 1, 2]),
            "mean": lambda: exact_sample_expectation(u, [0, 1, 2], Fraction(1, 2)),
            "mean0": lambda: exact_sample_expectation(u, [0, 1, 2], 0),
        }

    def outcome(call):
        try:
            return repr(call())
        except MalformedUtilityError as exc:
            return str(exc)

    fresh = {name: outcome(sweeps(TableUtility(entries))[name]) for name in sweeps(None)}
    assert fresh["whole"].endswith("[0, 1, 2]") and fresh["beta*"].endswith("[1]")
    assert fresh["mean0"] == repr(Fraction(0))
    calls = sweeps(TableUtility(entries))
    for name in ("whole", "axioms", "beta*", "mean", "mean0", "whole", "beta*", "axioms"):
        assert outcome(calls[name]) == fresh[name], name


def test_expectations_kept_on_a_table_follow_its_growing_denominator():
    # alpha = 0 and 1 fill one layer each (den 3); the full fill at
    # alpha = 1/2 then grows den to 30, which each kept expectation must follow
    universe, half = range(4), Fraction(1, 2)
    u = _growing(universe)
    assert exact_sample_expectation(u, universe, 0) == 0
    assert exact_sample_expectation(u, universe, 1) == Fraction(2, 3)
    assert verify_sampling_bound(u, universe, half, 1)
    assert exact_sample_expectation(u, universe, half) == oracle_sample_expectation(
        u, universe, half
    )
    assert verify_sampling_bound(u, universe, 1, 1) and verify_sampling_bound(u, universe, 0, 1)
    tail = mc_lower_tail(u, universe, 1, half, 40, seed=5, beta=1)
    assert tail.mu0 == Fraction(2, 3) and tail.empirical == 0
    assert exact_sample_expectation(u, universe, 1) == Fraction(2, 3)


def test_subset_table_reads_a_rational_oracle_by_numerator():
    # one integer numerator per subset and no Fraction value; the result is unchanged
    calls = {"numerator": 0, "value": 0}

    class Counted(AdditiveUtility):
        def numerator(self, T):
            calls["numerator"] += 1
            return super().numerator(T)

        def value(self, T):
            calls["value"] += 1
            return super().value(T)

    u = Counted({0: Fraction(1, 2), 1: Fraction(1, 3), 2: 1, 3: Fraction(3, 4)})
    assert self_bounding_constant(u, range(4)) == Fraction(1)
    assert calls == {"numerator": 2**4, "value": 0}


@pytest.mark.parametrize(
    "u1, u01, beta, holds",
    [((-1, 1), (-1, -1), 1, True), ((Fraction(-1, 2), -1), (2, 1), 4, False)],
)
def test_sampling_bound_verdict_turns_on_the_sqrt_part(u1, u01, beta, holds):
    # u = a + b*sqrt(2) on {0, 1}; the rational parts alone give the other verdict
    from corelect.sampling import verify_sampling_bound

    root2 = Quad.sqrt(Fraction(2))
    entries = {
        frozenset({0}): -1 - root2,
        frozenset({1}): u1[0] + u1[1] * root2,
        frozenset({0, 1}): u01[0] + u01[1] * root2,
    }
    u = _QuadTable(entries)
    assert verify_sampling_bound(u, [0, 1], Fraction(1, 2), beta) is holds


# -- the vectorised table fill against the per-subset path that defines it --


def _per_subset_twin(u):
    """A copy of u whose class overrides its evaluation method, so that a
    subset table evaluates it one subset at a time."""
    name = "numerator" if isinstance(u, RationalUtility) else "value"
    method = getattr(type(u), name)
    twin = copy.copy(u)
    twin.__class__ = type("PerSubset", (type(u),), {name: lambda self, T: method(self, T)})
    return twin


# pairwise coprime denominators near 2^20: a few weights over them push a
# table's integers past the int64 bound
_WIDE = (1_000_003, 1_000_033, 1_000_037, 1_000_039, 999_983, 999_979)


@st.composite
def _lb00_any_beta(draw):
    r = draw(st.sampled_from((1, 2, 3)))
    like = gen_lb00(5, r).utilities[draw(st.integers(0, 5))]
    beta = draw(st.sampled_from((2, 3, 5, 6, 7, 9)))
    u = LB00Utility(beta, r, like.role, like.party_of)
    return u, sorted(draw(st.sets(st.integers(0, 6 * r - 1), max_size=7)))


@st.composite
def _wide_weights(draw):
    universe = draw(_universes(max_size=6).filter(bool))

    def weight():
        return Fraction(draw(st.integers(0, 2**19)), draw(st.sampled_from(_WIDE)))

    kind = draw(st.sampled_from(("additive", "xos", "coverage")))
    if kind == "additive":
        return AdditiveUtility({c: weight() for c in universe}), universe
    if kind == "xos":
        clauses = [{c: weight() for c in universe} for _ in range(draw(st.integers(1, 3)))]
        return XOSUtility(clauses), universe
    covers = {c: [c, c + 1] for c in universe}
    elements = {e: weight() / 2 for c in universe for e in covers[c]}
    return CoverageUtility(covers, elements), universe


def _outcome(call):
    try:
        result = call()
    except MalformedUtilityError as exc:
        return "error", str(exc)
    return type(result).__name__, repr(result)


def _sweep_outcomes(u, universe, seed):
    def axioms():
        rep = check_axioms(u, universe)
        return rep.monotone, _witness(rep.monotone_witness), rep.lipschitz, rep.checked

    calls = {"axioms": axioms, "beta*": lambda: self_bounding_constant(u, universe)}
    for alpha in (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(2, 3)):
        calls[f"mean {alpha}"] = lambda a=alpha: exact_sample_expectation(u, universe, a)
        calls[f"bound {alpha}"] = lambda a=alpha: verify_sampling_bound(u, universe, a, 3)
        calls[f"tail {alpha}"] = lambda a=alpha: mc_lower_tail(
            u, universe, a, Fraction(1, 2), 40, seed
        ).to_json()
    return {name: _outcome(call) for name, call in calls.items()}


def _table_fields(u, universe, order):
    table = _SubsetTable(u, universe)
    for size in order:
        table.fill((size,))
    columns = (table.rat.tolist(), table.irr.tolist(), table.rat.dtype, table.irr.dtype)
    errors = [(mask, str(exc)) for mask, exc in table.errors.items()]
    return columns, table.den, table.radicand, errors


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    st.one_of(_random_kind(), _lb00_any_beta(), _wide_weights()),
    st.randoms(use_true_random=False),
    st.integers(0, 2**31),
)
def test_vectorised_tables_equal_the_per_subset_path(case, random, seed):
    u, universe = case
    order = list(range(len(universe) + 1))
    random.shuffle(order)
    twin = _per_subset_twin(u)
    assert _table_fields(u, universe, order) == _table_fields(twin, universe, order)
    assert _sweep_outcomes(u, universe, seed) == _sweep_outcomes(twin, universe, seed)


@st.composite
def _partial_table(draw):
    """A table over at most 8 candidates that lacks a few entries."""
    universe = draw(_universes(max_size=8))
    subsets = [S for S in _power_set(universe) if S]
    missing = draw(st.sets(st.sampled_from(subsets), max_size=3)) if subsets else set()
    values = st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1), Fraction(5, 2)])
    return TableUtility({S: draw(values) for S in subsets if S not in missing}), universe


def _measures(codes, values, errors):
    return codes.tolist() if values is None else [values[c] for c in codes.tolist()], errors


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.one_of(_random_kind(max_size=8), _lb00_any_beta(), _wide_weights(), _partial_table()))
def test_kernels_evaluate_masks_as_the_mask_by_mask_path(case):
    # the twin has no kernel; Python-int masks go through the same kernels
    u, universe = case
    twin = _per_subset_twin(u)
    measure = exact_measure(u)
    gains = {gain_threshold(u, (), gamma)[1] for gamma in (Fraction(1), Fraction(16, 15))}
    committees = _power_set(universe)
    for masks in _layers(len(universe)):
        got, errors = _measures(*evaluate_masks(u, universe, masks))
        want, twin_errors = _measures(*evaluate_masks(twin, universe, masks))
        assert got == want == _measures(*evaluate_masks(u, universe, masks.astype(object)))[0]
        assert errors.keys() == twin_errors.keys()
        assert [str(exc) for exc in errors.values()] == [str(e) for e in twin_errors.values()]
        for j, T in enumerate(committees[x] for x in masks.tolist()):
            if j not in errors:
                assert got[j] == measure(T)
        # a measure as the bar is a tie; at odd beta lb00's bars are Quads
        for bar in gains | {got[j] for j in range(len(got)) if j not in errors}:
            for strict in (False, True):
                ok, failed = meets_threshold(u, universe, masks, bar, strict)
                twin_ok, _ = meets_threshold(twin, universe, masks, bar, strict)
                expected = [
                    j not in errors and (v > bar if strict else v >= bar) for j, v in enumerate(got)
                ]
                assert ok.tolist() == twin_ok.tolist() == expected
                assert failed.keys() == errors.keys()


def test_masks_of_two_words_read_as_words_and_members():
    m = 70
    values = [0, 1, (1 << 63) | 2, 1 << 64, (1 << 70) - 1, (1 << 69) | (1 << 5)]
    masks = mask_array(values, m)
    low = (1 << 64) - 1
    assert words(masks, m).tolist() == [[x & low, x >> 64] for x in values]
    rows = [[x >> i & 1 for i in range(m)] for x in values]
    assert member_matrix(words(masks, m), m).tolist() == rows
    # int64 masks read as one word, in place
    narrow = mask_array([0, 5, (1 << 62) | 1], 63)
    assert words(narrow, 63).tolist() == [[0], [5], [(1 << 62) | 1]]
    assert np.shares_memory(words(narrow, 63), narrow)
    assert member_matrix(words(narrow, 3), 3).tolist() == [[0, 0, 0], [1, 0, 1], [1, 0, 0]]


def _two_word_oracles():
    """Oracles of every kind with a kernel, on candidates in both words of
    a 70-bit mask."""
    third = Fraction(1, 3)
    covers = {c: {c % 5, 5 + c % 2} for c in range(0, 70, 3)}
    oracles = {
        "approval": ApprovalUtility({0, 63, 64, 69}),
        "additive": AdditiveUtility({0: 1, 63: Fraction(1, 2), 64: third, 69: Fraction(3, 4)}),
        "xos": XOSUtility([{0: 1, 64: Fraction(1, 2)}, {63: third, 65: 1, 69: 1}]),
        "coverage": CoverageUtility(covers, dict.fromkeys(range(7), Fraction(1, 7))),
    }
    for beta in (1, 3):
        for i, u in enumerate(gen_lb00(5, 11).utilities[:2]):
            oracles[f"lb00 beta={beta} voter {i}"] = LB00Utility(beta, 11, u.role, u.party_of)
    return oracles


@pytest.mark.parametrize("name", list(_two_word_oracles()))
def test_kernels_read_masks_of_two_words_as_the_mask_by_mask_path(name):
    u = _two_word_oracles()[name]
    universe = list(range(70))
    twin = _per_subset_twin(u)
    for masks in _layers(70, 2):
        got = _measures(*evaluate_masks(u, universe, masks))
        assert got == _measures(*evaluate_masks(twin, universe, masks))
        assert len(set(got[0])) > 1 or len(masks) == 1


@pytest.mark.parametrize("m", [3, 70])
@pytest.mark.parametrize("name", list(_two_word_oracles()))
def test_kernels_evaluate_an_empty_mask_array(name, m):
    u = _two_word_oracles()[name]
    empty = mask_array([], m)
    assert _measures(*evaluate_masks(u, range(m), empty)) == ([], {})
    assert _measures(*evaluate_masks(_per_subset_twin(u), range(m), empty)) == ([], {})


def test_the_subset_table_switches_to_exact_ints_past_the_int64_bound():
    # weights over three coprime denominators near 2^20: den is near 2^60
    universe = [0, 1, 2]
    u = AdditiveUtility({c: Fraction(1, d) for c, d in zip(universe, _WIDE)})
    table = _SubsetTable(u, universe)
    table.fill(range(4))
    assert table.rat.dtype == object and table.den == _WIDE[0] * _WIDE[1] * _WIDE[2]
    assert self_bounding_constant(u, universe) == 1
    assert self_bounding_constant(AdditiveUtility({0: Fraction(1, 2)}), universe) == 1
    # one denominator 2^28 fits int64, but eight weights near 1 sum past the bound
    universe = list(range(8))
    u = AdditiveUtility({c: Fraction(2**28 - 1, 2**28) for c in universe})
    table = _SubsetTable(u, universe)
    table.fill(range(9))
    assert table.den == 2**28 and table.rat.dtype == object
    assert self_bounding_constant(u, universe) == 1 and check_axioms(u, universe).ok


@pytest.mark.parametrize("vectorised", [True, False])
def test_a_growing_denominator_crosses_the_int64_bound_mid_fill(vectorised):
    # lb00 at beta = 9, r = 2: each new pair of party counts brings a larger
    # denominator, so den outgrows int64 layer by layer
    like = gen_lb00(5, 2).utilities[0]
    u = LB00Utility(9, 2, like.role, like.party_of)
    if not vectorised:
        u = _per_subset_twin(u)
    universe = list(range(6))
    table = _SubsetTable(u, universe)
    table.fill((0, 1))
    assert table.rat.dtype == np.int64
    table.fill(range(7))
    assert table.rat.dtype == table.irr.dtype == object
    rep = check_axioms(u, universe)
    assert (rep.monotone, rep.lipschitz, rep.checked) == (True, True, 2**6)
    assert self_bounding_constant(u, universe) == oracle_self_bounding_constant(u, universe)
    half = Fraction(1, 2)
    assert exact_sample_expectation(u, universe, half) == oracle_sample_expectation(
        u, universe, half
    )


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_universes(max_size=5).filter(lambda U: len(U) >= 2), st.data())
def test_table_sweeps_with_missing_entries_match_the_naive_scans(universe, data):
    # a table oracle is read subset by subset; with entries that may break
    # either axiom, the sweeps over its table find the naive scans'
    # witnesses, or name the missing subset those scans meet first
    from oracles import oracle_axioms

    subsets = [S for S in _power_set(universe) if S]
    missing = data.draw(st.sets(st.sampled_from(subsets), max_size=3))
    values = st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1), Fraction(5, 2)])
    u = TableUtility({S: data.draw(values) for S in subsets if S not in missing})

    def outcome(call):
        # the naive scans read u.entries, so a missing entry is a KeyError there
        try:
            result = call()
        except MalformedUtilityError as exc:
            return "error", str(exc)
        except KeyError as exc:
            return "error", f"table has no entry for {sorted(exc.args[0])}"
        return type(result), result

    def library_axioms():
        rep = check_axioms(u, universe)
        return _witness(rep.monotone_witness), _witness(rep.lipschitz_witness), rep.checked

    half = Fraction(1, 2)
    assert outcome(library_axioms) == outcome(lambda: oracle_axioms(u, universe))
    bstar = outcome(lambda: oracle_self_bounding_constant(u, universe))
    assert outcome(lambda: self_bounding_constant(u, universe)) == bstar
    mean = outcome(lambda: oracle_sample_expectation(u, universe, half))
    assert outcome(lambda: exact_sample_expectation(u, universe, half)) == mean
    if bstar[0] == "error":
        # beta* comes first and reads every subset
        assert outcome(lambda: verify_sampling_bound(u, universe, half, 3)) == bstar


def test_beta_star_reads_every_chunk_of_a_wide_table():
    # 10 members: beta* reads the table in four chunks, and each T - {j}
    # across a chunk border lies in an earlier chunk
    universe = list(range(10))
    like = gen_lb00(5, 2).utilities[1]
    oracles = [
        random_utility(kind, universe, rng_from_seed(7)) for kind in ("additive", "xos")
    ] + [LB00Utility(beta, 2, like.role, like.party_of) for beta in (6, 7)]
    for u in oracles:
        _assert_same(self_bounding_constant(u, universe), oracle_self_bounding_constant(u, universe))
