import functools
import itertools
import math
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corelect.errors import ParameterError
from corelect.instances import rng_from_seed
import corelect.lb_search as lb_search
from corelect.lb_search import (
    _blocking_coalition_exists,
    _class_iter,
    _class_runs,
    _cover_feasible,
    _cover_feasible_second_opinion,
    _min_cover,
    _ReplyLayers,
    _targets,
    _utilities,
    lb1_emptiness_search,
    verify_passing_class,
)
import oracles
from oracles import (
    K4_EDGES,
    oracle_blocking_coalition,
    oracle_cover_feasible,
    oracle_emptiness_scan,
    oracle_hat_iter,
    oracle_min_cover,
)


def test_cover_allocator_basics():
    big = (9,) * 6
    assert _cover_feasible((1, 1, 0, 0), big, 1)  # one unit on the shared edge
    assert _cover_feasible((2, 2, 2, 0), big, 3)
    assert not _cover_feasible((2, 2, 2, 0), big, 2)  # triangle needs ceil(6/2)=3
    assert _cover_feasible((3, 1, 1, 1), big, 3)
    assert not _cover_feasible((3, 1, 1, 1), big, 2)  # max need exceeds budget


def test_cover_allocator_respects_caps():
    # only the a-b edge can serve b, capacity 2
    caps = (2, 0, 9, 9, 0, 9)
    assert _cover_feasible((1, 2, 0, 0), caps, 2)
    assert not _cover_feasible((1, 3, 0, 0), caps, 3)


def test_two_allocators_agree_on_random_queries():
    rng = rng_from_seed(424242)
    for _ in range(4000):
        needs = tuple(int(x) for x in rng.integers(0, 9, size=4))
        caps = tuple(int(x) for x in rng.integers(0, 9, size=6))
        budget = int(rng.integers(0, 15))
        a = _cover_feasible(needs, caps, budget)
        assert a == oracle_cover_feasible(needs, caps, budget), (needs, caps, budget)
        assert a == _cover_feasible_second_opinion(needs, caps, budget), (needs, caps, budget)


def test_two_allocators_agree_on_tight_queries():
    # adversarial small-slack region: budgets near the ceil(sum/2) floor
    rng = rng_from_seed(777)
    for _ in range(2000):
        needs = tuple(int(x) for x in rng.integers(0, 13, size=4))
        lo = max(max(needs), (sum(needs) + 1) // 2) if any(needs) else 0
        budget = lo + int(rng.integers(0, 2)) - int(rng.integers(0, 2))
        caps = tuple(int(x) for x in rng.integers(0, 13, size=6))
        a = _cover_feasible(needs, caps, max(0, budget))
        assert a == oracle_cover_feasible(needs, caps, max(0, budget)), (needs, caps, budget)
        b = _cover_feasible_second_opinion(needs, caps, max(0, budget))
        assert a == b, (needs, caps, budget)


NO_COVER = 10**6


def _brute_min_cover_tables(max_need):
    """For each needs vector in {0..max_need}^4, the brute-force least cover
    under every caps vector in {0..max_need}^6 (a larger cap never helps: no
    edge needs more units than the larger need at its ends), or NO_COVER.
    Every allocation x in {0..max_need}^6 is enumerated; a running minimum
    along each edge axis takes min over x <= caps."""
    side = max_need + 1
    allocations = np.array(list(itertools.product(range(side), repeat=6)))
    got = np.zeros((len(allocations), 4), dtype=np.int64)
    for e, (a, b) in enumerate(K4_EDGES):
        got[:, a] += allocations[:, e]
        got[:, b] += allocations[:, e]
    totals = allocations.sum(axis=1)
    tables = {}
    for needs in itertools.product(range(side), repeat=4):
        covers = (got >= np.array(needs)).all(axis=1)
        table = np.where(covers, totals, NO_COVER).reshape((side,) * 6)
        for axis in range(6):
            table = np.minimum.accumulate(table, axis=axis)
        tables[needs] = table
    return tables


@pytest.fixture(scope="module")
def brute_tables():
    return _brute_min_cover_tables(3)


def test_min_cover_equals_brute_force_on_a_box(brute_tables):
    # needs 0..3 for every voter; caps 0 (edge unusable), 1 and 3 (never binding)
    for caps in itertools.product((0, 1, 3), repeat=6):
        for needs, table in brute_tables.items():
            brute = int(table[caps])
            if brute < NO_COVER:
                assert _min_cover(needs, caps) == brute, (needs, caps)


def test_three_cover_checks_agree_on_a_box(brute_tables):
    # a budget check can flip only between rho - 1 and rho; zero needs pass at any budget
    for caps in itertools.product((0, 2), repeat=6):
        for needs, table in brute_tables.items():
            rho = int(table[caps])
            budgets = (max(rho - 1, 0), rho) if rho < NO_COVER else (8,)
            for budget in budgets:
                expected = rho <= budget
                query = (needs, caps, budget)
                assert _cover_feasible(*query) == expected, query
                assert oracle_cover_feasible(*query) == expected, query
                assert _cover_feasible_second_opinion(*query) == expected, query


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.tuples(*[st.integers(-1, 6)] * 4),
    st.tuples(*[st.integers(0, 4)] * 6),
    st.integers(-1, 12),
)
def test_cover_check_matches_oracles_fuzz(needs, caps, budget):
    feasible = _cover_feasible(needs, caps, budget)
    assert feasible == oracle_cover_feasible(needs, caps, budget)
    assert feasible == _cover_feasible_second_opinion(needs, caps, budget)
    brute = oracle_min_cover(needs, caps)
    if brute is not None:
        assert _min_cover(tuple(max(0, n) for n in needs), caps) == brute
    assert feasible == (brute is not None and (brute == 0 or brute <= budget))


def test_search_parameter_validation():
    with pytest.raises(ParameterError):
        lb1_emptiness_search(4)
    with pytest.raises(ParameterError):
        verify_passing_class(7, (0,) * 6)


def test_search_class_cap_is_deterministic():
    a = lb1_emptiness_search(5, time_cap_s=300, class_cap=500)
    b = lb1_emptiness_search(5, time_cap_s=300, class_cap=500)
    assert a.classes_checked == b.classes_checked == 500
    assert a.result == b.result == "cap-exceeded"


# (coalition, refuting reply, residual targets, budget) of the r = 5 passing
# class, as the certifier printed them over the single sorted reply list
KNOWN_CERTIFICATES = [
    ((0, 1, 2, 3), (0, 0, 0, 0, 0, 0), [15, 7, 23, 25], 30),
    ((0, 1, 2), (0, 0, 0, 3, 5, 0), [12, 2, 23], 22),
    ((0, 1, 3), (0, 0, 6, 0, 0, 2), [9, 7, 23], 22),
    ((0, 2, 3), (0, 0, 0, 0, 0, 8), [15, 15, 17], 22),
    ((1, 2, 3), (0, 0, 0, 3, 5, 0), [2, 23, 17], 22),
    ((0, 1), (0, 0, 0, 0, 4, 12), [15, 3], 14),
    ((0, 2), (0, 0, 0, 0, 4, 12), [15, 11], 14),
    ((0, 3), (0, 0, 0, 0, 4, 12), [15, 9], 14),
    ((1, 2), (0, 0, 0, 3, 5, 8), [2, 15], 14),
    ((1, 3), (0, 0, 6, 0, 0, 10), [7, 15], 14),
    ((2, 3), (0, 0, 0, 3, 5, 8), [15, 9], 14),
    ((0,), (0, 0, 2, 5, 5, 12), [8], 6),
    ((1,), (0, 0, 7, 5, 0, 12), [7], 6),
    ((2,), (0, 0, 2, 5, 5, 12), [9], 6),
    ((3,), (0, 0, 6, 1, 5, 12), [7], 6),
]


def test_known_counterexample_class_verifies():
    cert = verify_passing_class(5, (0, 0, 8, 5, 5, 12))
    assert cert["passes"]
    assert cert["utilities"] == [13, 5, 20, 22]
    assert cert["targets"] == [15, 7, 23, 25]
    got = [
        (c["coalition"], c["reply"], c["residual_targets"], c["budget"])
        for c in cert["certificates"]
    ]
    assert got == KNOWN_CERTIFICATES  # one refuting reply per coalition


def test_all_dummy_class_is_blocked():
    cert = verify_passing_class(5, (0, 0, 0, 0, 0, 0))
    assert not cert["passes"]
    assert cert["blocking_coalition"] == (0, 1, 2, 3)


def test_search_verdict_matches_certifier_on_prefix():
    # every class the search scans and rejects must also fail the certifier
    report = lb1_emptiness_search(5, time_cap_s=60, class_cap=200)
    assert report.result == "cap-exceeded"
    for idx, counts in enumerate(_class_iter(30, 30, 32)):
        if idx >= 50:
            break
        assert not verify_passing_class(5, counts)["passes"]


GAMMAS = (Fraction(1), Fraction(16, 15), Fraction(6, 5))


def _layered_check(counts, gamma, r=5, pool=None):
    cap, k = 6 * r, 32 * r // 5
    pool = cap if pool is None else pool
    needs = _targets(_utilities(counts), gamma)
    blocked, S = _blocking_coalition_exists(counts, pool, cap, k, needs)
    assert blocked == (S is not None)
    return S


def _top_sum_classes(r, count, seed):
    """``count`` seeded party-count vectors with sum min(6r, k) = 6r, drawn
    uniformly by stars and bars."""
    rng = rng_from_seed(seed)
    total = 6 * r
    classes = []
    for _ in range(count):
        bars = sorted(int(x) for x in rng.choice(total + 5, size=5, replace=False))
        edges = [-1, *bars, total + 5]
        classes.append(tuple(b - a - 1 for a, b in zip(edges, edges[1:])))
    return classes


def test_integer_targets_round_up_exactly():
    for gamma in (*GAMMAS, Fraction(31, 30), Fraction(7, 3), Fraction(200, 201)):
        utils = tuple(range(0, 90))
        assert _targets(utils, gamma) == tuple(math.ceil(gamma * (u + 1)) for u in utils)


@pytest.mark.parametrize(
    "counts, pool",
    [((0, 0, 8, 5, 5, 12), 30), ((3, 1, 0, 4, 2, 2), 5), ((4, 6, 3, 5, 2, 7), 60)],
)
def test_reply_layers_walk_the_single_sorted_reply_list(counts, pool):
    # layer order is the stable sort by descending seats of the lexicographic list
    layers = _ReplyLayers(counts, pool)
    for limit in (0, 8, 16, 24, 99):
        walked = [
            (h, layers.caps(h), t, util)
            for t, layer in layers.walk(limit)
            for h, util, least_cap in layer
            if least_cap == min(layers.caps(h))
        ]
        assert walked == oracle_hat_iter(counts, limit, pool)


@pytest.mark.parametrize("gamma", GAMMAS)
def test_layered_check_matches_naive_loop_on_the_first_classes(gamma):
    for counts in itertools.islice(_class_iter(30, 30, 32), 2000):
        assert _layered_check(counts, gamma) == oracle_blocking_coalition(
            counts, 30, 30, 32, gamma
        ), counts


@pytest.mark.parametrize("r, count, gammas", [(5, 15, GAMMAS), (10, 3, (Fraction(16, 15),))])
def test_layered_check_matches_naive_loop_on_top_sum_classes(r, count, gammas):
    cap, k = 6 * r, 32 * r // 5
    verdicts = set()
    for counts in _top_sum_classes(r, count, seed=8000 + r):
        for gamma in gammas:
            S = _layered_check(counts, gamma, r)
            assert S == oracle_blocking_coalition(counts, cap, cap, k, gamma), (counts, gamma)
            verdicts.add(S is None)
    if r == 5:
        assert verdicts == {True, False}  # the sample holds passing and blocked classes


@pytest.mark.parametrize("gamma", GAMMAS)
def test_layered_check_matches_naive_loop_when_caps_bind(gamma, monkeypatch):
    # a pool of 6 per party: caps bind, so the general 16-term cover runs
    calls = []

    def counted(needs, caps):
        calls.append(1)
        return _min_cover(needs, caps)

    rng = rng_from_seed(8006)
    for _ in range(20):
        counts = tuple(int(c) for c in rng.integers(0, 7, size=6))
        if sum(counts) > 30:
            continue
        with monkeypatch.context() as patch:
            patch.setattr(lb_search, "_min_cover", counted)
            S = _layered_check(counts, gamma, pool=6)
        assert S == oracle_blocking_coalition(counts, 6, 30, 32, gamma), counts
    assert calls


def _report(r, gamma, class_cap, pool_size=None, **kwargs):
    payload = lb1_emptiness_search(
        r, gamma=gamma, class_cap=class_cap, pool_size=pool_size, **kwargs
    ).to_json()
    payload.pop("elapsed_s")
    return payload


@pytest.mark.parametrize("pool", [1, 2, 3])
@pytest.mark.parametrize(
    "gamma", [Fraction(1, 2), Fraction(1), Fraction(16, 15), Fraction(6, 5), Fraction(101, 100)]
)
def test_run_scan_reports_match_a_class_by_class_scan(pool, gamma, monkeypatch):
    # the oracle walk is naive; memoizing its per-class verdict keeps the
    # several class caps below to one walk of each (pool, gamma)
    monkeypatch.setattr(
        oracles,
        "oracle_blocking_coalition",
        functools.lru_cache(maxsize=None)(oracle_blocking_coalition),
    )
    full = oracle_emptiness_scan(5, gamma, None, pool)
    assert _report(5, gamma, None, pool) == full
    first_run = pool + 1  # the run of prefix (0, 0, 0, 0, 0)
    caps = {1, first_run, first_run + 1}
    found = full["classes_checked"]
    if full["passing_class"] is None or found == full["classes_total"]:
        # (a cap at classes_total past a passing class scans as no cap)
        caps.add(full["classes_total"])
    if full["passing_class"] is not None:
        caps |= {found - 1, found, found + 1}  # a cap just before, at and past the passing class
        *prefix, b = full["passing_class"]
        if (pool, gamma) in ((2, Fraction(16, 15)), (3, Fraction(6, 5))):
            assert b < min(pool, 30 - sum(prefix))  # a passing class inside its run
    for cap in sorted(caps):
        assert _report(5, gamma, cap, pool) == oracle_emptiness_scan(5, gamma, cap, pool), cap
    if gamma == Fraction(1, 2):
        assert full["result"] == "confirmed-empty"
    else:
        assert full["result"] == "counterexample-candidate"


def test_a_time_stop_counts_only_decided_runs(monkeypatch):
    # a fake clock ticks once per reading: the search reads it at the start,
    # before each evaluation and at the end, so a time cap of T + 1/2
    # allows exactly T evaluations
    def run(time_cap_s):
        clock = itertools.count()
        monkeypatch.setattr(lb_search, "time", types.SimpleNamespace(monotonic=clock.__next__))
        report = lb1_emptiness_search(5, Fraction(16, 15), time_cap_s, pool_size=2)
        return report, next(clock) - 2

    full, evaluations = run(math.inf)
    assert full.result == "counterexample-candidate" and full.classes_checked == 485
    lengths = [top + 1 for _, top in _class_runs(2, 30, 32)]
    boundaries = set(itertools.accumulate(lengths, initial=0))
    assert evaluations < len(boundaries) + math.ceil(math.log2(3))  # one per run, then bisect
    for allowed in (0, 1, 2, 3, evaluations - 2, evaluations - 1):
        report, _ = run(allowed + 0.5)
        assert report.result == "cap-exceeded"
        assert report.classes_checked in boundaries and report.classes_checked < 485
        assert report.notes == [
            f"stopped after {report.classes_checked} of 729 classes; "
            "no stability claim is made for the unchecked remainder"
        ]
    assert run(3.5)[0].classes_checked == 3 + 3 + 3


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.integers(1, 4).flatmap(
        lambda pool: st.tuples(
            st.just(pool), st.tuples(*[st.integers(0, pool)] * 6), st.integers(0, 5)
        )
    ),
    st.fractions(min_value=-1, max_value=3, max_denominator=20),
)
def test_blocking_is_downward_closed_in_the_counts(case, gamma):
    pool, counts, p = case
    if counts[p] == pool:
        counts = counts[:p] + (pool - 1,) + counts[p + 1:]
    more = counts[:p] + (counts[p] + 1,) + counts[p + 1:]
    if oracle_blocking_coalition(more, pool, 30, 32, gamma) is not None:
        assert oracle_blocking_coalition(counts, pool, 30, 32, gamma) is not None
    if gamma <= 0:
        assert oracle_blocking_coalition(more, pool, 30, 32, gamma) is not None


@pytest.mark.parametrize("pool, cap, k", [(1, 30, 32), (2, 30, 32), (3, 5, 32), (4, 30, 4)])
def test_class_iter_is_the_lexicographic_filter_of_the_product(pool, cap, k):
    limit = min(cap, k)
    product = itertools.product(range(pool + 1), repeat=6)
    assert list(_class_iter(pool, cap, k)) == [c for c in product if sum(c) <= limit]


def test_class_iter_prefix_at_the_r5_geometry():
    product = itertools.product(range(31), repeat=6)
    expected = itertools.islice((c for c in product if sum(c) <= 30), 20_000)
    assert list(itertools.islice(_class_iter(30, 30, 32), 20_000)) == list(expected)
