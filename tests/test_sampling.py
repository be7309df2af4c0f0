from fractions import Fraction

import pytest

from corelect.errors import EnumerationLimitError
from corelect.instances import gen_lb00, random_utility, rng_from_seed
from corelect.model import AdditiveUtility, Instance
from corelect.sampling import (
    endow2_reduction_experiment,
    exact_sample_expectation,
    mc_lower_tail,
    verify_sampling_bound,
)

from oracles import oracle_sample_expectation


def test_expectation_alpha_one_is_full_value():
    u = AdditiveUtility({0: Fraction(1, 2), 1: Fraction(1, 4)})
    assert exact_sample_expectation(u, [0, 1], 1) == Fraction(3, 4)


def test_expectation_alpha_zero_is_zero():
    u = AdditiveUtility({0: 1})
    assert exact_sample_expectation(u, [0], 0) == 0


def test_expectation_additive_linearity():
    u = AdditiveUtility({0: Fraction(1, 2), 1: Fraction(1, 3), 2: 1})
    for alpha in (Fraction(1, 3), Fraction(2, 5)):
        assert exact_sample_expectation(u, [0, 1, 2], alpha) == alpha * u.value(
            frozenset([0, 1, 2])
        )


def test_expectation_matches_oracle():
    for seed in range(40):
        rng = rng_from_seed(seed)
        kind = ("approval", "additive", "coverage", "xos")[seed % 4]
        u = random_utility(kind, range(5), rng)
        T = [int(c) for c in rng.permutation(5)[: int(rng.integers(1, 6))]]
        alpha = Fraction(int(rng.integers(0, 5)), 4)
        assert exact_sample_expectation(u, T, alpha) == oracle_sample_expectation(
            u, T, alpha
        )


def test_expectation_size_cap():
    u = AdditiveUtility({c: Fraction(1, 2) for c in range(20)})
    with pytest.raises(EnumerationLimitError):
        exact_sample_expectation(u, range(20), Fraction(1, 2))


@pytest.mark.parametrize("alpha", [Fraction(3, 2), Fraction(-1, 2)])
@pytest.mark.parametrize("m", [4, 20])
def test_every_sampler_rejects_alpha_outside_the_unit_interval(alpha, m):
    # m = 4 takes the exact path, m = 20 the estimated mu0 (and is past the exact cap)
    u = AdditiveUtility({c: Fraction(1, 2) for c in range(m)})
    calls = [
        lambda: exact_sample_expectation(u, range(m), alpha),
        lambda: verify_sampling_bound(u, range(m), alpha, beta=1),
        lambda: mc_lower_tail(u, range(m), alpha, Fraction(1, 2), 50, seed=1, beta=1),
        lambda: mc_lower_tail(u, range(m), alpha, Fraction(1, 2), 50, seed=1),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="alpha must lie in"):
            call()


def test_sampling_bound_size_cap_comes_before_any_evaluation():
    calls = []

    class Counted(AdditiveUtility):
        def numerator(self, T):
            calls.append(T)
            return super().numerator(T)

    u = Counted({c: Fraction(1, 2) for c in range(17)})
    with pytest.raises(EnumerationLimitError, match="exact cap 16"):
        verify_sampling_bound(u, range(17), Fraction(1, 2), beta=1)
    assert calls == []


def test_sampling_bound_examples():
    rng = rng_from_seed(9)
    xos = random_utility("xos", range(6), rng)
    assert verify_sampling_bound(xos, range(6), Fraction(1, 2), beta=1)
    cov = random_utility("coverage", range(6), rng)
    assert verify_sampling_bound(cov, range(6), Fraction(3, 4), beta=1)


def test_sampling_bound_lb00_beta5():
    inst = gen_lb00(5, 2)
    assert verify_sampling_bound(
        inst.utilities[0], sorted(inst.candidates)[:12], Fraction(1, 3), beta=5
    )


def test_sampling_bound_rejects_undersized_beta():
    inst = gen_lb00(5, 2)
    u = inst.utilities[0]
    with pytest.raises(ValueError):
        verify_sampling_bound(u, sorted(inst.candidates)[:12], Fraction(1, 3), beta=1)


def test_tail_delta_zero_bound_is_one():
    u = AdditiveUtility({c: 1 for c in range(6)})
    rep = mc_lower_tail(u, range(6), Fraction(1, 2), Fraction(0), 200, seed=1, beta=1)
    assert rep.analytic_bound == 1.0 and rep.verdict == "pass"


def test_tail_single_trial_inconclusive():
    u = AdditiveUtility({c: 1 for c in range(6)})
    rep = mc_lower_tail(u, range(6), Fraction(1, 2), Fraction(1, 2), 1, seed=1, beta=1)
    assert rep.verdict == "inconclusive"
    assert rep.empirical in (Fraction(0), Fraction(1))


def test_tail_bound_respected_at_scale():
    u = AdditiveUtility({c: 1 for c in range(12)})
    rep = mc_lower_tail(
        u, range(12), Fraction(1, 2), Fraction(9, 10), 10_000, seed=5, beta=1
    )
    assert rep.verdict == "pass"
    assert rep.mu0 == 6 and rep.mu0_exact


def test_tail_estimated_mu0_reports_ci():
    u = AdditiveUtility({c: Fraction(1, 2) for c in range(20)})
    rep = mc_lower_tail(u, range(20), Fraction(1, 2), Fraction(1, 2), 500, seed=2, beta=1)
    assert not rep.mu0_exact
    assert rep.mu0_ci is not None and rep.mu0_ci > 0
    # the estimate should bracket the true mean 5 comfortably at 3 sigma
    assert abs(float(rep.mu0) - 5.0) <= rep.mu0_ci


def test_tail_is_seed_deterministic():
    u = AdditiveUtility({c: 1 for c in range(8)})
    a = mc_lower_tail(u, range(8), Fraction(1, 2), Fraction(1, 2), 500, seed=3, beta=1)
    b = mc_lower_tail(u, range(8), Fraction(1, 2), Fraction(1, 2), 500, seed=3, beta=1)
    assert a.to_json() == b.to_json()
    c = mc_lower_tail(u, range(8), Fraction(1, 2), Fraction(1, 2), 500, seed=4, beta=1)
    assert a.empirical != c.empirical or a.seed != c.seed


@pytest.mark.parametrize(
    "m, p",
    [(7, Fraction(1, 3)), (1, Fraction(1, 2)), (5, Fraction(2**32, 2**33 + 1)), (16, Fraction(1))],
)
def test_bernoulli_matrix_rows_equal_draws_one_row_at_a_time(m, p):
    # one (trials, m) draw consumes the Philox stream exactly as trials
    # draws of m do, for odd m and for a denominator above 2^32 too
    from corelect.sampling import _bernoulli_mask

    by_row, at_once = rng_from_seed(17), rng_from_seed(17)
    rows = [_bernoulli_mask(by_row, p, m) for _ in range(25)]
    matrix = _bernoulli_mask(at_once, p, (25, m))
    assert matrix.shape == (25, m)
    assert all((row == drawn).all() for row, drawn in zip(rows, matrix))
    assert by_row.integers(0, 2**62) == at_once.integers(0, 2**62)


@pytest.mark.parametrize("m, p", [(7, Fraction(1, 3)), (0, Fraction(1, 2)), (16, Fraction(1))])
def test_bernoulli_blocks_are_the_one_matrix_in_slices(m, p, monkeypatch):
    import corelect.sampling as sampling

    monkeypatch.setattr(sampling, "MC_BLOCK_ROWS", 8)
    by_block, at_once = rng_from_seed(23), rng_from_seed(23)
    blocks = list(sampling._bernoulli_blocks(by_block, p, 8 * 3 + 5, m))
    assert [len(block) for block in blocks] == [8, 8, 8, 5]
    matrix = sampling._bernoulli_mask(at_once, p, (8 * 3 + 5, m))
    assert all((block == matrix[8 * i:8 * i + len(block)]).all() for i, block in enumerate(blocks))
    assert by_block.integers(0, 2**62) == at_once.integers(0, 2**62)


def test_monte_carlo_reports_do_not_depend_on_the_block_size(monkeypatch):
    # 1,003 trials: not a multiple of the 64-row blocks; the default block
    # size holds them in one matrix, as every trial count did before blocks
    import corelect.sampling as sampling

    def reports():
        inst = _reduction_instance()
        exact = AdditiveUtility({c: Fraction(c + 1, 10) for c in range(10)})
        estimated = AdditiveUtility({c: Fraction(1, 2) for c in range(20)})
        half = Fraction(1, 2)
        return [
            mc_lower_tail(exact, range(10), half, half, 1003, seed=4, beta=1).to_json(),
            mc_lower_tail(estimated, range(20), half, half, 1003, seed=4, beta=1).to_json(),
            endow2_reduction_experiment(
                inst, W=frozenset({30, 31}), S=[0, 1], T=frozenset(range(30)),
                kappa=Fraction(2), eta=Fraction(5, 2), trials=1003, seed=7, gamma=2,
            ).to_json(),
        ]

    assert sampling.MC_BLOCK_ROWS >= 1003
    one_matrix = reports()
    monkeypatch.setattr(sampling, "MC_BLOCK_ROWS", 64)
    assert reports() == one_matrix


def _reduction_instance(m=30, weight=Fraction(1, 3)):
    candidates = list(range(m + 2))
    sizes = {c: 1 for c in candidates}
    utilities = [
        AdditiveUtility({c: weight for c in range(m)}),
        AdditiveUtility({c: weight for c in range(m)}),
    ]
    return Instance(candidates, utilities, sizes=sizes, budget=m, validate="trust")


def test_reduction_premises_unmet_is_report_not_exception():
    inst = _reduction_instance()
    rep = endow2_reduction_experiment(
        inst,
        W=frozenset({30, 31}),
        S=[0, 1],
        T=frozenset(range(30)),
        kappa=Fraction("1.454"),
        eta=Fraction(100),  # unattainably large factor
        trials=10,
        seed=0,
    )
    assert not rep.premises_ok and rep.premise_failures


def test_reduction_premise_is_met_exactly_at_the_factor():
    # eta * beta * gamma^beta = 3/2: voter 0 gets exactly 3/2 * (0 + 1) from T,
    # voter 1 one twelfth less
    inst = Instance(
        [0, 1, 2],
        [
            AdditiveUtility({0: 1, 1: Fraction(1, 2)}),
            AdditiveUtility({0: 1, 1: Fraction(5, 12)}),
        ],
        sizes={0: 1, 1: 1, 2: 1},
        budget=4,
        validate="trust",
    )
    kwargs = dict(W=frozenset({2}), T=frozenset({0, 1}), kappa=2, trials=1, seed=0)
    rep = endow2_reduction_experiment(inst, S=[0, 1], eta=Fraction(3, 4), gamma=2, **kwargs)
    assert rep.premise_failures == ["voter 1 misses the eta*beta*gamma^beta factor"]
    assert endow2_reduction_experiment(inst, S=[0], eta=Fraction(3, 4), gamma=2, **kwargs).premises_ok
    # gamma^(1/2) is irrational, so a fractional beta is refused, not rounded
    with pytest.raises(ValueError, match="beta must be an integer"):
        endow2_reduction_experiment(inst, S=[0], eta=1, gamma=2, beta=Fraction(1, 2), **kwargs)


@pytest.mark.parametrize("trials", [0, -3])
def test_reduction_needs_at_least_one_trial(trials):
    # the premises hold, so a run of no trials would divide by zero
    inst = _reduction_instance()
    kwargs = dict(W=frozenset({30, 31}), S=[0, 1], T=frozenset(range(30)), seed=0)
    assert endow2_reduction_experiment(inst, kappa=2, eta=Fraction(5, 2), trials=1, **kwargs).premises_ok
    with pytest.raises(ValueError, match="need at least one trial"):
        endow2_reduction_experiment(inst, kappa=2, eta=Fraction(5, 2), trials=trials, **kwargs)


def test_reduction_gamma_one_samples_everything():
    inst = _reduction_instance()
    rep = endow2_reduction_experiment(
        inst,
        W=frozenset({30, 31}),
        S=[0, 1],
        T=frozenset(range(30)),
        kappa=Fraction(2),
        eta=Fraction(5, 2),
        trials=5,
        seed=0,
        gamma=1,
        q=Fraction(1, 2),
    )
    assert rep.premises_ok
    # sampling probability 1 keeps all of T', so the coalition event is certain
    assert rep.freq_coalition_event == 1


def test_reduction_empty_tprime_trivial():
    inst = Instance(
        [0, 1],
        [AdditiveUtility({0: 1}), AdditiveUtility({0: 1})],
        sizes={0: 2, 1: 1},
        budget=2,
        validate="trust",
    )
    rep = endow2_reduction_experiment(
        inst,
        W=frozenset({1}),
        S=[0],
        T=frozenset({0}),
        kappa=Fraction(2),
        eta=Fraction(5, 2),
        trials=5,
        seed=0,
        gamma=4,
    )
    # candidate 0 costs 2 > (phi/gamma) * b, so T' is empty
    if rep.premises_ok:
        assert rep.t_prime == frozenset()
        assert not rep.joint_witnessed


def test_reduction_synthetic_joint_event_witnessed():
    inst = _reduction_instance()
    rep = endow2_reduction_experiment(
        inst,
        W=frozenset({30, 31}),
        S=[0, 1],
        T=frozenset(range(30)),
        kappa=Fraction("1.454"),
        eta=Fraction(5, 2),
        trials=10_000,
        seed=11,
        gamma=2,
        q=Fraction(1, 2),
        beta=1,
    )
    assert rep.premises_ok
    assert rep.joint_witnessed
    assert rep.freq_joint_event > 0


def test_reduction_is_seed_deterministic():
    inst = _reduction_instance()
    kwargs = dict(
        W=frozenset({30, 31}),
        S=[0, 1],
        T=frozenset(range(30)),
        kappa=Fraction(2),
        eta=Fraction(5, 2),
        trials=300,
        gamma=2,
    )
    a = endow2_reduction_experiment(inst, seed=7, **kwargs)
    b = endow2_reduction_experiment(inst, seed=7, **kwargs)
    assert a.to_json() == b.to_json()


def test_estimated_tail_memory_does_not_grow_with_trials(monkeypatch):
    # |T| = 20 takes the estimated-mu0 path; with small blocks, two trial
    # counts four times apart peak at the same memory
    import tracemalloc

    from corelect import sampling

    monkeypatch.setattr(sampling, "MC_BLOCK_ROWS", 512)
    u = AdditiveUtility({c: Fraction(1, 1 + c % 3) for c in range(20)})
    T = list(range(20))
    mc_lower_tail(u, T, Fraction(1, 2), Fraction(1, 2), 64, 3, beta=1)  # warm caches
    peaks = []
    for trials in (4096, 16384):
        tracemalloc.start()
        report = mc_lower_tail(u, T, Fraction(1, 2), Fraction(1, 2), trials, 3, beta=1)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        assert not report.mu0_exact and report.trials == trials
    assert peaks[1] < peaks[0] + 64 * 1024, peaks
