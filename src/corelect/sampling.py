"""Exact and Monte-Carlo verification of the random-sampling bounds.

Exact enumeration is used whenever the base set has at most 16 members;
Monte-Carlo runs are seeded with a named splittable generator (Philox)
and record the seed in every report.  Bernoulli draws use integer
comparisons against the exact rational probability, never floats.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import EnumerationLimitError, mask_array
from .exactnum import ExactValue, int_sign, parse_rational, rational_to_json
from .instances import rng_from_seed
from .model import (
    UtilityFunction,
    _layers,
    _SubsetTable,
    _self_bounding,
    gain_threshold,
    self_bounding_constant,
)

EXACT_SIZE_CAP = 16


def _parse_alpha(alpha) -> Fraction:
    """alpha as a Fraction, which must be a probability."""
    alpha = parse_rational(alpha)
    if not (0 <= alpha <= 1):
        raise ValueError("alpha must lie in [0, 1]")
    return alpha


def _exact_table(u: UtilityFunction, T: list, alpha: Fraction, every_subset=False):
    """The shared table of u over T, filled at least on the subsets that an
    alpha-sample takes with positive probability (all of them for
    ``every_subset``, as beta* needs)."""
    if len(T) > EXACT_SIZE_CAP:
        raise EnumerationLimitError(f"|T| = {len(T)} exceeds the exact cap {EXACT_SIZE_CAP}")
    sizes = None
    if not every_subset and alpha in (0, 1):
        sizes = (len(T) if alpha else 0,)
    return _SubsetTable.of(u, T, sizes)


def _expectation(table: _SubsetTable, alpha: Fraction) -> tuple:
    """E[u(O)] over ``table`` as (a, b, den), meaning (a + b*sqrt(n)) / den:
    the sum of p^|O| (q-p)^(m-|O|) u(O) / q^m for alpha = p/q.  Computed
    once per alpha and table den; den is q^m * table.den."""
    found = table.expectations.get(alpha)
    if found is not None:
        return found
    p, q, m = alpha.numerator, alpha.denominator, len(table.universe)
    weight = [p**k * (q - p) ** (m - k) for k in range(m + 1)]
    # only the subsets O can take: a table shared with other sweeps may
    # hold failed evaluations of sizes of weight 0
    table.require([mask for mask in table.errors if weight[mask.bit_count()]])

    def weighted(column):
        # a size's sum is exact in int64 too: int64 entries stay below
        # 2^31.5 in magnitude, and a size has fewer than 2^20 subsets
        layers = zip(weight, _layers(m))
        return sum(w * int(column[masks].sum()) for w, masks in layers if w)

    irr = weighted(table.irr) if table.field is not None else 0
    found = table.expectations[alpha] = (weighted(table.rat), irr, q**m * table.den)
    return found


def exact_sample_expectation(u: UtilityFunction, T: Iterable[int], alpha) -> ExactValue:
    """E[u(O)] where O keeps each member of T independently w.p. alpha.

    Full enumeration over the subsets of T that O takes with positive
    probability, each evaluated once; exact in the field of u's values.
    """
    T = sorted(set(T))
    alpha = _parse_alpha(alpha)
    table = _exact_table(u, T, alpha)
    return table.exact(*_expectation(table, alpha))


def verify_sampling_bound(u: UtilityFunction, T: Iterable[int], alpha, beta: int) -> bool:
    """Assert E[u(O)] >= alpha^beta * u(T) exactly.

    beta must be a valid self-bounding exponent for u restricted to T;
    this is re-verified before the bound is checked.  Both steps read one
    table of u over the subsets of T.
    """
    T = sorted(set(T))
    alpha = _parse_alpha(alpha)
    if not (isinstance(beta, int) and beta >= 1):
        raise ValueError("beta must be an integer >= 1")
    table = _exact_table(u, T, alpha, every_subset=True)
    actual = _self_bounding(table)
    if actual > beta:
        raise ValueError(f"u restricted to T is only {actual}-self-bounding > beta={beta}")
    a, b, den = _expectation(table, alpha)
    # E >= (p/q)^beta u(T)  <=>  (a + b r) q^beta >= p^beta (rat + irr r) den / den(u)
    rat, irr = table.at(-1)
    p, q = alpha.numerator**beta, alpha.denominator**beta
    scale = p * (den // table.den)
    return int_sign(a * q - scale * rat, b * q - scale * irr, table.radicand) >= 0


def _bernoulli_mask(rng, p: Fraction, shape):
    """Exact Bernoulli(p) draws of the given shape via integer comparison.

    A (trials, m) matrix consumes the generator's stream exactly as
    ``trials`` draws of m in a row do, and its rows equal those draws."""
    draws = rng.integers(0, p.denominator, size=shape)
    return draws < p.numerator


# rows per Monte-Carlo block: memory stays bounded whatever the trial count
MC_BLOCK_ROWS = 1 << 15


def _bernoulli_blocks(rng, p: Fraction, trials: int, m: int):
    """The (trials, m) matrix of ``_bernoulli_mask`` in blocks of at most
    ``MC_BLOCK_ROWS`` rows; the rows and the stream consumed are the same."""
    for done in range(0, trials, MC_BLOCK_ROWS):
        yield _bernoulli_mask(rng, p, (min(MC_BLOCK_ROWS, trials - done), m))


@dataclass
class TailReport:
    mu0: object
    mu0_exact: bool
    threshold: object
    empirical: Fraction
    analytic_bound: float
    slack: float
    verdict: str  # pass / fail / inconclusive
    trials: int
    seed: int
    beta: object
    mu0_ci: object = None  # 3-sigma half-width when mu0 is estimated

    def to_json(self):
        return {
            "mu0": str(self.mu0),
            "mu0_exact": self.mu0_exact,
            "mu0_ci": self.mu0_ci,
            "threshold": str(self.threshold),
            "empirical": rational_to_json(self.empirical),
            "analytic_bound": self.analytic_bound,
            "three_sigma_slack": self.slack,
            "verdict": self.verdict,
            "trials": self.trials,
            "seed": self.seed,
            "beta": str(self.beta),
        }


def mc_lower_tail(
    u: UtilityFunction,
    T: Iterable[int],
    alpha,
    delta,
    trials: int,
    seed: int,
    beta=None,
) -> TailReport:
    """Empirical Pr[u(O) <= (1-delta) mu0] against exp(-delta^2 mu0 / (2 beta)).

    mu0 is computed exactly when |T| <= 16.  Otherwise it is estimated
    from the same trial stream, which is drawn twice, once for mu0 and once
    for the spread and the hits, so memory stays one block of trials.  The
    comparison verdict allows a three-sigma binomial slack; runs with fewer
    than 30 trials are inconclusive.
    """
    T = sorted(set(T))
    alpha = _parse_alpha(alpha)
    delta = parse_rational(delta)
    if not (0 <= delta < 1):
        raise ValueError("delta must lie in [0, 1)")
    if trials < 1:
        raise ValueError("need at least one trial")
    if beta is not None and not beta > 0:
        raise ValueError("beta must be positive")
    exact = len(T) <= EXACT_SIZE_CAP
    if exact:
        # the samples and mu0 read one table; beta* needs every subset
        table = _exact_table(u, T, alpha, every_subset=beta is None)
    if beta is None:
        beta = _self_bounding(table) if exact else self_bounding_constant(u, T)
        if beta < 1:
            beta = Fraction(1)
    rng = rng_from_seed(seed)
    if exact:
        return _exact_tail(table, alpha, delta, trials, seed, beta, rng)

    def samples(stream):
        for block in _bernoulli_blocks(stream, alpha, trials, len(T)):
            for row in block:
                yield u.value(frozenset(itertools.compress(T, row)))

    mu0 = sum(samples(rng), Fraction(0)) / trials
    mean = float(mu0)
    threshold = (1 - delta) * mu0
    hits = 0

    def squared_deviations():
        nonlocal hits
        for v in samples(rng_from_seed(seed)):
            hits += v <= threshold
            yield (float(v) - mean) ** 2

    var = sum(squared_deviations()) / max(1, trials - 1)
    mu0_ci = 3 * math.sqrt(var / trials)
    return _tail_report(mu0, False, threshold, hits, delta, trials, seed, beta, mu0_ci)


def _exact_tail(table, alpha, delta, trials, seed, beta, rng) -> TailReport:
    """The lower tail with mu0 exact: each trial's sample is looked up in
    the table by its mask, and hits are counted in integers."""
    bits = mask_array([1 << i for i in range(len(table.universe))], len(table.universe))
    counts = Counter()
    for block in _bernoulli_blocks(rng, alpha, trials, len(bits)):
        counts.update((block @ bits).tolist())
    table.require(counts)
    a, b, den = _expectation(table, alpha)
    # u(O) <= (1 - e/f) mu0  <=>  (rat + irr r) f den / den(u) <= (f - e)(a + b r)
    e, f = delta.numerator, delta.denominator
    scale = f * (den // table.den)
    hits = 0
    masks = list(counts)
    columns = zip(counts.values(), table.rat[masks].tolist(), table.irr[masks].tolist())
    for count, rat, irr in columns:
        if int_sign(scale * rat - (f - e) * a, scale * irr - (f - e) * b, table.radicand) <= 0:
            hits += count
    mu0 = table.exact(a, b, den)
    return _tail_report(mu0, True, (1 - delta) * mu0, hits, delta, trials, seed, beta, None)


def _tail_report(mu0, mu0_exact, threshold, hits, delta, trials, seed, beta, mu0_ci):
    empirical = Fraction(hits, trials)
    bound = math.exp(-float(delta) ** 2 * float(mu0) / (2 * float(beta)))
    slack = 3 * math.sqrt(max(bound * (1 - bound), 1e-12) / trials)
    if trials < 30:
        verdict = "inconclusive"
    elif float(empirical) <= bound + slack:
        verdict = "pass"
    else:
        verdict = "fail"
    return TailReport(
        mu0=mu0,
        mu0_exact=mu0_exact,
        threshold=threshold,
        empirical=empirical,
        analytic_bound=bound,
        slack=slack,
        verdict=verdict,
        trials=trials,
        seed=seed,
        beta=beta,
        mu0_ci=mu0_ci,
    )


@dataclass
class ReductionReport:
    premises_ok: bool
    premise_failures: list
    t_prime: frozenset
    trials: int
    seed: int
    freq_coalition_event: Optional[Fraction] = None
    freq_cost_event: Optional[Fraction] = None
    freq_joint_event: Optional[Fraction] = None
    joint_witnessed: bool = False
    q_condition_met: bool = False
    params: dict = field(default_factory=dict)

    def to_json(self):
        out = {
            "premises_ok": self.premises_ok,
            "premise_failures": list(self.premise_failures),
            "T_prime": sorted(self.t_prime),
            "trials": self.trials,
            "seed": self.seed,
            "joint_witnessed": self.joint_witnessed,
            "q_condition_met": self.q_condition_met,
            "params": {k: str(v) for k, v in self.params.items()},
        }
        for name in ("freq_coalition_event", "freq_cost_event", "freq_joint_event"):
            v = getattr(self, name)
            out[name] = rational_to_json(v) if v is not None else None
        return out


def endow2_reduction_experiment(
    instance,
    W: Iterable[int],
    S: Sequence[int],
    T: Iterable[int],
    kappa,
    eta,
    trials: int,
    seed: int,
    gamma=2,
    q=Fraction(1, 2),
    beta: int = 1,
) -> ReductionReport:
    """Witness the probabilistic step that converts an endowment-core
    committee into a utility-approximate one.

    Checks the premises (every coalition member values T at least
    eta*beta*gamma^beta times their current utility plus one, and T is
    affordable), restricts T to candidates of size at most (phi/gamma)*b,
    samples each with probability 1/gamma, and measures how often both
    |S'| >= q|S| and Cost(O) <= (phi/gamma)*kappa*b happen together.
    Unmet premises yield a report, not an exception.
    """
    instance.require_budget_mode("endow2_reduction_experiment")
    if trials < 1:
        raise ValueError("need at least one trial")
    W = frozenset(W)
    T = frozenset(T)
    S = sorted(S)
    kappa = parse_rational(kappa)
    eta = parse_rational(eta)
    gamma = parse_rational(gamma)
    q = parse_rational(q)
    if gamma < 1:
        raise ValueError("gamma must be at least 1")
    if not (isinstance(beta, int) and beta >= 1):
        # a fractional beta makes gamma^beta irrational: no exact premise test
        raise ValueError("beta must be an integer >= 1")
    phi = Fraction(len(S), instance.n)
    b = instance.budget
    failures = []
    factor = eta * beta * gamma**beta
    for i in S:
        measure, bar = gain_threshold(instance.utilities[i], W, factor)
        if measure(T) < bar:
            failures.append(f"voter {i} misses the eta*beta*gamma^beta factor")
    if instance.cost(T) > phi * b:
        failures.append("Cost(T) exceeds the coalition budget phi*b")
    size_cut = (phi / gamma) * b
    t_prime = frozenset(j for j in T if instance.sizes[j] <= size_cut)
    params = {
        "kappa": kappa,
        "eta": eta,
        "gamma": gamma,
        "q": q,
        "beta": beta,
        "phi": phi,
        "size_cut": size_cut,
    }
    report = ReductionReport(
        premises_ok=not failures,
        premise_failures=failures,
        t_prime=t_prime,
        trials=trials,
        seed=seed,
        q_condition_met=q > 32 * kappa / gamma,
        params=params,
    )
    if failures:
        return report
    rng = rng_from_seed(seed)
    p_include = 1 / gamma
    cost_cap = (phi / gamma) * kappa * b
    t_list = sorted(t_prime)
    current = {i: instance.utility(i, W) for i in S}
    hits_s = hits_c = hits_joint = 0
    for block in _bernoulli_blocks(rng, p_include, trials, len(t_list)):
        for row in block:
            O = frozenset(itertools.compress(t_list, row))
            s_prime = sum(1 for i in S if instance.utility(i, O) > current[i])
            ev_s = Fraction(s_prime) >= q * len(S)
            ev_c = instance.cost(O) <= cost_cap
            hits_s += ev_s
            hits_c += ev_c
            hits_joint += ev_s and ev_c
    report.freq_coalition_event = Fraction(hits_s, trials)
    report.freq_cost_event = Fraction(hits_c, trials)
    report.freq_joint_event = Fraction(hits_joint, trials)
    report.joint_witnessed = hits_joint > 0
    return report
