"""The Global and Local committee-selection rules.

Global enumerates the whole feasibility family and returns the exact
score maximizer.  Local starts from a matroid basis and applies the
first swap (outgoing id ascending, then incoming id ascending) that
strictly improves the score, until no swap improves.  Both are
deterministic; score ties in Global prefer the larger committee, then
the lexicographically smallest sorted id sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional

from .constraints import extend_to_basis, is_basis, is_feasible
from .errors import (
    InfeasibleInstanceError,
    NotABasisError,
    UnsupportedConstraintError,
    canonical,
    require_work,
    subsets,
    subsets_up_to,
)
from .intervals import certified_log_gt
from .model import Committee, Instance, rng_from_seed
from .scoring import Score, score


@dataclass
class SolverConfig:
    epsilon: Fraction = field(default_factory=lambda: Fraction(0))
    start: Optional[Iterable[int]] = None
    seed: Optional[int] = None

    def __post_init__(self):
        self.epsilon = Fraction(self.epsilon)
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")


@dataclass
class SolveResult:
    committee: Committee
    score: Score
    iterations: int = 0


def _enumerate_family(instance: Instance):
    P = instance.feasibility
    if P.kind == "explicit":
        for member in sorted(P.sets, key=canonical):
            if len(member) <= instance.k:
                yield member
        return
    require_work(subsets_up_to(instance.m, instance.k), "Global's committee enumeration")
    for T in subsets(instance.candidates, range(instance.k + 1)):
        if is_feasible(P, T):
            yield T


def solve_global(instance: Instance, rule: str) -> SolveResult:
    """Exact maximizer of the rule's score over the feasibility family.

    A non-explicit family is enumerated as every committee of size <= k,
    and refused up front when those exceed the work limit."""
    instance.require_k_mode("solve_global")
    best = best_T = None
    count = 0
    for T in _enumerate_family(instance):
        count += 1
        s = score(rule, instance, T)
        # committees arrive in the canonical order, so among score ties the
        # first of the largest size is the lexicographically smallest one
        if best is None or s > best or (s == best and len(T) > len(best_T)):
            best, best_T = s, T
    if best is None:
        raise InfeasibleInstanceError("the feasibility family is empty")
    return SolveResult(instance.committee(best_T), best, iterations=count)


def _strict_improvement(rule, new: Score, old: Score, epsilon: Fraction, n: int, k: int) -> bool:
    """new > old by more than epsilon/(n*k); exact when epsilon = 0."""
    if epsilon == 0:
        return new > old
    threshold = epsilon / (n * k)
    if rule == "snw":
        # comparables are products; improvement lives on the ln scale
        ratio = new.value / old.value
        if ratio <= 1:
            return False
        return certified_log_gt(ratio, threshold)
    return new.value - old.value > threshold


def _greedy_start(instance: Instance, seed: Optional[int]) -> frozenset:
    M = instance.feasibility
    order = sorted(instance.candidates)
    if seed is not None:
        rng = rng_from_seed(seed)
        order = [order[i] for i in rng.permutation(len(order))]
    current: set = set()
    for c in order:
        if M.independent(current | {c}):
            current.add(c)
    return frozenset(current)


def solve_local(
    instance: Instance, rule: str, config: Optional[SolverConfig] = None
) -> SolveResult:
    """First-improvement swap search over matroid bases.

    The start committee must be a basis (default: greedy by id, or a
    seeded greedy permutation).  Terminates at a committee admitting no
    swap that improves the score by more than epsilon/(n*k).
    """
    instance.require_k_mode("solve_local")
    config = config or SolverConfig()
    M = instance.feasibility
    if not M.is_matroid:
        raise UnsupportedConstraintError(
            f"local search needs a matroid-kind family, got {M.kind}"
        )
    universe = sorted(instance.candidates)
    if config.start is not None:
        W = frozenset(config.start)
        if not is_basis(M, W, universe):
            raise NotABasisError(f"start {sorted(W)} is not a basis")
    else:
        W = _greedy_start(instance, config.seed)
        if not is_basis(M, W, universe):
            W = extend_to_basis(M, W, universe, universe)
    current_score = score(rule, instance, W)
    iterations = 0
    improved = True
    while improved:
        improved = False
        for out_c in sorted(W):
            for in_c in universe:
                if in_c in W:
                    continue
                cand = (W - {out_c}) | {in_c}
                if not M.independent(cand):
                    continue
                cand_score = score(rule, instance, cand)
                if _strict_improvement(
                    rule, cand_score, current_score, config.epsilon, instance.n, instance.k
                ):
                    W, current_score = cand, cand_score
                    iterations += 1
                    improved = True
                    break
            if improved:
                break
    return SolveResult(instance.committee(W), current_score, iterations=iterations)
