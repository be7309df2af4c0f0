"""The Global and Local committee-selection rules.

Global decides the whole feasibility family on committee bitmasks over
the sorted candidates: the size layers 0..k (``model._layers``), or an
explicit family's sets of at most k members, in the canonical order and
in blocks of masks.  ``constraints.feasibility_of_masks`` keeps a
block's feasible masks, and ``scoring.score_masks`` gives their exact
scores as integer keys over one denominator, so each block's argmax is
one integer comparison; the winner alone is scored by ``score``.  Local
starts from a matroid basis and applies the first swap (outgoing id
ascending, then incoming id ascending) that strictly improves the
score, until no swap improves; it scores each swap by ``score``.  Both
are deterministic; score ties in Global prefer the larger committee,
then the lexicographically smallest sorted id sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional

import numpy as np

from .constraints import extend_to_basis, feasibility_of_masks, is_basis
from .errors import (
    InfeasibleInstanceError,
    NotABasisError,
    UnsupportedConstraintError,
    canonical,
    mask_array,
    mask_of,
    members,
    popcount,
    require_work,
    subsets_up_to,
)
from .intervals import certified_log_gt
from .model import Committee, Instance, _layers, rng_from_seed
from .scoring import Score, score, score_masks


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


# committees per block of Global's masks: a block's arrays hold tens of
# thousands of entries, whatever the size of the family
_BLOCK = 1 << 14


def _blocks(layers):
    """The masks of ``layers``, in order, as arrays of _BLOCK to 2 * _BLOCK
    masks (the last may hold fewer)."""
    parts, held = [], 0
    for layer in layers:
        for lo in range(0, len(layer), _BLOCK):
            parts.append(layer[lo : lo + _BLOCK])
            held += len(parts[-1])
            if held >= _BLOCK:
                yield np.concatenate(parts)
                parts, held = [], 0
    if held:
        yield np.concatenate(parts)


def solve_global(instance: Instance, rule: str) -> SolveResult:
    """Exact maximizer of the rule's score over the feasibility family.

    A non-explicit family is enumerated as every committee of size <= k,
    and refused up front when those exceed the work limit; an explicit
    family is walked as given.  The committees are decided in blocks of
    masks, each by one ``score_masks`` call, and ``score`` runs once, on
    the winner."""
    instance.require_k_mode("solve_global")
    P, k = instance.feasibility, instance.k
    if P.kind == "explicit":
        sets = sorted((T for T in P.sets if len(T) <= k), key=canonical)
        # a set may name ids outside the instance: they count for no voter,
        # and ``Instance.committee`` refuses a winner holding one
        universe = sorted(set(instance.candidates).union(*sets))
        layers = [mask_array([mask_of(universe, T) for T in sets], len(universe))]
        feasible = None  # each set is a member
    else:
        require_work(subsets_up_to(instance.m, k), "Global's committee enumeration")
        universe = sorted(instance.candidates)
        layers = _layers(len(universe), k)
        feasible = feasibility_of_masks(P, universe)
    best = best_size = best_mask = None
    count = 0
    for masks in _blocks(layers):
        if feasible is not None:
            masks = masks[feasible(masks)]
            if not len(masks):
                continue
        count += len(masks)
        keys, den = score_masks(rule, instance, universe, masks)
        # masks arrive in the canonical order, so among score ties the
        # first of the largest size is the lexicographically smallest one
        tied = np.flatnonzero(keys == keys.max())
        sizes = popcount(masks[tied])
        j = tied[np.argmax(sizes)]
        key = keys[j : j + 1].tolist()[0]  # a Python number, whatever the dtype
        value = key if den == 1 else Fraction(key, den)
        if best is None or value > best or (value == best and sizes.max() > best_size):
            best, best_size, best_mask = value, sizes.max(), int(masks[j])
    if best is None:
        raise InfeasibleInstanceError("the feasibility family is empty")
    committee = instance.committee(members(universe, best_mask))
    return SolveResult(committee, score(rule, instance, committee), iterations=count)


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
        instance.require_candidates(W)
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
