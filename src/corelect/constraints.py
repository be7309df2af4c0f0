"""Feasibility families over committees, completability, and matroid tools.

A family decides membership of candidate subsets; matroid-kind families
(cardinality, partition, independence oracle) additionally expose the
structure needed by swap-based local search: basis tests, greedy basis
extension, and the basis-exchange bijection.  All searches are
deterministic with lexicographic tie-breaking by candidate id.

Cardinality, partition, packing and covering families are counted kinds:
each declares its rows once, as ``bounds`` (candidate set, least, most),
and T is in the family exactly when |T| <= k and every row holds between
least and most members of T.  The one ``FeasibilityFamily.contains``
reads them, and so does ``feasibility_of_masks``, which counts members
against row masks.  Explicit and matroid-oracle families, and subclasses
that override ``contains``, are decided committee by committee.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import (
    CannotCompleteError,
    EnumerationLimitError,
    MatroidAxiomViolation,
    NotABasisError,
    as_frozen,
    canonical,
    mask_array,
    mask_of,
    members,
    popcount,
    require_work,
    subsets,
)


class FeasibilityFamily:
    """Base class.  Subclasses decide membership of subsets of candidates:
    a counted kind by its ``bounds``, any other by its own ``contains``."""

    kind: str = "abstract"
    is_matroid: bool = False
    is_downward_closed: bool = False
    # [(candidate set, least, most)], or None for a kind not counted by rows
    bounds: Optional[Sequence[tuple]] = None

    def __init__(self, k: int):
        self.k = int(k)
        self.universe: Optional[tuple] = None

    def bind(self, universe: Sequence[int]) -> "FeasibilityFamily":
        self.universe = tuple(sorted(set(universe)))
        return self

    def contains(self, T: Iterable[int]) -> bool:
        if self.bounds is None:
            raise NotImplementedError
        T = as_frozen(T)
        return len(T) <= self.k and all(lo <= len(T & s) <= hi for s, lo, hi in self.bounds)

    def to_json(self) -> dict:
        raise NotImplementedError

    def __repr__(self):
        return f"<{type(self).__name__} k={self.k}>"


class CardinalityFamily(FeasibilityFamily):
    kind = "cardinality"
    is_matroid = True
    is_downward_closed = True
    bounds = ()

    def independent(self, T):
        return self.contains(T)

    def to_json(self):
        return {"kind": "cardinality"}


class ExplicitFamily(FeasibilityFamily):
    kind = "explicit"

    def __init__(self, sets: Iterable[Iterable[int]], k: int):
        super().__init__(k)
        self.sets = frozenset(as_frozen(s) for s in sets)

    def contains(self, T):
        T = as_frozen(T)
        return len(T) <= self.k and T in self.sets

    def to_json(self):
        return {"kind": "explicit", "sets": sorted((sorted(s) for s in self.sets))}


class PartitionMatroidFamily(FeasibilityFamily):
    """Disjoint groups with per-group caps; ungrouped candidates are free."""

    kind = "partition"
    is_matroid = True
    is_downward_closed = True

    def __init__(self, groups: Sequence[Iterable[int]], caps: Sequence[int], k: int):
        super().__init__(k)
        groups = [frozenset(g) for g in groups]
        caps = [int(c) for c in caps]
        if len(groups) != len(caps):
            raise ValueError("one cap per group required")
        if any(c < 0 for c in caps):
            raise ValueError("caps must be nonnegative")
        seen = set()
        for g in groups:
            if g & seen:
                raise ValueError("groups must be disjoint")
            seen |= g
        self.bounds = [(g, 0, cap) for g, cap in zip(groups, caps)]

    def independent(self, T):
        return self.contains(T)

    def to_json(self):
        return {
            "kind": "partition",
            "groups": [sorted(g) for g, _, _ in self.bounds],
            "caps": [cap for _, _, cap in self.bounds],
        }


class MatroidOracleFamily(FeasibilityFamily):
    """Independence predicate, trusted only after the axioms verify."""

    kind = "matroid_oracle"
    is_matroid = True
    is_downward_closed = True

    def __init__(self, predicate: Callable[[frozenset], bool], k: int):
        super().__init__(k)
        self.predicate = predicate
        self._verified = False

    def contains(self, T):
        return self.independent(T)

    def independent(self, T):
        T = as_frozen(T)
        return len(T) <= self.k and bool(self.predicate(T))

    def ensure_verified(self):
        if self._verified:
            return
        if self.universe is None:
            raise MatroidAxiomViolation("oracle family must be bound to a universe first")
        ok, witness = verify_matroid_axioms(self, self.universe)
        if not ok:
            raise MatroidAxiomViolation(f"independence oracle fails axioms: {witness}")
        self._verified = True

    def to_json(self):
        raise ValueError("matroid oracles are not JSON-serializable")


class PackingFamily(FeasibilityFamily):
    """Rows (candidate set, cap): at most cap members from each set."""

    kind = "packing"
    is_downward_closed = True

    def __init__(self, rows: Sequence[tuple], k: int):
        super().__init__(k)
        self.bounds = [(frozenset(s), 0, int(cap)) for s, cap in rows]

    def to_json(self):
        return {
            "kind": "packing",
            "rows": [{"set": sorted(s), "cap": cap} for s, _, cap in self.bounds],
        }


class CoveringFamily(FeasibilityFamily):
    """Rows (candidate set, floor): at least floor members from each set."""

    kind = "covering"

    def __init__(self, rows: Sequence[tuple], k: int):
        super().__init__(k)
        # k caps each row: no feasible T has more than k members
        self.bounds = [(frozenset(s), int(lo), self.k) for s, lo in rows]

    def to_json(self):
        return {
            "kind": "covering",
            "rows": [{"set": sorted(s), "min": lo} for s, lo, _ in self.bounds],
        }


def family_from_json(obj: dict, k: int) -> FeasibilityFamily:
    kind = obj.get("kind")
    if kind == "cardinality":
        return CardinalityFamily(k)
    if kind == "explicit":
        return ExplicitFamily(obj["sets"], k)
    if kind == "partition":
        return PartitionMatroidFamily(obj["groups"], obj["caps"], k)
    if kind == "packing":
        return PackingFamily([(r["set"], r["cap"]) for r in obj["rows"]], k)
    if kind == "covering":
        return CoveringFamily([(r["set"], r["min"]) for r in obj["rows"]], k)
    raise ValueError(f"unknown constraint kind {kind!r}")


def is_feasible(P: FeasibilityFamily, T: Iterable[int]) -> bool:
    """Membership verdict, cardinality bound included."""
    return P.contains(T)


def feasibility_of_masks(P: FeasibilityFamily, universe: Sequence[int]):
    """``is_feasible(P, T)`` as a function of an array of bitmasks (bit i
    standing for ``universe[i]``), returning one boolean array.  A counted
    family's members are counted against the row masks of its ``bounds``,
    built here once; any other family, and a subclass that overrides
    ``contains``, is decided mask by mask."""
    rows = P.bounds
    if rows is None or type(P).contains is not FeasibilityFamily.contains:

        def feasible(masks):
            verdicts = (P.contains(members(universe, x)) for x in masks.tolist())
            return np.fromiter(verdicts, bool, len(masks))

        return feasible
    row_masks = mask_array([mask_of(universe, s) for s, _, _ in rows], len(universe))
    least = np.array([lo for _, lo, _ in rows], dtype=np.int64)
    # a row holds at most m members, so a cap past m (a covering row's k may
    # be any size) reads as m, within int64
    most = np.array([min(hi, len(universe)) for _, _, hi in rows], dtype=np.int64)

    def feasible(masks):
        ok = popcount(masks) <= P.k
        if rows:
            held = popcount((masks[:, None] & row_masks).ravel()).reshape(len(masks), len(rows))
            ok &= ((held >= least) & (held <= most)).all(axis=1)
        return ok

    return feasible


def is_q_completable(
    P: FeasibilityFamily,
    hatW: Iterable[int],
    q: int,
    universe: Optional[Sequence[int]] = None,
):
    """Does some W'' with |W''| <= q make hatW + W'' feasible?

    Returns (verdict, witness): the lexicographically-least witness when
    true (searched by size 0 upward, candidates in id order), else None.
    Downward-closed kinds answer directly; general kinds enumerate, and
    since the search stops at its first witness, its subsets are counted
    as they go against the work limit.
    """
    hatW = as_frozen(hatW)
    if q < 0:
        raise ValueError("q must be nonnegative")
    if P.is_downward_closed:
        # any completion contains hatW, so hatW itself must be feasible
        return (True, frozenset()) if P.contains(hatW) else (False, None)
    universe = tuple(universe if universe is not None else (P.universe or ()))
    if not universe:
        raise ValueError("general families need a candidate universe for completion search")
    if isinstance(P, ExplicitFamily):
        extras = [s - hatW for s in P.sets if hatW <= s and len(s) - len(hatW) <= q]
        return (True, min(extras, key=canonical)) if extras else (False, None)
    extras = subsets(set(universe) - hatW, range(q + 1))
    for count, extra in enumerate(extras, 1):
        require_work(count, "the completability search")
        if P.contains(hatW | extra):
            return True, extra
    return False, None


def verify_matroid_axioms(P, universe: Sequence[int]):
    """Exhaustive downward-closure + exchange check of an independence predicate.

    Returns (True, None) or (False, witness-description).  Intended for
    desk-scale universes (at most 12 elements).
    """
    universe = sorted(set(universe))
    if len(universe) > 12:
        raise EnumerationLimitError(f"universe of {len(universe)} exceeds matroid-check cap")
    indep = [T for T in subsets(universe, range(len(universe) + 1)) if P.independent(T)]
    indep_set = set(indep)
    if frozenset() not in indep_set:
        return False, "empty set not independent"
    for T in indep:
        for j in T:
            if T - {j} not in indep_set:
                return False, f"downward closure fails at {sorted(T)} minus {j}"
    for A in indep:
        for B in indep:
            if len(A) > len(B):
                if not any(B | {a} in indep_set for a in A - B):
                    return False, f"exchange fails for A={sorted(A)}, B={sorted(B)}"
    return True, None


def _require_matroid(M: FeasibilityFamily):
    if not M.is_matroid:
        raise MatroidAxiomViolation(f"{M.kind} family is not a matroid kind")
    if isinstance(M, MatroidOracleFamily):
        M.ensure_verified()


def is_basis(M: FeasibilityFamily, T: Iterable[int], universe: Sequence[int]) -> bool:
    """Maximal independent set over the universe (truncated at k)."""
    _require_matroid(M)
    T = as_frozen(T)
    if not M.independent(T):
        return False
    return not any(M.independent(T | {c}) for c in universe if c not in T)

def extend_to_basis(
    M: FeasibilityFamily, T: Iterable[int], pool: Sequence[int], universe=None
) -> frozenset:
    """Greedily (id order) add pool candidates while independent.

    Errors if the result is not a basis of the matroid over ``universe``
    (default: the pool plus T).
    """
    _require_matroid(M)
    T = as_frozen(T)
    if not M.independent(T):
        raise NotABasisError(f"start {sorted(T)} is not independent")
    current = set(T)
    for c in sorted(set(pool) - T):
        if M.independent(current | {c}):
            current.add(c)
    result = frozenset(current)
    check_universe = universe if universe is not None else sorted(set(pool) | T)
    if not is_basis(M, result, check_universe):
        raise CannotCompleteError(
            f"pool cannot complete {sorted(T)} to a basis (reached {sorted(result)})"
        )
    return result


def basis_exchange_bijection(
    M: FeasibilityFamily, W1: Iterable[int], W2: Iterable[int], universe: Sequence[int]
) -> dict:
    """Bijection f on W1-W2 -> W2-W1 with W1 - {e} + {f(e)} independent.

    Computed as a perfect matching on the bipartite graph of valid single
    swaps; a missing matching means the independence oracle lied.
    """
    _require_matroid(M)
    W1, W2 = as_frozen(W1), as_frozen(W2)
    for name, W in (("W1", W1), ("W2", W2)):
        if not is_basis(M, W, universe):
            raise NotABasisError(f"{name} = {sorted(W)} is not a basis")
    left = sorted(W1 - W2)
    right = sorted(W2 - W1)
    if len(left) != len(right):
        raise NotABasisError("bases of unequal size")  # unreachable for true matroids
    edges = {
        e: [f for f in right if M.independent((W1 - {e}) | {f})] for e in left
    }
    match_of_right: dict = {}

    def augment(e, visited):
        for f in edges[e]:
            if f in visited:
                continue
            visited.add(f)
            if f not in match_of_right or augment(match_of_right[f], visited):
                match_of_right[f] = e
                return True
        return False

    for e in left:
        if not augment(e, set()):
            raise MatroidAxiomViolation(
                f"no exchange partner for {e}; the independence oracle is inconsistent"
            )
    return {e: f for f, e in sorted(match_of_right.items(), key=lambda kv: kv[1])}
