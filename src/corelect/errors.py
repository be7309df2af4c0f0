"""Exception types shared across the library, the one work limit every
exhaustive search is held to, and the canonical subset order every
enumeration follows, as frozensets or as bitmasks over a sorted universe
(bit i standing for its i-th member)."""

import itertools
import math

import numpy as np

# the most steps (subsets, committees or table entries) any exhaustive
# search may take; each entry point estimates its steps before it starts
WORK_LIMIT = 1 << 20


class CorelectError(Exception):
    """Base class for all library errors."""


class MalformedUtilityError(CorelectError):
    """A utility oracle is inconsistent with its declared kind."""


class EnumerationLimitError(CorelectError):
    """An exhaustive search would take more than WORK_LIMIT steps; the
    message states the estimated steps."""


def canonical(T) -> tuple:
    """The sort key of the canonical subset order: size, then sorted ids."""
    T = sorted(T)
    return len(T), T


def subsets(pool, sizes):
    """The subsets of ``pool`` of the given sizes, as frozensets in the
    canonical order: the sizes as given, then lexicographic in sorted ids."""
    pool = sorted(pool)
    for size in sizes:
        yield from map(frozenset, itertools.combinations(pool, size))


def subsets_up_to(m: int, size: int) -> int:
    """The number of subsets of an m-set with at most ``size`` members,
    which ``subsets(pool, range(size + 1))`` yields."""
    return sum(math.comb(m, s) for s in range(min(size, m) + 1))


def members(universe, mask: int) -> frozenset:
    """The members of ``universe`` whose bits are set in ``mask``, read
    off the set bits, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(universe[low.bit_length() - 1])
        mask ^= low
    return frozenset(out)


def indices(bits: int) -> list:
    """The set bits of ``bits``, ascending."""
    return sorted(members(range(bits.bit_length()), bits))


def popcount(masks):
    """The set bits of each mask, as an int64 array: int64 masks at once,
    masks held as Python ints (an object array) one by one."""
    if masks.dtype == object:
        return np.fromiter((int(x).bit_count() for x in masks), np.int64, len(masks))
    return np.bitwise_count(masks).astype(np.int64)


def require_work(steps: int, what: str) -> None:
    """Refuse ``what`` up front when its estimated ``steps`` exceed WORK_LIMIT."""
    if steps > WORK_LIMIT:
        raise EnumerationLimitError(
            f"{what} would take {steps} steps, over the work limit {WORK_LIMIT}"
        )


class RuleMismatchError(CorelectError):
    """A scoring rule was applied to utilities it does not support."""


class UnsupportedConstraintError(CorelectError):
    """The operation requires a matroid-kind feasibility family."""


class NotABasisError(CorelectError):
    """A committee expected to be a matroid basis is not one."""


class MatroidAxiomViolation(CorelectError):
    """An independence oracle violated the matroid axioms."""


class CannotCompleteError(CorelectError):
    """No basis is reachable from the given pool."""


class InfeasibleInstanceError(CorelectError):
    """The feasibility family is empty or the mode is wrong for the call."""


class OutOfRegionError(CorelectError):
    """Inputs violate a constructor's precondition region."""


class ParameterError(CorelectError):
    """Generator parameters fail an integrality or positivity requirement."""
