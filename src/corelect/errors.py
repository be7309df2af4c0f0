"""Exception types shared across the library, the one work limit every
exhaustive search is held to, and the canonical subset order every
enumeration follows, as frozensets or as bitmasks over a sorted universe
(bit i standing for its i-th member), in the one format of mask arrays."""

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


def as_frozen(T) -> frozenset:
    """T as a frozenset, itself when it is one."""
    return T if isinstance(T, frozenset) else frozenset(T)


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


# every integer an int64 array holds stays below this in magnitude
INT64_BOUND = 1 << 63


def exact_ints(values, bound: int):
    """Integers as int64 when every magnitude formed from them is below
    ``bound``, else as exact Python ints; an array of that dtype as it is."""
    return np.asarray(values, dtype=np.int64 if bound < INT64_BOUND else object)


def mask_array(values, m: int):
    """Bitmasks over m bits as an array: int64 up to 63 bits, else Python ints."""
    return np.array(values, dtype=np.int64 if m < 64 else object)


def mask_of(universe, ids) -> int:
    """The bitmask of ``ids`` over ``universe``: bit i for ``universe[i]`` in ids."""
    return sum(1 << i for i, c in enumerate(universe) if c in ids)


def words(masks, m: int):
    """Each mask of a ``mask_array`` as a row of ceil(m / 64), at least one,
    little-endian uint64 words, bit i in word i // 64 (int64 masks viewed)."""
    if masks.dtype != object:
        return masks.astype("<i8", copy=False).reshape(-1, 1).view("<u8")
    size = 8 * max(1, -(-m // 64))
    data = b"".join([x.to_bytes(size, "little") for x in masks.tolist()])
    return np.frombuffer(data, "<u8").reshape(len(masks), size // 8)


def member_matrix(rows, m: int):
    """The 0/1 member matrix of ``words`` rows, bit i of each mask in column i."""
    return np.unpackbits(rows.view(np.uint8), axis=1, count=m, bitorder="little")


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
