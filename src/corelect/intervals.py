"""Directed interval arithmetic for comparisons that involve ln and e.

Every check either certifies a strict ordering (the intervals separate)
or escalates precision; a straddle at the highest precision raises.
Exact ties must be resolved by the caller before asking for a certificate.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from fractions import Fraction

from mpmath import iv

from .errors import CorelectError

PRECISIONS = (128, 256, 512, 1024, 2048)


class IntervalStraddle(CorelectError):
    """The interval comparison failed to separate at maximum precision."""


@contextmanager
def precision(bits: int):
    """Run a block at ``bits`` of interval precision, then restore the old one."""
    old = iv.prec
    iv.prec = bits
    try:
        yield
    finally:
        iv.prec = old


def iv_fraction(x):
    """Enclosing interval of an exact rational."""
    fr = Fraction(x)
    return iv.mpf(fr.numerator) / iv.mpf(fr.denominator)


def endpoint_fraction(endpoint) -> Fraction:
    """The exact rational value of one endpoint of an interval's ``_mpi_``."""
    sign, man, exp, _ = endpoint
    fr = Fraction(int(man)) * Fraction(2) ** exp
    return -fr if sign else fr


def exp_upper(B) -> Fraction:
    """e^B rounded up to 10 decimal places: a rational over-approximation,
    sound for pass-direction checks only (passing is monotone in gamma)."""
    with precision(256):
        hi = endpoint_fraction(iv.exp(iv.mpf(B))._mpi_[1])
    scale = 10**10
    return Fraction(math.ceil(hi * scale), scale)


def certify_less(lhs_builder, rhs_builder) -> bool:
    """True if lhs < rhs certified, False if rhs < lhs certified.

    The builders are re-invoked at escalating precision; they must return
    iv quantities built from iv operations only.
    """
    for bits in PRECISIONS:
        with precision(bits):
            lhs = lhs_builder()
            rhs = rhs_builder()
            if lhs.b < rhs.a:
                return True
            if rhs.b < lhs.a:
                return False
    raise IntervalStraddle("intervals did not separate at maximum precision")


def certified_log_le(ratio, bound) -> bool:
    """Certify ln(ratio) <= bound for exact rational ratio > 0 and bound.

    Exact equality is only possible at ratio = 1, bound = 0, which is
    decided without intervals.
    """
    ratio = Fraction(ratio)
    bound = Fraction(bound)
    if ratio <= 0:
        raise ValueError("ratio must be positive")
    if ratio == 1:
        return bound >= 0
    return certify_less(lambda: iv.log(iv_fraction(ratio)), lambda: iv_fraction(bound))


def certified_log_gt(ratio, bound) -> bool:
    """Certify ln(ratio) > bound (same exactness caveats as above)."""
    ratio = Fraction(ratio)
    bound = Fraction(bound)
    if ratio <= 0:
        raise ValueError("ratio must be positive")
    if ratio == 1:
        return bound < 0
    return certify_less(lambda: iv_fraction(bound), lambda: iv.log(iv_fraction(ratio)))
