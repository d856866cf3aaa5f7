"""Overflow-free complex arithmetic in the log domain.

Values are stored as (natural-log magnitude, argument).  This lets the rest
of the library evaluate products and sums whose true magnitudes span roughly
e^{-3000} .. e^{+3000} without ever leaving IEEE binary64.  An exact zero is
encoded as log magnitude -inf with argument 0.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

LN2 = math.log(2.0)
TAU = math.tau

# exp() overflows above this; to_complex saturates to a directed infinity
_EXP_MAX = math.log(sys.float_info.max)


def wrap_angle(a: float) -> float:
    """Reduce an angle to the half-open interval (-pi, pi]."""
    r = math.remainder(a, TAU)
    if r <= -math.pi:
        r += TAU
    return r


def cis(a: float) -> complex:
    """exp(i*a) with exact values at the four cardinal angles.

    cmath.rect(1, pi) leaks a ~1e-16 imaginary part; real-negative values
    are too common here (every odd power of -1) to tolerate that.
    """
    if a == 0.0:
        return 1.0 + 0.0j
    if a == math.pi or a == -math.pi:
        return -1.0 + 0.0j
    half = 0.5 * math.pi
    if a == half:
        return 1.0j
    if a == -half:
        return -1.0j
    return complex(math.cos(a), math.sin(a))


@dataclass(frozen=True)
class LogComplex:
    """A complex value as (ln magnitude, argument in (-pi, pi])."""

    log_mag: float
    arg: float

    @staticmethod
    def zero() -> "LogComplex":
        return LogComplex(-math.inf, 0.0)

    @staticmethod
    def from_complex(w: complex) -> "LogComplex":
        w = complex(w)
        if w == 0:
            return LogComplex(-math.inf, 0.0)
        return LogComplex(math.log(abs(w)), math.atan2(w.imag, w.real))

    def to_complex(self) -> complex:
        if self.log_mag == -math.inf:
            return 0j
        if self.log_mag > _EXP_MAX:
            # saturate each component on its own: inf * cis(arg) would turn
            # a zero component into inf * 0 = nan
            c = cis(self.arg)
            return complex(math.copysign(math.inf, c.real) if c.real else 0.0,
                           math.copysign(math.inf, c.imag) if c.imag else 0.0)
        return math.exp(self.log_mag) * cis(self.arg)

    @property
    def is_zero(self) -> bool:
        return self.log_mag == -math.inf

    def neg(self) -> "LogComplex":
        if self.is_zero:
            return self
        # branch on the sign instead of wrapping so that negation commutes
        # with conjugation to the last bit (rounding commutes with negation)
        if self.arg > 0.0:
            return LogComplex(self.log_mag, self.arg - math.pi)
        return LogComplex(self.log_mag, self.arg + math.pi)


def lc_add(a: LogComplex, b: LogComplex) -> LogComplex:
    """Add by rescaling both operands by the larger log magnitude.

    The rescaling rule is symmetric, so lc_add(a, b) == lc_add(b, a)
    bit for bit.  Exact cancellation yields the canonical zero.
    """
    if a.is_zero:
        return b
    if b.is_zero:
        return a
    m = max(a.log_mag, b.log_mag)
    w = math.exp(a.log_mag - m) * cis(a.arg) + math.exp(b.log_mag - m) * cis(b.arg)
    if w == 0:
        return LogComplex.zero()
    return LogComplex(m + math.log(abs(w)), math.atan2(w.imag, w.real))
