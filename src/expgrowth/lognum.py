"""Overflow-free complex values in the log domain.

log f is carried as one complex number log|f| + i arg f, with the argument
in (-pi, pi].  This lets the rest of the library evaluate products and sums
whose true magnitudes span roughly e^{-3000} .. e^{+3000} without ever
leaving IEEE binary64.  An exact zero is encoded as log magnitude -inf with
argument 0.  Every helper here works elementwise on arrays;
ProductEvaluator.log_f produces such arrays and `exp` turns them into f.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

LN2 = math.log(2.0)
TAU = math.tau

# exp() overflows above this; `exp` saturates to a directed infinity
_EXP_MAX = math.log(sys.float_info.max)


def cis(a):
    """exp(i*a) on an array of angles, exact at 0, +-pi/2 and +-pi.

    cos(pi/2) and sin(pi) leak ~1e-16; real-negative values are too common
    here (every odd power of -1) to tolerate that.
    """
    a = np.asarray(a, dtype=float)
    size = np.abs(a)
    out = np.empty(a.shape, dtype=complex)
    out.real = np.where(size == 0.5 * math.pi, 0.0, np.cos(a))
    out.imag = np.where(size == math.pi, 0.0, np.sin(a))
    return out


def exp(log_f):
    """f from log f = log|f| + i arg f, elementwise.

    Beyond binary64 each component saturates on its own to a signed inf, or
    stays 0 where cis(arg) has an exact zero (inf * 0 would be nan).  The
    magnitude is libm's exp (math.exp): numpy's vectorized exp differs from
    it in the last bit on a few percent of arguments, and the f values the
    CLI writes keep libm's bits.
    """
    log_f = np.asarray(log_f, dtype=complex)
    mag = log_f.real.ravel()
    c = cis(log_f.imag.ravel())
    out = np.fromiter(map(math.exp, np.minimum(mag, _EXP_MAX).tolist()),
                      float, mag.size) * c
    big = mag > _EXP_MAX
    if big.any():
        parts = c[big].view(float)
        out[big] = np.where(parts != 0.0, np.copysign(math.inf, parts),
                            0.0).view(complex)
    return out.reshape(log_f.shape)[()]


def log_sub(log_a, log_b):
    """log(a - b) from log a and log b, elementwise.

    Both operands are rescaled by the larger log magnitude, so the real part
    does not depend on the order of the operands, bit for bit.  Where b = 0
    the result is log a bit for bit; exact cancellation gives the canonical
    zero -inf + 0i.
    """
    log_a, log_b = np.broadcast_arrays(np.asarray(log_a, dtype=complex),
                                       np.asarray(log_b, dtype=complex))
    shape = log_a.shape
    log_a, log_b = log_a.ravel(), log_b.ravel()
    m = np.maximum(log_a.real, log_b.real)
    m[m == -math.inf] = 0.0  # 0 - 0: any finite scale gives w = 0
    w = exp(log_a - m) - exp(log_b - m)
    arg = np.arctan2(w.imag, w.real)
    arg[arg == -math.pi] = math.pi
    arg[w == 0] = 0.0
    out = np.empty(w.shape, dtype=complex)
    with np.errstate(divide="ignore"):
        out.real = m + np.log(np.abs(w))
    out.imag = arg
    return np.where(log_b.real == -math.inf, log_a, out).reshape(shape)[()]


@dataclass(frozen=True)
class LogComplex:
    """A complex value as (ln magnitude, argument in (-pi, pi])."""

    log_mag: float
    arg: float

    def to_complex(self) -> complex:
        return complex(exp(complex(self.log_mag, self.arg)))

    @property
    def is_zero(self) -> bool:
        return self.log_mag == -math.inf
