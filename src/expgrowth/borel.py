"""Taylor coefficients of the dyadic product and its Borel-style transform.

Expanding prod_k (1 - (z/2^k)^{2^k}) picks one term per factor, so a
nonzero coefficient of z^m exists exactly when m decomposes into distinct
powers 2^k with k >= 1, i.e. when m is even; the coefficient is then a signed
power of two read off m's binary expansion.  This gives an O(popcount)
closed-form indexer, with no series manipulation at all.

The transform g(s) = sum_m c_m / s^{m+1} (c_m = m! * a_m) converges outside
the disc |s| <= 2 and is evaluated by direct summation with an analytic
envelope controlling truncation.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

from .lognum import LN2, Accumulator, cis, wrap_angle

#: g is evaluated only at |s| >= MIN_MODULUS, clear of the singular radius 2;
#: contour paths must keep to the same region
MIN_MODULUS = 2.5

#: summation stops once the envelope of every remaining term falls below
#: this fraction of the partial sum
_TERM_FLOOR = 1e-18

#: hard ceiling for the adaptive summation loop; the envelope stops the
#: series near m = 90 even at the slowest admissible modulus
_MAX_TERMS = 4000

#: exact powers of i, indexed mod 4
_UNIT = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)


class BorelDomainError(ValueError):
    """Evaluation requested at a non-finite s or inside the refused disc
    |s| < MIN_MODULUS around the singularities."""


@dataclass(frozen=True)
class CoefficientStream:
    """Closed-form indexer for the Taylor data of the dyadic product."""

    def taylor_coefficient(self, m: int) -> tuple:
        """Coefficient a_m of z^m as (sign, log2 |a_m|).

        sign is -1, 0 or +1; the log2 magnitude is -inf when sign is 0 and
        an exact (negative) integer otherwise.
        """
        if m < 0:
            raise ValueError("m must be >= 0")
        if m == 0:
            return (1, 0.0)
        if m & 1:
            return (0, -math.inf)
        bits = 0
        weight = 0
        k = 1
        mm = m >> 1
        while mm:
            if mm & 1:
                bits += 1
                weight += k << k
            mm >>= 1
            k += 1
        return (-1 if bits & 1 else 1, float(-weight))

    def derivative_at_zero(self, m: int) -> tuple:
        """c_m = f^(m)(0) = m! * a_m as (sign, natural log |c_m|).

        The factorial is applied through log-gamma so the result stays
        finite far beyond m = 170 where m! overflows binary64.
        """
        sign, log2_a = self.taylor_coefficient(m)
        if sign == 0:
            return (0, -math.inf)
        return (sign, math.lgamma(m + 1) + log2_a * LN2)


def term_envelope(m: int, log_abs_s: float) -> float:
    """Log of an upper bound for |c_m / s^{m+1}|, valid for m >= 2.

    Combines Stirling (m! <= sqrt(2 pi m) (m/e)^m e^{1/(12m)}) with the
    bit-weight bound |a_m| <= (4/m)^m; the envelope decreases monotonically
    in m once |s| > 4 * sqrt(2) / e.
    """
    return (
        0.5 * math.log(2.0 * math.pi * m)
        + m * (2.0 * LN2 - 1.0 - log_abs_s)
        + 1.0 / (12.0 * m)
    )


@dataclass(frozen=True)
class BorelEvaluator:
    """Evaluates g(s) = sum c_m / s^{m+1} at finite |s| >= MIN_MODULUS.

    The series is summed until term_envelope bounds every remaining term by
    _TERM_FLOOR times the partial sum.  Repeated evaluations at bit-identical
    points (the common case under node-doubling quadrature) are served from a
    per-instance cache.
    """

    stream: CoefficientStream = CoefficientStream()
    #: first series index summed; min_index=2 gives the tail g(s) - 1/s
    #: (c_1 = 0), kept as its own evaluator so quadrature of the smooth
    #: remainder never forms the cancellation-prone difference explicitly
    min_index: int = 0
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.min_index < 0:
            raise ValueError("min_index must be >= 0")

    def __call__(self, s: complex) -> complex:
        s = complex(s)
        if not cmath.isfinite(s):
            raise BorelDomainError(f"s = {s!r} is not finite")
        # slack of a few ulps: parametrized points on the boundary circle
        # itself can round fractionally inward, and those must be served
        if abs(s) < MIN_MODULUS * (1.0 - 4e-16):
            raise BorelDomainError(
                f"|s|={abs(s):.6g} inside refused disc of radius {MIN_MODULUS}"
            )
        hit = self._cache.get(s)
        if hit is not None:
            return hit
        out = self._sum(s)
        self._cache[s] = out
        return out

    def _sum(self, s: complex) -> complex:
        log_abs_s = math.log(abs(s))
        arg_s = math.atan2(s.imag, s.real)
        # on the axes the powers s^{-(m+1)} cycle through exact units; the
        # generic angle path would leak ~1e-16 junk into the other component
        quarter = None
        if s.imag == 0.0:
            quarter = 0 if s.real > 0.0 else 2
        elif s.real == 0.0:
            quarter = 1 if s.imag > 0.0 else 3
        acc = Accumulator()
        m = self.min_index
        while m < _MAX_TERMS:
            sign, log_abs_c = self.stream.derivative_at_zero(m)
            if sign != 0:
                mag = math.exp(log_abs_c - (m + 1) * log_abs_s)
                if quarter is None:
                    unit = cis(wrap_angle(-(m + 1) * arg_s))
                else:
                    unit = _UNIT[(-quarter * (m + 1)) % 4]
                term = mag * unit
                acc.add(term if sign > 0 else -term)
            m += 1
            if m >= 2:
                # never stop on a zero term: the envelope bounds every term
                # still to come, zero or not
                env = term_envelope(m, log_abs_s)
                if env <= math.log(_TERM_FLOOR * max(abs(acc.total), 1e-30)):
                    return acc.total
        raise ArithmeticError(f"series did not settle within {_MAX_TERMS} terms")


def write_coeffs_csv(stream: CoefficientStream, m_max: int, path) -> None:
    """Export columns m, sign, log2_abs_a, log_abs_c for m = 0..m_max.

    Zero coefficients are written only up to m = 64; beyond that the zero
    rows carry no information and are omitted.
    """
    from .csvio import fmt, write_rows

    rows = []
    for m in range(m_max + 1):
        sign, log2_a = stream.taylor_coefficient(m)
        if sign == 0 and m > 64:
            continue
        _, log_c = stream.derivative_at_zero(m)
        rows.append((str(m), str(sign), fmt(log2_a), fmt(log_c)))
    write_rows(path, ("m", "sign", "log2_abs_a", "log_abs_c"), rows)
