"""Taylor coefficients of the dyadic product and its Borel-style transform.

Expanding prod_k (1 - (z/2^k)^{2^k}) picks one term per factor, so a
nonzero coefficient of z^m exists exactly when m decomposes into distinct
powers 2^k with k >= 1, i.e. when m is even; the coefficient is then a signed
power of two read off m's binary expansion.  This gives an O(popcount)
closed-form indexer, with no series manipulation at all.

The transform g(s) = sum_m c_m / s^{m+1} (c_m = m! * a_m) converges for
|s| > 4/e = 1.4715, the exponential type of the product (limsup of
|c_m|^{1/m}), and is evaluated by direct summation on whole arrays of s,
with an analytic envelope controlling truncation node by node.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lognum import LN2

#: g is evaluated only at |s| >= MIN_MODULUS, a chosen floor well outside
#: the radius of convergence 4/e, where the terms fall off fast enough for
#: the term budget; contour paths must keep to the same region
MIN_MODULUS = 2.5

#: summation stops once the envelope of every remaining term falls below
#: this fraction of the partial sum
_TERM_FLOOR = 1e-18

#: length of the coefficient table; the stop rule ends every node by
#: m = 222, the worst case (|s| = MIN_MODULUS with the partial sum at its
#: 1e-30 floor)
_MAX_TERMS = 256

#: the stop rule is tested after every _STOP_STRIDE-th nonzero term, which
#: halves the numpy calls per term at the cost of at most 3 extra terms
_STOP_STRIDE = 4


class BorelDomainError(ValueError):
    """Evaluation requested at a non-finite s or inside the refused disc
    |s| < MIN_MODULUS, a floor chosen outside the convergence radius 4/e."""


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


def term_envelope(m: int, log_abs_s):
    """Log of an upper bound for |c_m / s^{m+1}|, valid for m >= 2.

    log_abs_s may be a float or an array of log |s|.

    Combines Stirling (m! <= sqrt(2 pi m) (m/e)^m e^{1/(12m)}) with the
    bit-weight bound |a_m| <= (4/m)^m; the envelope decreases monotonically
    in m once |s| > 4 * sqrt(2) / e.
    """
    return (
        0.5 * math.log(2.0 * math.pi * m)
        + m * (2.0 * LN2 - 1.0 - log_abs_s)
        + 1.0 / (12.0 * m)
    )


#: nonzero Taylor data as (m, c_m), c_m = m! a_m correctly rounded, for
#: m < _MAX_TERMS
_COEFFS = tuple(
    (m, sign * (math.factorial(m) / 2 ** int(-log2_a)))
    for m in range(_MAX_TERMS)
    for sign, log2_a in (CoefficientStream().taylor_coefficient(m),)
    if sign
)


@dataclass(frozen=True)
class BorelEvaluator:
    """Evaluates g(s) = sum c_m / s^{m+1} at finite |s| >= MIN_MODULUS.

    `at` sums the series on whole node arrays with plain adds.  A node stops
    once term_envelope bounds every remaining term by _TERM_FLOOR times its
    own partial sum, and its sum is copied out then, so its value does not
    depend on the rest of the batch: one s is the same sum as a batch of one.
    """

    #: first series index summed; min_index=2 gives the tail g(s) - 1/s
    #: (c_1 = 0), kept as its own evaluator so quadrature of the smooth
    #: remainder never forms the cancellation-prone difference explicitly
    min_index: int = 0

    def __post_init__(self) -> None:
        if self.min_index < 0:
            raise ValueError("min_index must be >= 0")

    def __call__(self, s: complex) -> complex:
        return complex(self.at([complex(s)])[0])

    def at(self, s) -> np.ndarray:
        """g on every node of the array s."""
        s = np.asarray(s, dtype=complex)
        finite = np.isfinite(s)
        if not np.logical_and.reduce(finite, None):
            raise BorelDomainError(f"s = {complex(s[~finite][0])!r} is not finite")
        mod = np.abs(s)
        # slack of a few ulps: parametrized points on the boundary circle
        # itself can round fractionally inward, and those must be served
        inside = mod < MIN_MODULUS * (1.0 - 4e-16)
        if np.logical_or.reduce(inside, None):
            raise BorelDomainError(
                f"|s|={mod[inside][0]:.6g} inside refused disc of radius "
                f"{MIN_MODULUS}"
            )
        # u = 1/s by Smith's rule, then u^{m+1} by repeated multiplication
        # by u^2, in real arithmetic: only +, x and / act on the components,
        # so zeros on the axes stay exact, and conjugating or negating s
        # conjugates or negates every power bit for bit
        a, b = s.real, s.imag
        swap = np.abs(b) > np.abs(a)
        big, small = a.copy(), b.copy()
        big[swap], small[swap] = b[swap], a[swap]
        # den would overflow for |s| near 2^1024: such s are divided by 4
        # (exact) and u by 4 again after; every other s keeps its bits
        quarter = 1.0
        if np.maximum.reduce(mod, None, initial=0.0) >= 2.0**1022:
            quarter = 0.25 + 0.75 * (mod < 2.0**1022)  # 1 or 0.25, exactly
            big, small = big * quarter, small * quarter
        ratio = small / big
        den = big + small * ratio
        # w = u^{m+1}, starting at u: (ratio - i) / den where swapped,
        # (1 - i ratio) / den elsewhere
        wr, wi = ratio[...], (-ratio)[...]  # arrays for a 0-d s too
        wr[~swap], wi[swap] = 1.0, -1.0
        wr = wr / den * quarter
        wi = wi / den * quarter
        u2r = wr * wr - wi * wi
        u2i = 2.0 * wr * wi
        log_abs_s = np.log(mod)
        acc_r = np.zeros(s.shape)
        acc_i = np.zeros(s.shape)
        out = np.empty(s.shape, dtype=complex)
        active = np.ones(s.shape, dtype=bool)
        for k, (m, c) in enumerate(_COEFFS):
            if m >= self.min_index:
                acc_r += c * wr
                acc_i += c * wi
                if k % _STOP_STRIDE == _STOP_STRIDE - 1:
                    # a node stops once the envelope bounds every term from
                    # m + 2 on (odd m have c_m = 0); later terms it gets are
                    # discarded
                    size2 = np.maximum(acc_r * acc_r + acc_i * acc_i, 1e-60)
                    running = (term_envelope(m + 2, log_abs_s)
                               > math.log(_TERM_FLOOR) + 0.5 * np.log(size2))
                    stop = active & ~running
                    out.real[stop] = acc_r[stop]
                    out.imag[stop] = acc_i[stop]
                    active &= running
                    if not np.logical_or.reduce(active):
                        return out
            wr, wi = wr * u2r - wi * u2i, wr * u2i + wi * u2r
        raise ArithmeticError(f"series did not settle within {_MAX_TERMS} terms")


def write_coeffs_csv(m_max: int, path) -> None:
    """Export columns m, sign, log2_abs_a, log_abs_c for m = 0..m_max.

    Zero coefficients are written only up to m = 64; beyond that the zero
    rows carry no information and are omitted.
    """
    from .csvio import fmt, write_rows

    stream = CoefficientStream()
    rows = []
    for m in range(m_max + 1):
        sign, log2_a = stream.taylor_coefficient(m)
        if sign == 0 and m > 64:
            continue
        _, log_c = stream.derivative_at_zero(m)
        rows.append((str(m), str(sign), fmt(log2_a), fmt(log_c)))
    write_rows(path, ("m", "sign", "log2_abs_a", "log_abs_c"), rows)
