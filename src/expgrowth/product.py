"""Evaluation of the canonical product with zeros on the dyadic lattice.

The product collapses circle by circle: the 2^k-th roots of unity scaled by
2^k contribute jointly the single factor 1 - (z/2^k)^{2^k}, so the closed
form needs only O(log|z|) factors.  A per-zero product over materialized
lattice circles is kept as an independent cross-check oracle.  All factor
arithmetic happens in the log domain because (z/2^k)^{2^k} overflows binary64
already at moderate |z|: ProductEvaluator.log_f returns log f = log|f| +
i arg f as a complex array for a whole array of z, and every other
closed-form evaluation here is a call of it.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .lattice import ZeroLattice
from .lognum import TAU, LogComplex, cis


@dataclass(frozen=True)
class GrowthProfile:
    """Samples of log|f(r e^{i theta})|/r along one ray.

    values may contain -inf where the ray hits an exact zero; consumers are
    expected to treat those samples as an exceptional set.
    """

    function_id: str
    theta: float
    radii: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        radii = np.asarray(self.radii, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "values", values)
        if radii.ndim != 1 or radii.shape != values.shape:
            raise ValueError("radii and values must be 1-d and equally long")
        if radii.size and (radii[0] <= 0.0 or np.any(np.diff(radii) <= 0.0)):
            raise ValueError("radii must be positive and strictly increasing")


def dyadic_radii(k_lo: int, k_hi: int, per_window: int = 256) -> np.ndarray:
    """Geometric grid over [2^k_lo, 2^k_hi] hitting every dyadic radius exactly.

    Each window [2^k, 2^(k+1)) receives per_window samples including its left
    endpoint.  per_window must be a power of two so the log2 steps, and hence
    the window boundaries, are exact in binary64.
    """
    if k_hi <= k_lo:
        raise ValueError("need k_lo < k_hi")
    if per_window < 1 or per_window & (per_window - 1):
        raise ValueError("per_window must be a power of two")
    exps = np.linspace(k_lo, k_hi, (k_hi - k_lo) * per_window + 1)
    return np.exp2(exps)


#: points per block of the array core: bounds the (circles x points)
#: temporaries to a few hundred kB whatever the batch size
_BLOCK = 128

#: largest cutoff K with 2^K * tau finite in binary64
_MAX_CUTOFF = 1021

#: circles kept beyond the two that bring |z|/2^K under 1/4; see cutoff()
_TAIL_MARGIN = 6

#: circle indices k and their exact powers n = 2^k, up to _MAX_CUTOFF
_KS = np.arange(1, _MAX_CUTOFF + 1)[:, None]
_POW2 = np.ldexp(1.0, _KS)


def _log_f_block(radii: np.ndarray, phi: np.ndarray, cutoffs: np.ndarray):
    """log|f| and arg f for one block of points; see ProductEvaluator.log_f."""
    k_max = int(cutoffs.max())
    n = _POW2[:k_max]
    # w^n = e^{x+iy} for w = z/n: dividing |z| by n is exact, so the huge
    # power loses no accuracy to the base; circles past the cutoff get
    # x = -inf, which makes their factor exactly 1
    x = np.where(_KS[:k_max] <= cutoffs, np.log(radii / n) * n, -math.inf)
    # y modulo fl(tau), exactly: fmod, then a Sterbenz subtraction
    y = np.fmod(phi * n, TAU)
    y -= TAU * np.rint(y / TAU)
    # 1 - e^{x+iy} (divided by e^x when x > 0) from expm1(-|x|) and
    # 2 sin^2(y/2), which do not cancel near zeros
    em1 = np.expm1(-np.abs(x))
    scale = np.exp(np.minimum(x, 0.0))
    s = np.sin(0.5 * y)
    re = 2.0 * scale * s * s - np.copysign(em1, x)
    im = -scale * np.sin(y)
    # accumulate, unlike sum, adds in the order k = 1, 2, ... whatever the
    # array shape, which keeps every value independent of its batch
    mag = np.add.accumulate(np.maximum(x, 0.0) + np.log(np.hypot(re, im)), axis=0)
    # arguments are summed in half turns, so a real f keeps an exact sign
    turns = np.add.accumulate(np.arctan2(im, re) / math.pi, axis=0)[-1]
    t = (turns - 2.0 * np.rint(0.5 * turns)) * math.pi
    return mag[-1], np.where(t == -math.pi, math.pi, t)


@dataclass(frozen=True)
class ProductEvaluator:
    """Evaluates f(z) = prod_k (1 - (z/2^k)^{2^k}) for a given lattice."""

    lattice: ZeroLattice

    def cutoff(self, z: complex) -> int:
        """Number of closed-form factors; guarantees 2^K >= 256*max(|z|, 1).

        Every omitted factor k > K satisfies |(z/2^k)^{2^k}| <= 2^{-8*2^k}, so
        the truncated tail is negligible relative to machine precision.
        """
        return int(self._cutoffs(abs(complex(z))))

    def _cutoffs(self, radii):
        """cutoff() of every radius, exact in binary64."""
        frac, exps = np.frexp(np.maximum(radii, 1.0))
        return exps - (frac == 0.5) + (2 + _TAIL_MARGIN)

    def _is_lattice_zero(self, z: complex) -> bool:
        """Bit-exact membership test against the (possibly rotated) lattice."""
        r = abs(z)
        # a zero of circle 1 may have |z| one ulp below 2
        if not 1.0 < r < math.inf:
            return False
        _, e = math.frexp(r)
        for k in (e - 1, e):
            if k < 1 or k > 1023:
                continue
            rk = math.ldexp(1.0, k)
            if abs(r - rk) > 4.0 * math.ulp(rk):
                continue
            n = 1 << k
            phi = cmath.phase(z) - self.lattice.rotation
            j = round(phi * n / TAU)
            # the rounded angle index can be off by one near cell boundaries
            for jj in (j - 1, j, j + 1):
                if z == self.lattice.zero(k, jj % n):
                    return True
        return False

    def log_f(self, zs) -> np.ndarray:
        """log f = log|f| + i arg f at every point of a 1-d complex array.

        The real part is -inf at lattice zeros, where the imaginary part is
        0; elsewhere the imaginary part lies in (-pi, pi].  Blocks of _BLOCK
        points are evaluated as (circles x points) arrays; circles past a
        point's own cutoff contribute exactly 0 and circles are summed in the
        order k = 1, 2, ..., so no value depends on its batch.  ValueError
        for a non-finite z or a cutoff circle beyond binary64.
        """
        zs = np.asarray(zs, dtype=complex)
        radii = np.abs(zs)
        r_max = float(radii.max(initial=0.0))
        if not math.isfinite(r_max):
            raise ValueError("f is evaluated only at finite z")
        if r_max > math.ldexp(1.0, _MAX_CUTOFF - 2 - _TAIL_MARGIN):
            raise ValueError("|z| = %r is too large: the cutoff circle 2^%d "
                             "exceeds binary64" % (r_max, self.cutoff(r_max)))
        cutoffs = self._cutoffs(radii)
        phi = np.arctan2(zs.imag, zs.real) - self.lattice.rotation
        out = np.empty(zs.size, dtype=complex)
        with np.errstate(divide="ignore"):
            for lo in range(0, zs.size, _BLOCK):
                rows = slice(lo, lo + _BLOCK)
                out.real[rows], out.imag[rows] = _log_f_block(
                    radii[rows], phi[rows], cutoffs[rows])
        # only points within a few ulps of a dyadic radius can be lattice
        # zeros, so the scalar membership test runs on those alone
        near = np.abs(np.frexp(radii)[0] - 0.75) >= 0.25 - 2.0**-49
        for i in np.flatnonzero(near):
            if self._is_lattice_zero(complex(zs[i])):
                out[i] = -math.inf
        out.imag[out.real == -math.inf] = 0.0
        return out

    def eval_log_f(self, z: complex) -> LogComplex:
        """f(z) in log form: a length-1 call of log_f.

        Exact -inf at lattice zeros, bit for bit the value of the same point
        in any batch; the cutoff depends only on |z|.
        """
        lf = complex(self.log_f([complex(z)])[0])
        return LogComplex(lf.real, lf.imag)

    def eval_log_f_direct(self, z: complex, k_cut: int) -> LogComplex:
        """Genus-0 per-zero product over circles 1..k_cut (cross-check oracle).

        No exponential convergence factors are needed: the reciprocal sum
        over each circle vanishes identically.
        """
        z = complex(z)
        mag_parts = []
        arg_parts = []
        for k in range(1, k_cut + 1):
            w = 1.0 - z / self.lattice.circle(k)
            if np.any(w == 0):
                return LogComplex(-math.inf, 0.0)
            mag_parts.append(math.fsum(np.log(np.abs(w))))
            arg_parts.append(math.fsum(np.angle(w)))
        # the argument reduced to (-pi, pi]
        arg = math.remainder(math.fsum(arg_parts), TAU)
        return LogComplex(math.fsum(mag_parts), arg + TAU if arg <= -math.pi else arg)

    def profile_on(
        self, theta: float, radii: np.ndarray, *, function_id: str = "f"
    ) -> GrowthProfile:
        """Profile on a caller-supplied radius grid (e.g. dyadic_radii).

        One log_f call on the points r e^{i theta}; exact lattice zeros on
        the ray give -inf.
        """
        radii = np.asarray(radii, float)
        log_mag = self.log_f(radii * cis(theta)).real
        return GrowthProfile(function_id, theta, radii, log_mag / radii)

    def max_modulus(self, r: float, n_theta: int) -> float:
        """log M_f(r)/r estimated over n_theta equally spaced angles.

        A lower bound of the true maximum, from one log_f call on the
        angles.  The fixed 0.5 rad offset keeps every sample angle off the
        lattice directions 2*pi*j/2^k (equality would force 1/(4*pi) to be
        rational), and angle sets nest whenever n_theta divides the finer
        count, making the estimate nondecreasing under such refinement.
        """
        if r <= 0.0:
            raise ValueError("r must be positive")
        if n_theta < 8:
            raise ValueError("need n_theta >= 8")
        directions = cis(0.5 + TAU * np.arange(n_theta) / n_theta)
        return float(self.log_f(r * directions).real.max()) / r


def write_profile_csv(profiles, path) -> None:
    """Export profiles as columns function_id, theta, r, value."""
    with open(path, "w", encoding="ascii") as out:
        out.write("function_id,theta,r,value\n")
        for p in profiles:
            out.write("".join([
                "%s,%.17g,%.17g,%.17g\n" % (p.function_id, p.theta, r, v)
                for r, v in zip(p.radii.tolist(), p.values.tolist())
            ]))
