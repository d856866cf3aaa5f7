"""Evaluation of the canonical product with zeros on the dyadic lattice.

The product collapses circle by circle: the 2^k-th roots of unity scaled by
2^k contribute jointly the single factor 1 - (z/2^k)^{2^k}, so the closed
form needs only O(log|z|) factors.  A per-zero product over materialized
lattice circles is kept as an independent cross-check oracle.  All factor
arithmetic happens in the log domain because (z/2^k)^{2^k} overflows binary64
already at moderate |z|: ProductEvaluator.log_f returns log f = log|f| +
i arg f as a complex array for a whole array of z, and log_abs_f its real
part alone, bit for bit; eval_log_f is a call of the one, profile_on and
max_modulus of the other.  A batch runs in blocks of (circles x points)
pairs, at most 2^15 of them, so a growth ray is one or two blocks.  The
full factor and its angle terms are formed only on a block's band, the
pairs that are neither deep, where (|z|/2^k)^{2^k} >= e^40 and the
factor's log modulus is exactly 2^k log(|z|/2^k), nor dead, where the
factor is exactly 1.  No circle is deep below |z| = 100, so there a block's
band is every pair that is not dead, and a single point skips the block
scaffolding and runs the same factor formula on its circles as one
column, so a one-point call costs one point and keeps the bits it has in
any batch.
"""
from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .csvio import row_blocks
from .lattice import ZeroLattice
from .lognum import TAU, LogComplex, cis


@dataclass(frozen=True)
class GrowthProfile:
    """Samples of log|f(r e^{i theta})|/r along one ray.

    values may contain -inf where the ray hits an exact zero; consumers are
    expected to treat those samples as an exceptional set.  radii and
    values are read-only copies, so the window statistics stored here (by
    diagnostics.window_stats) stay those of the samples.
    """

    function_id: str
    theta: float
    radii: np.ndarray
    values: np.ndarray
    # kept for the growth_scan ray op, whose classify reuses window_stats
    _window_stats: dict = field(default_factory=dict, init=False,
                                repr=False, compare=False)

    def __post_init__(self) -> None:
        radii = np.array(self.radii, dtype=float)
        values = np.array(self.values, dtype=float)
        radii.flags.writeable = values.flags.writeable = False
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "values", values)
        if radii.ndim != 1 or radii.shape != values.shape:
            raise ValueError("radii and values must be 1-d and equally long")
        # radii positive at the start, finite at the end and increasing in
        # between (a nan compares false) are all finite: one pass over a
        # valid grid, and the tests within only name what failed
        if radii.size and not (0.0 < radii[0] and radii[-1] < math.inf and
                               np.logical_and.reduce(radii[1:] > radii[:-1])):
            if not np.logical_and.reduce(np.isfinite(radii)):
                raise ValueError("radii must be finite")
            raise ValueError("radii must be positive and strictly increasing")


def dyadic_radii(k_lo: int, k_hi: int, per_window: int = 256) -> np.ndarray:
    """Geometric grid over [2^k_lo, 2^k_hi] hitting every dyadic radius exactly.

    Each window [2^k, 2^(k+1)) receives per_window samples including its left
    endpoint.  per_window must be a power of two so the log2 steps, and hence
    the window boundaries, are exact in binary64: the exponents
    k_lo + i / per_window are np.linspace(k_lo, k_hi, ...) bit for bit.
    TypeError names an argument that is not an integer.
    """
    k_lo, k_hi, per_window = (_integer(name, value) for name, value in (
        ("k_lo", k_lo), ("k_hi", k_hi), ("per_window", per_window)))
    if k_hi <= k_lo:
        raise ValueError("need k_lo < k_hi")
    if per_window < 1 or per_window & (per_window - 1):
        raise ValueError("per_window must be a power of two")
    return np.exp2(k_lo + np.arange((k_hi - k_lo) * per_window + 1) / per_window)


def _integer(name, value):
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError("%s must be an integer, not %r" % (name, value)) from None


#: most (circles x points) pairs per block of the array core: a call whose
#: largest cutoff is K runs blocks of at most _BLOCK_PAIRS // K points, so
#: a 1537-point growth ray is one or two blocks and a temporary is at most
#: 256 kB.  The fastest measured on rays: 2^14 is slower on all three of
#: growth_scan's, 2^16 (one block) on the one from 2^24
_BLOCK_PAIRS = 2**15

#: largest cutoff K with 2^K * tau finite in binary64
_MAX_CUTOFF = 1021

#: circles kept beyond the two that bring |z|/2^K under 1/4; see cutoff()
_TAIL_MARGIN = 6

#: largest |z| whose cutoff circle is at most _MAX_CUTOFF: f's domain
_MAX_RADIUS = math.ldexp(1.0, _MAX_CUTOFF - 2 - _TAIL_MARGIN)

#: the exact powers n = 2^k of circles k = 1 .. _MAX_CUTOFF, as a column
_POW2 = np.ldexp(1.0, np.arange(1, _MAX_CUTOFF + 1))[:, None]


#: x = n log(|z|/n) up to which a circle is dead: e^x is 0 in binary64, so
#: its factor 1 - e^{x+iy} is exactly 1
_DEAD = -750.0

#: x = n log(|z|/n) from which a circle is deep: e^{-x} < 2^-54, so its
#: factor 1 - e^{x+iy} is -e^{x+iy} in binary64 (see _log_f_block)
_DEEP = 40.0

#: no circle is deep below |z| = 32 e^{40/32} = 111.7, where circle 5 is
#: the first to reach _DEEP: a single point below this radius skips the
#: blocks and the deep test, and runs the factor on its circles as one column
_DEEP_RADIUS = 100.0


def _reduce(phi, n):
    """phi * n modulo fl(tau), exactly: fmod, then a Sterbenz subtraction."""
    return _centred(np.fmod(phi * n, TAU))


def _centred(y):
    """y in (-fl(tau), fl(tau)) moved into [-tau/2, tau/2] by the exact
    (Sterbenz) subtraction of fl(tau) or none, in place."""
    y -= TAU * np.rint(y / TAU)
    return y


def _doubled(phi, count):
    """np.fmod(phi * 2^k, TAU) on rows k = 1 .. count, bit for bit, by
    exact doubling: row k is fmod(2 row_(k-1), TAU), and both 2y and fmod
    are exact.  fmod's cost grows with the exponent of its argument, which
    here stays below 2 tau on every row."""
    y = np.empty((count, phi.size))
    row = phi
    for out in y:
        row = np.fmod(2.0 * row, TAU, out=out)
    return y


def _factor(x, s, sin_y, with_arg):
    """log|1 - e^{x+iy}| and, with_arg, its argument in half turns (else
    None), elementwise, from x, s = sin(y/2) and sin(y).

    1 - e^{x+iy} (divided by e^x when x > 0) is formed from expm1(-|x|) and
    2 sin^2(y/2), which do not cancel near zeros.
    """
    em1 = np.expm1(-np.abs(x))
    scale = np.exp(np.minimum(x, 0.0))
    re = 2.0 * scale * s * s - np.copysign(em1, x)
    im = -scale * sin_y
    log_mod = np.maximum(x, 0.0) + np.log(np.hypot(re, im))
    return log_mod, np.arctan2(im, re) / math.pi if with_arg else None


def _column(r, phi, n, with_arg):
    """_factor of the points r e^{i phi} (scalars or rows) on the circles
    n = 2^k (a row each)."""
    y = _reduce(phi, n)
    return _factor(np.log(r / n) * n, np.sin(0.5 * y), np.sin(y), with_arg)


def _sum_rows(x):
    """Rows k = 1, 2, ... of x added in turn: numpy reduces a fresh C-ordered
    block row by row but a lone column pairwise, so a column accumulates."""
    if x.ndim == 2 and x.shape[1] > 1:
        return np.add.reduce(x, axis=0)
    return np.add.accumulate(x, axis=0)[-1]


def _arg(half):
    """arg f in (-pi, pi] from its circles' half turns (rows k = 1, 2, ...).

    Arguments are summed in half turns, so a real f keeps an exact sign.
    """
    turns = _sum_rows(half)
    t = (turns - 2.0 * np.rint(0.5 * turns)) * math.pi
    return np.where(t == -math.pi, math.pi, t)


def _log_f_block(radii, phi, cutoffs, with_arg):
    """log|f| and arg f (or None) for one block of points; see
    ProductEvaluator.log_f."""
    # w^n = e^{x+iy} for w = z/n, x = n log(|z|/n): dividing |z| by n is
    # exact, so the huge power loses no accuracy to the base.  A pair with
    # x <= _DEAD is dead: e^x is 0 and expm1(-|x|) is -1, so its factor is
    # exactly 1 + 0i; it adds +0 to log|f| and a signed zero to the half
    # turns, which changes no sum and no reduced argument.  x falls for good
    # once 2^k > |z| and grows with |z|, so the circles dead at the block's
    # largest radius are a suffix dead at every point and are cut (circle 1
    # stays, so no sum is empty).  Circles past a point's own cutoff are
    # dead at it too: there 2^k >= 512 max(|z|, 1) (see _cutoffs), so
    # x <= 512 log(1/512) < -3194
    r_top = np.maximum.reduce(radii)
    n = _POW2[:int(np.maximum.reduce(cutoffs))]
    n = n[:max(1, int(np.add.reduce(np.log(r_top / n) * n > _DEAD, None)))]
    x = np.log(radii / n)
    x *= n
    # at a deep pair expm1(-x) is -1 and exp(min(x, 0)) is 1, so _factor
    # gives log|1 - e^{x+iy}| = x + log|2 sin^2(y/2) - 1 - i sin y|, whose
    # second term (under 1e-15) is below half an ulp of x: the log modulus
    # is x bit for bit, and the argument is y + pi.  So _factor runs on the
    # band alone, the pairs neither deep nor dead, with their angle terms
    # formed at the band's pairs; each pair's value is decided by its own
    # x, never by its batch
    shallow = x < _DEEP
    band = (shallow & (x > _DEAD)).ravel().nonzero()[0]
    rows, cols = np.divmod(band, radii.size)
    y = _reduce(phi.take(cols), n.take(rows))
    log_mod, half = _factor(x.take(band), np.sin(0.5 * y), np.sin(y),
                            with_arg)
    x[shallow] = 0.0
    x.put(band, log_mod)
    # circles are added in the order k = 1, 2, ... whatever the block's
    # width, which keeps every value independent of its batch
    if not with_arg:
        return _sum_rows(x), None
    # a deep pair's argument is y + pi, in half turns the closed form
    # y/pi - 1 (or + 1) with the signs arctan2 gives at y = +-0, formed on
    # the block's whole (circles x points) array, C-ordered as _sum_rows
    # needs, its rows by doubling: a row of 2^k phi costs as much as a
    # row of 2 phi, however large |z| is
    y = _centred(_doubled(phi, n.size))
    turns = y / math.pi - np.copysign(1.0, y)
    turns[shallow] = 0.0
    turns.put(band, half)
    return _sum_rows(x), _arg(turns)


@dataclass(frozen=True)
class ProductEvaluator:
    """Evaluates f(z) = prod_k (1 - (z/2^k)^{2^k}) for a given lattice."""

    lattice: ZeroLattice

    def cutoff(self, z: complex) -> int:
        """Number of closed-form factors; guarantees 2^K >= 256*max(|z|, 1).

        Every omitted factor k > K satisfies |(z/2^k)^{2^k}| <= 2^{-8*2^k}, so
        the truncated tail is negligible relative to machine precision.
        ValueError for a non-finite z, which has no such K.
        """
        radii = np.abs([complex(z)])
        if not np.isfinite(radii[0]):
            raise ValueError("f is evaluated only at finite z")
        return int(self._cutoffs(radii)[0])

    def _cutoffs(self, radii):
        """cutoff() of every radius, exact in binary64."""
        frac, exps = np.frexp(np.maximum(radii, 1.0))
        return exps - (frac == 0.5) + (2 + _TAIL_MARGIN)

    def _is_lattice_zero(self, z: complex) -> bool:
        """Bit-exact membership test against the lattice."""
        near = self.lattice._nearest_zero(z)
        return near is not None and z == near[1]

    def _beside_zero(self, z: complex) -> complex:
        """log f at a z that is not a lattice zero but whose factor on the
        circle k of its nearest zero a rounds to 0 (the phase of z rounds
        onto a's, so y is 0): that factor is taken as 2^k (a - z)/a, its
        first order at a, and the other circles as _column forms them."""
        k, a = self.lattice._nearest_zero(z)
        log_mod, half = _column(abs(z), math.atan2(z.imag, z.real),
                                _POW2[:self.cutoff(z), 0], True)
        log_mod[k - 1] = math.log(2.0 ** k / abs(a)) + math.log(abs(a - z))
        half[k - 1] = (cmath.phase(a - z) - cmath.phase(a)) / math.pi
        return complex(_sum_rows(log_mod), _arg(half))

    def log_f(self, zs) -> np.ndarray:
        """log f = log|f| + i arg f at every point of a 1-d complex array.

        The real part is -inf at lattice zeros, where the imaginary part is
        0, and finite elsewhere, beside a zero too (see _beside_zero); the
        imaginary part lies in (-pi, pi].  Near-equal blocks of at most
        _BLOCK_PAIRS // K points, K the call's largest cutoff, consecutive
        in call order, are evaluated as (circles x points) arrays, the full
        factor on each block's band of pairs that are neither deep nor
        dead; circles past a point's own cutoff contribute exactly 0 and
        circles are summed in the order k = 1, 2, ... (a reduce over the
        rows of a block, an accumulate down a single column), so no value
        depends on its batch.  ValueError for input that is not 1-d, a
        non-finite z or a cutoff circle beyond binary64.

        The real part keeps ~3e-16 relative accuracy, but at distance d from
        zero j of circle k off the axes it is off by up to ~e/d, e = 2^(k-1)
        ulp(phi) + 2^k 2.2e-16 + |j| 2.45e-16 (|j| <= 2^(k-1)); the imaginary
        part drifts by up to ~|z| * 1e-16 rad and is noise beyond ~2^50.
        """
        return self._log_f(zs, with_arg=True)

    def log_abs_f(self, zs) -> np.ndarray:
        """log|f| at every point of a 1-d complex array: log_f(zs).real bit
        for bit, -inf at lattice zeros, with the same ValueErrors.  Forms no
        argument, so the deep circles cost one log each."""
        return self._log_f(zs, with_arg=False)

    def _log_f(self, zs, with_arg: bool) -> np.ndarray:
        zs = np.asarray(zs, dtype=complex)
        if zs.ndim != 1:
            raise ValueError("zs must be a 1-d array")
        radii = np.abs(zs)
        phi = np.arctan2(zs.imag, zs.real)
        out = np.empty(zs.size, dtype=complex if with_arg else float)
        mag = out.real if with_arg else out
        with np.errstate(divide="ignore"):
            if zs.size == 1 and radii[0] < _DEEP_RADIUS:
                # one point below _DEEP_RADIUS: no circle is deep or past
                # the cutoff, so circles 1..K run _factor as one column with
                # no deep test.  The dead circles a block would cut have
                # factors exactly 1, so the bits are the block's.  One frexp
                # gives the cutoff (as _cutoffs) and the near-dyadic test.
                # Kept for the one eval_log_f of every contour_solve op
                frac, e = math.frexp(radii[0])
                n = _POW2[:max(e - (frac == 0.5), 0) + 2 + _TAIL_MARGIN, 0]
                log_mod, half = _column(radii[0], phi[0], n, with_arg)
                mag[:] = _sum_rows(log_mod)
                if with_arg:
                    out.imag = _arg(half)
                near = (0,) if abs(frac - 0.75) >= 0.25 - 2.0**-49 else ()
            else:
                r_max = float(np.maximum.reduce(radii, initial=0.0))
                if not math.isfinite(r_max):
                    raise ValueError("f is evaluated only at finite z")
                if r_max > _MAX_RADIUS:
                    raise ValueError(
                        "|z| = %r is too large: the cutoff circle 2^%d "
                        "exceeds binary64" % (r_max, self.cutoff(r_max)))
                cutoffs = self._cutoffs(radii)
                # near-equal blocks of at most _BLOCK_PAIRS pairs for the
                # call's largest cutoff (ceil divisions), consecutive slices
                # in call order
                step = _BLOCK_PAIRS // int(np.maximum.reduce(cutoffs,
                                                             initial=1))
                blocks = max(1, -(-zs.size // step))
                step = -(-zs.size // blocks) or 1
                for lo in range(0, zs.size, step):
                    rows = slice(lo, lo + step)
                    mag[rows], arg = _log_f_block(radii[rows], phi[rows],
                                                  cutoffs[rows], with_arg)
                    if with_arg:
                        out.imag[rows] = arg
                # the scalar membership test runs only on points within a
                # few ulps of a dyadic radius n = 2^k whose phase is within
                # rounding (under 2^-50 n turns) of some j/n turns; the
                # 2^-40 n allowed here passes every phase from n = 2^39 on
                frac, e = np.frexp(radii)
                near = (np.abs(frac - 0.75) >= 0.25 - 2.0**-49).nonzero()[0]
                if near.size:
                    n = np.ldexp(1.0, e[near] - (frac[near] < 0.75))
                    turns = phi[near] * n / TAU
                    near = near[np.abs(turns - np.rint(turns)) <= n * 2.0**-40]
            for i in near:
                z = complex(zs[i])
                if self._is_lattice_zero(z):
                    out[i] = -math.inf
                elif mag[i] == -math.inf:
                    lf = self._beside_zero(z)
                    out[i] = lf if with_arg else lf.real
        if with_arg:
            out.imag[out.real == -math.inf] = 0.0
        return out

    def eval_log_f(self, z: complex) -> LogComplex:
        """f(z) in log form: a length-1 call of log_f.

        Exact -inf at lattice zeros, bit for bit the value of the same point
        in any batch; the cutoff depends only on |z|.
        """
        lf = complex(self.log_f([complex(z)])[0])
        return LogComplex(lf.real, lf.imag)

    def eval_log_f_direct(self, z: complex, k_cut: int) -> complex:
        """log f from the genus-0 per-zero product over circles 1..k_cut
        (cross-check oracle), as log_f gives it: -inf at a zero.

        No exponential convergence factors are needed: the reciprocal sum
        over each circle vanishes identically.
        """
        z = complex(z)
        mag_parts = []
        arg_parts = []
        for k in range(1, k_cut + 1):
            w = 1.0 - z / self.lattice.circle(k)
            if np.logical_or.reduce(w == 0):
                return complex(-math.inf, 0.0)
            mag_parts.append(math.fsum(np.log(np.abs(w)).tolist()))
            arg_parts.append(math.fsum(np.arctan2(w.imag, w.real).tolist()))
        # the argument reduced to (-pi, pi]
        arg = math.remainder(math.fsum(arg_parts), TAU)
        return complex(math.fsum(mag_parts), arg + TAU if arg <= -math.pi else arg)

    def profile_on(self, theta: float, radii: np.ndarray) -> GrowthProfile:
        """Profile on a caller-supplied radius grid (e.g. dyadic_radii).

        One log_abs_f call on the points r e^{i theta}; exact lattice zeros
        on the ray give -inf.
        """
        radii = np.asarray(radii, float)
        log_mag = self.log_abs_f(radii * cis(theta))
        return GrowthProfile("f", theta, radii, log_mag / radii)

    def max_modulus(self, r: float, n_theta: int) -> float:
        """log M_f(r)/r estimated over n_theta equally spaced angles.

        A lower bound of the true maximum, from one log_abs_f call on the
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
        return float(np.maximum.reduce(self.log_abs_f(r * directions))) / r


def write_profile_csv(profiles, path) -> None:
    """Export profiles as columns function_id, theta, r, value; theta and
    a radius grid repeated bit for bit from one profile on are formatted
    once."""
    grid = None
    with open(path, "w", encoding="ascii") as out:
        out.write("function_id,theta,r,value\n")
        for p in profiles:
            if p.radii.tobytes() != grid:
                grid = p.radii.tobytes()
                radii = "".join(row_blocks("%.17g\n", p.radii)).splitlines()
            head = "%s,%.17g" % (p.function_id, p.theta)
            out.writelines(row_blocks("%s,%s,%.17g\n", repeat(head), radii,
                                      p.values))
