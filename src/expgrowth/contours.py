"""Contour quadrature for the inversion, splitting, and arc transforms.

Every integral here is (1/(2*pi*i)) * int g(s) e^{zs} ds over some path kept
outside modulus 2.5, where the transform g is analytic.  Full circles use the
periodic trapezoid rule (spectrally accurate, and node-doubling reuses every
existing node bit-for-bit, so the evaluator's cache absorbs the cost); open
arcs and segments use composite Gauss-Legendre panels with panel doubling.

The named integrals (borel_inversion, u_eval, F_eval) split g into 1/s plus
a smooth tail: the 1/s channel integrates in closed form (residue on closed
loops, continuous log plus an entire exponential-integral difference on open
pieces), and only the tail, whose oscillatory mass is ~25x smaller, goes
through quadrature.  That keeps the roundoff floor of the splitting identity
an order of magnitude under its tolerance even at |z| = 8, where the raw
integrand reaches e^{32}.

Refinement stops when successive values agree to the requested relative
tolerance or hit the roundoff floor set by the accumulated absolute mass;
anything else raises, carrying the last two values for post-mortems.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .borel import MIN_MODULUS, BorelEvaluator
from .lognum import Accumulator, LogComplex, cis, lc_add, wrap_angle
from .product import GrowthProfile

TAU = math.tau
_EPS = math.ulp(1.0)

#: circle radii accepted by borel_inversion and the CLI's --radius
_INVERSION_RADII = (MIN_MODULUS, 8.0)

#: absolute tolerance for endpoint matching in chained contours
_JOIN_TOL = 1e-12


class NonConvergenceError(ArithmeticError):
    """Refinement exhausted without meeting the tolerance.

    Carries the last two refinement values; a large gap between them at high
    resolution usually means the cancellation regime, not a coding bug.
    """

    def __init__(self, value: complex, previous: complex, error: float):
        super().__init__(
            f"quadrature stalled: last={value!r} previous={previous!r} "
            f"estimate={error:.3e}"
        )
        self.value = value
        self.previous = previous
        self.error = error


class CancellationCapError(ValueError):
    """Arc-transform evaluation refused beyond the configured |z| cap."""


def _require_outside(lo: float, what: str) -> None:
    # paths must stay at or outside the evaluation domain of g
    if lo < MIN_MODULUS - 1e-12:
        raise ValueError(
            f"{what} dips to modulus {lo:.6g}, inside the domain floor "
            f"{MIN_MODULUS}"
        )


@dataclass(frozen=True)
class CirclePath:
    """Origin-centered circle, traversed once counterclockwise."""

    radius: float

    def __post_init__(self) -> None:
        _require_outside(self.radius, "circle")

    def modulus_range(self) -> tuple:
        return (self.radius, self.radius)

    def point(self, t: float) -> complex:
        return self.radius * cis(TAU * t)

    def dpoint(self, t: float) -> complex:
        return self.radius * TAU * 1j * cis(TAU * t)


@dataclass(frozen=True)
class SpiralArc:
    """Radius and angle both linear in the parameter."""

    r_start: float
    r_end: float
    angle_start: float
    angle_end: float

    def __post_init__(self) -> None:
        if min(self.r_start, self.r_end) <= 0.0:
            raise ValueError("radii must be positive")
        _require_outside(self.modulus_range()[0], "spiral arc")

    def modulus_range(self) -> tuple:
        return (min(self.r_start, self.r_end), max(self.r_start, self.r_end))

    def _radius(self, t: float) -> float:
        return self.r_start + (self.r_end - self.r_start) * t

    def _angle(self, t: float) -> float:
        return self.angle_start + (self.angle_end - self.angle_start) * t

    def point(self, t: float) -> complex:
        return self._radius(t) * cis(self._angle(t))

    def dpoint(self, t: float) -> complex:
        dr = self.r_end - self.r_start
        dphi = self.angle_end - self.angle_start
        return complex(dr, self._radius(t) * dphi) * cis(self._angle(t))


@dataclass(frozen=True)
class LineSegment:
    a: complex
    b: complex

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise ValueError("degenerate segment")
        _require_outside(self.modulus_range()[0], "segment")

    def modulus_range(self) -> tuple:
        d = self.b - self.a
        t = -((self.a.real * d.real) + (self.a.imag * d.imag)) / abs(d) ** 2
        t = min(1.0, max(0.0, t))
        return (abs(self.a + d * t), max(abs(self.a), abs(self.b)))

    def point(self, t: float) -> complex:
        return self.a + (self.b - self.a) * t

    def dpoint(self, t: float) -> complex:
        return self.b - self.a


@dataclass(frozen=True)
class Contour:
    """Chain of segments; if closed, must wind once counterclockwise about 0."""

    segments: tuple
    closed: bool = True

    def __post_init__(self) -> None:
        segments = tuple(self.segments)
        object.__setattr__(self, "segments", segments)
        if not segments:
            raise ValueError("contour needs at least one segment")
        ends = [(seg.point(0.0), seg.point(1.0)) for seg in segments]
        for (_, e), (s, _) in zip(ends, ends[1:]):
            if abs(e - s) > _JOIN_TOL:
                raise ValueError(f"segment seam mismatch: {e!r} vs {s!r}")
        if self.closed:
            if abs(ends[-1][1] - ends[0][0]) > _JOIN_TOL:
                raise ValueError("contour marked closed but endpoints differ")
            w = self.winding_number()
            if w != 1:
                raise ValueError(f"closed contour winds {w} times, need +1")

    def winding_number(self, samples_per_segment: int = 512) -> int:
        total = 0.0
        prev = None
        for seg in self.segments:
            for i in range(samples_per_segment + 1):
                p = seg.point(i / samples_per_segment)
                if prev is not None:
                    total += wrap_angle(cmath.phase(p) - cmath.phase(prev))
                prev = p
        return round(total / TAU)


@dataclass(frozen=True)
class QuadratureSpec:
    """Refinement policy: level L of a full circle takes initial_panels *
    points_per_panel * 2^L trapezoid nodes, of an open arc or segment
    initial_panels * 2^L Gauss panels of points_per_panel nodes."""

    points_per_panel: int = 16
    initial_panels: int = 8
    target_rel_tol: float = 1e-10
    max_refinements: int = 10
    cancellation_cap: float = 40.0

    def __post_init__(self) -> None:
        if self.points_per_panel < 2:
            raise ValueError("points_per_panel must be >= 2")
        if self.initial_panels < 1:
            raise ValueError("initial_panels must be >= 1")
        if self.target_rel_tol < 1e-13:
            raise ValueError("target_rel_tol below achievable floor 1e-13")
        if self.max_refinements < 1:
            raise ValueError("max_refinements must be >= 1")
        if self.cancellation_cap <= 0.0:
            raise ValueError("cancellation_cap must be positive")


@dataclass(frozen=True)
class IntegralResult:
    value: complex
    error: float
    refinements: int


@lru_cache(maxsize=None)
def _gauss_rule(points: int) -> tuple:
    x, w = np.polynomial.legendre.leggauss(points)
    return (tuple(float(v) for v in x), tuple(float(v) for v in w))


_SPLIT = 134217729.0  # 2^27 + 1, Dekker splitting constant


def _two_product(a: float, b: float) -> tuple:
    """a*b as an exact head/tail pair (no fma available on 3.10)."""
    p = a * b
    ah = a * _SPLIT
    ah = ah - (ah - a)
    al = a - ah
    bh = b * _SPLIT
    bh = bh - (bh - b)
    bl = b - bh
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, e


def _exp_zs(z: complex, s: complex) -> complex:
    """e^{z s} with the exponent carried in doubled precision.

    Rounding z*s to binary64 alone costs a relative error of |z*s|*eps in
    the exponential; with |z*s| up to ~160 on these contours that noise,
    multiplied by the integrand mass, would dominate every cancellation-
    limited integral.  The head/tail exponent buys those ~8 bits back.
    """
    xp, xe1 = _two_product(z.real, s.real)
    xq, xe2 = _two_product(z.imag, s.imag)
    x = xp - xq
    xe = ((xp - x) - xq) + (xe1 - xe2)  # two-sum tail of xp + (-xq)
    yp, ye1 = _two_product(z.real, s.imag)
    yq, ye2 = _two_product(z.imag, s.real)
    y = yp + yq
    ye = ((yp - y) + yq) + (ye1 + ye2)
    mag = math.exp(x)
    if mag == 0.0:
        return 0.0 + 0.0j
    mag *= 1.0 + xe
    c = math.cos(y)
    sn = math.sin(y)
    return complex(mag * (c - ye * sn), mag * (sn + ye * c))


def _segment_sum(h, seg, spec: QuadratureSpec, level: int, acc: Accumulator):
    if isinstance(seg, CirclePath):
        n = spec.initial_panels * spec.points_per_panel * (1 << level)
        inv_n = 1.0 / n
        for j in range(n):
            t = j / n  # exact dyadic once n is a power-of-two multiple
            acc.add(h(seg.point(t)) * seg.dpoint(t) * inv_n)
        return
    panels = spec.initial_panels * (1 << level)
    xs, ws = _gauss_rule(spec.points_per_panel)
    width = 1.0 / panels
    half = 0.5 * width
    for p in range(panels):
        mid = (p + 0.5) * width
        for x, w in zip(xs, ws):
            t = mid + half * x
            acc.add(h(seg.point(t)) * seg.dpoint(t) * (w * half))


def _refinement_value(h, segments, spec: QuadratureSpec, level: int) -> tuple:
    acc = Accumulator()
    for seg in segments:
        _segment_sum(h, seg, spec, level, acc)
    return acc.total / (1j * TAU), acc.abs_mass / TAU


def integrate(g_eval, path, z: complex, spec: QuadratureSpec = None) -> IntegralResult:
    """(1/(2*pi*i)) * int_path g(s) e^{zs} ds with adaptive refinement.

    path may be a Contour or a single segment.  The convergence check floors
    the achievable error at eps * mass: below that, successive refinements
    differ only by roundoff of the (possibly huge) oscillatory mass and
    further doubling is pointless.
    """
    if spec is None:
        spec = QuadratureSpec()
    segments = path.segments if isinstance(path, Contour) else (path,)
    z = complex(z)

    def h(s):
        return g_eval(s) * _exp_zs(z, s)

    prev = older = None
    err = math.inf
    for level in range(spec.max_refinements + 1):
        value, mass = _refinement_value(h, segments, spec, level)
        if prev is not None:
            err = abs(value - prev)
            floor = 4.0 * _EPS * mass
            if err <= max(spec.target_rel_tol * abs(value), floor):
                return IntegralResult(value, err, level)
        older = prev
        prev = value
    raise NonConvergenceError(prev, older, err)


# ---------------------------------------------------------------------------
# the fixed geometry: an arc from -4 once around the origin to -3, closed by
# a segment on the negative real axis

#: g(s) - 1/s summed directly (c_1 = 0); the named integrals quadrature this
#: smooth tail and add the 1/s channel in closed form, cutting the oscillatory
#: mass (hence the roundoff floor) by the ratio |g| / |g - 1/s| ~ 25 on the
#: annulus
_SHARED_TAIL = BorelEvaluator(min_index=2)


def spiral_arc() -> SpiralArc:
    """Arc from -4 counterclockwise once around to -3, radius within [3, 4]."""
    return SpiralArc(4.0, 3.0, -math.pi, math.pi)


def closing_segment() -> LineSegment:
    """Segment from -3 to -4; appended to the arc it closes the loop."""
    return LineSegment(-3.0 + 0.0j, -4.0 + 0.0j)


def closed_loop() -> Contour:
    return Contour((spiral_arc(), closing_segment()), closed=True)


_EULER_GAMMA = float(np.euler_gamma)

#: switch radius between the direct series and the asymptotic route
_CHANNEL_RADIUS = 24.0

#: left of this line the series alternates with mass e^{|w|} against a
#: log-sized value and its roundoff would swamp u's e^{-3x} decay; the
#: asymptotic route is good to ~3e-11 absolute once Re(-w) >= 12
_CHANNEL_LEFT = -12.0

#: 2 pi i; dividing by it maps (x, y) to (y, -x) / tau with two exact
#: component divisions, so negation symmetries survive to the last bit
_DENOM = 1j * TAU

#: log 4 - log 3, the real part of the continuous log increment on [-4, -3]
_LOG_RATIO = math.log(4.0) - math.log(3.0)


def _entire_exp_integral(w: complex) -> complex:
    """E(w) = sum_{k>=1} w^k / (k k!) = int_0^1 (e^{wt} - 1)/t dt, entire.

    This is the antiderivative backbone of the 1/s channel: along any path
    avoiding 0, int e^{zs}/s ds = [continuous log s] + E(z b) - E(z a).
    The arc and segment channels at the same z take bit-identical endpoint
    values from this deterministic function; their (mass-limited) errors
    then cancel exactly when the two pieces are summed in the splitting
    identity.
    """
    if w == 0.0:
        return 0.0 + 0.0j
    if abs(w) <= _CHANNEL_RADIUS and w.real > _CHANNEL_LEFT:
        term = complex(w)
        total = term
        k = 2
        while k < 400:
            term = term * w / k
            contribution = term / k
            total += contribution
            if k > abs(w) and abs(contribution) <= 1e-20 * abs(total):
                return total
            k += 1
        raise ArithmeticError("channel series failed to settle")
    if w.imag == 0.0 and w.real > 0.0:
        # on the axis the log channels of the two cut sides cancel; the
        # remainder is the real asymptotic series at the smallest term
        x = w.real
        t = s = 1.0
        for k in range(1, 300):
            nxt = t * k / x
            if abs(nxt) >= abs(t):
                break
            t = nxt
            s += t
        return complex(-_EULER_GAMMA - math.log(x) + math.exp(x) * s / x, 0.0)
    t = s = 1.0 + 0.0j
    for k in range(1, 300):
        nxt = t * k / w
        if abs(nxt) >= abs(t):
            break
        t = nxt
        s += t
    return -_EULER_GAMMA - cmath.log(-w) + cmath.exp(w) * s / w


def _endpoint_channels(z: complex) -> tuple:
    """Channel values at the shared path endpoints -3 and -4."""
    return (_entire_exp_integral(-3.0 * z), _entire_exp_integral(-4.0 * z))


def borel_inversion(z: complex, radius: float = 4.0,
                    spec: QuadratureSpec = None) -> complex:
    """Recover f(z) by integrating g(s) e^{zs} over an origin-centered circle.

    The 1/s part contributes its residue, exactly 1, for every z; the
    quadrature handles the tail g - 1/s.
    """
    lo, hi = _INVERSION_RADII
    if not lo <= radius <= hi:
        raise ValueError(f"radius must lie in [{lo}, {hi}]")
    return 1.0 + integrate(_SHARED_TAIL, CirclePath(radius), z, spec).value


def u_eval(z: complex, spec: QuadratureSpec = None) -> complex:
    """The bounded piece: the loop integral restricted to the axis segment.

    Since the path sits on [-4, -3], |u(z)| <= (1/(2 pi)) max|g| e^{-3 Re z},
    so u decays in the right half-plane and is bounded for Re z >= 0.
    """
    z = complex(z)
    e3, e4 = _endpoint_channels(z)
    channel = (complex(_LOG_RATIO, 0.0) + (e4 - e3)) / _DENOM
    return integrate(_SHARED_TAIL, closing_segment(), z, spec).value + channel


def F_eval(z: complex, spec: QuadratureSpec = None) -> complex:
    """The arc transform: the loop integral restricted to the spiral arc.

    Direct evaluation is refused beyond spec.cancellation_cap: the integrand
    reaches e^{4|z|} while the value stays near e^{1.5|z|}, and binary64 runs
    out of cancellation headroom.  Beyond the cap, use the identity
    F = f - u (see splitting_profile).
    """
    if spec is None:
        spec = QuadratureSpec()
    z = complex(z)
    if abs(z) > spec.cancellation_cap:
        raise CancellationCapError(
            f"|z|={abs(z):.4g} beyond cancellation cap {spec.cancellation_cap}; "
            "evaluate through the f - u identity instead"
        )
    e3, e4 = _endpoint_channels(z)
    # continuous log along the arc gains 2 pi i (one counterclockwise turn)
    channel = (complex(-_LOG_RATIO, TAU) + (e3 - e4)) / _DENOM
    return integrate(_SHARED_TAIL, spiral_arc(), z, spec).value + channel


def splitting_profile(ev, theta: float, radii, spec: QuadratureSpec = None,
                      function_id: str = "F") -> GrowthProfile:
    """Growth profile of the arc transform computed as f - u.

    Valid at any radius: both pieces are evaluated independently of the
    cancellation-limited direct arc quadrature.
    """
    direction = cis(theta)
    values = []
    for r in radii:
        z = r * direction
        f_log = ev.eval_log_f(z)
        u = u_eval(z, spec)
        log_F = lc_add(f_log, LogComplex.from_complex(u).neg())
        values.append(log_F.log_mag / r)
    return GrowthProfile(function_id, theta, np.asarray(radii, float),
                         np.asarray(values))


def u_decay_bound(x: float) -> float:
    """Explicit decay bound |u(x)| <= 0.0502 e^{-3x} for real x >= 0."""
    return 0.0502 * math.exp(-3.0 * x)


def write_identity_csv(records, path) -> None:
    """records: iterable of (z, f_value, u_value, F_value)."""
    from .csvio import fmt, write_rows

    rows = []
    for z, fv, uv, Fv in records:
        resid = abs(Fv + uv - fv)
        rows.append(
            (fmt(z.real), fmt(z.imag), fmt(fv.real), fmt(fv.imag),
             fmt(uv.real), fmt(uv.imag), fmt(Fv.real), fmt(Fv.imag),
             fmt(resid))
        )
    write_rows(
        path,
        ("z_re", "z_im", "f_re", "f_im", "u_re", "u_im", "F_re", "F_im",
         "residual_abs"),
        rows,
    )


def write_borel_check_csv(records, path) -> None:
    """records: iterable of (z, direct_value, contour_value)."""
    from .csvio import fmt, write_rows

    rows = []
    for z, direct, contour in records:
        abs_err = abs(direct - contour)
        mag = abs(direct)
        if mag > 0.0:
            rel = abs_err / mag
        else:
            rel = math.inf if abs_err > 0.0 else math.nan
        rows.append(
            (fmt(z.real), fmt(z.imag), fmt(direct.real), fmt(direct.imag),
             fmt(contour.real), fmt(contour.imag), fmt(abs_err), fmt(rel))
        )
    write_rows(
        path,
        ("z_re", "z_im", "direct_re", "direct_im", "contour_re", "contour_im",
         "abs_err", "rel_err"),
        rows,
    )
