"""Contour quadrature for the inversion, splitting, and arc transforms.

Every integral here is (1/(2*pi*i)) * int g(s) e^{zs} ds over some path kept
outside modulus 2.5, where the transform g is analytic.  Full circles use the
periodic trapezoid rule (spectrally accurate); open arcs and segments use
composite Gauss-Legendre panels; each refinement level doubles the nodes or
panels.  Only e^{zs} depends on z: the nodes of a path and level, g there,
the path derivative and the weights form one read-only table, built once per
process (levels 0 and 1, which every z needs, share one).  Per z, a level's
terms are summed by math.fsum, exactly rounded, so its value does not depend
on node order.  The named integrals take a scalar z or a 1-D array of z; each
entry of a batch keeps its own refinement and has the bits of the scalar call.

The named integrals (borel_inversion, u_eval, F_eval) split g into 1/s plus
a smooth tail: the 1/s channel integrates in closed form (residue on closed
loops, continuous log plus an entire exponential-integral difference on open
pieces), and only the tail, whose oscillatory mass is ~25x smaller, goes
through quadrature.  That keeps the roundoff floor of the splitting identity
an order of magnitude under its tolerance even at |z| = 8, where the raw
integrand reaches e^{32}.

Past the cancellation cap of F_eval, F's growth comes from the splitting:
splitting_profile forms log F = log(f - u) from one ProductEvaluator.log_f
array and one batch of u with lognum.log_sub, so it holds where f itself
leaves binary64.  Path points use the array lognum.cis, exact at the
cardinal angles.

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
from .lognum import cis, log_sub
from .product import GrowthProfile

TAU = math.tau
_EPS = math.ulp(1.0)

#: circle radii accepted by borel_inversion and the CLI's --radius
_INVERSION_RADII = (MIN_MODULUS, 8.0)

#: absolute tolerance for endpoint matching in chained contours
_JOIN_TOL = 1e-12

#: phase samples per segment when counting a closed contour's winding
_WINDING_SAMPLES = 512


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
    """Origin-centered circle, traversed once counterclockwise.

    Like every segment, it maps a parameter t in [0, 1], a float or an
    array, to the path point and its derivative.
    """

    radius: float

    def __post_init__(self) -> None:
        _require_outside(self.radius, "circle")

    def modulus_range(self) -> tuple:
        return (self.radius, self.radius)

    def point(self, t):
        return self.radius * cis(TAU * t)

    def dpoint(self, t):
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

    def _radius(self, t):
        return self.r_start + (self.r_end - self.r_start) * t

    def _angle(self, t):
        return self.angle_start + (self.angle_end - self.angle_start) * t

    def point(self, t):
        return self._radius(t) * cis(self._angle(t))

    def dpoint(self, t):
        dr = self.r_end - self.r_start
        dphi = self.angle_end - self.angle_start
        return (dr + 1j * (self._radius(t) * dphi)) * cis(self._angle(t))


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

    def point(self, t):
        return self.a + (self.b - self.a) * t

    def dpoint(self, t):
        return np.full(np.shape(t), self.b - self.a)


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

    def winding_number(self) -> int:
        t = np.arange(_WINDING_SAMPLES + 1) / _WINDING_SAMPLES
        phase = np.angle(np.concatenate([seg.point(t) for seg in self.segments]))
        steps = np.diff(phase)
        steps -= TAU * np.round(steps / TAU)  # into [-pi, pi]
        return int(round(steps.sum() / TAU))


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
        if not self.target_rel_tol >= 1e-13:  # nan fails too
            raise ValueError("target_rel_tol below achievable floor 1e-13")
        if self.max_refinements < 1:
            raise ValueError("max_refinements must be >= 1")
        if not self.cancellation_cap > 0.0:
            raise ValueError("cancellation_cap must be positive")


@dataclass(frozen=True)
class IntegralResult:
    value: complex
    error: float
    refinements: int


_SPLIT = 134217729.0  # 2^27 + 1, Dekker splitting constant


def _two_product(a, b) -> tuple:
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


def _exp_zs(z: complex, s: np.ndarray) -> np.ndarray:
    """e^{z s} on an array of s, with the exponent in doubled precision.

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
    mag = np.exp(x) * (1.0 + xe)
    c = np.cos(y)
    sn = np.sin(y)
    out = np.empty(s.shape, dtype=complex)
    out.real, out.imag = mag * (c - ye * sn), mag * (sn + ye * c)
    return out


#: keys in use: 10 in a contour_solve round of the benchmark (circles of
#: radius 3, 4, 5; the arc at levels (0, 1) to 6; the segment), 5 in reproduce
_TABLE_SIZE = 32


@lru_cache(maxsize=_TABLE_SIZE)
def _level_table(g_eval, seg, points_per_panel: int, initial_panels: int,
                 levels: tuple) -> tuple:
    """The z-independent half of a pass, read-only so no caller can change
    what the next z reads: the nodes s of levels on seg joined, g_eval(s),
    the path derivative at s, and per level its (slice of s, weights)."""
    t, cuts = [], []
    for level in levels:
        if isinstance(seg, CirclePath):
            n = initial_panels * points_per_panel * (1 << level)
            t.append(np.arange(n) / n)  # exact dyadic t for power-of-two n
            weights = 1.0 / n
        else:
            panels = initial_panels * (1 << level)
            x, w = np.polynomial.legendre.leggauss(points_per_panel)
            width = 1.0 / panels
            half = 0.5 * width
            mid = (np.arange(panels) + 0.5) * width
            t.append((mid[:, None] + half * x).ravel())
            weights = np.tile(w * half, panels)
            weights.flags.writeable = False
        start = cuts[-1][0].stop if cuts else 0
        cuts.append((slice(start, start + t[-1].size), weights))
    t = np.concatenate(t)
    s, dpoint = seg.point(t), seg.dpoint(t)
    s.flags.writeable = dpoint.flags.writeable = False
    return s, np.broadcast_to(g_eval(s), s.shape), dpoint, tuple(cuts)


def _refinement_values(g_eval, segments, zs, spec: QuadratureSpec,
                       levels: tuple) -> list:
    """The rule at each of levels for every z of zs: per level, a list of
    (value, absolute mass sum |term| / tau).  Only e^{zs} and the terms are
    formed per z; the rest comes from each segment's _level_table."""
    terms = [[[] for _ in zs] for _ in levels]
    for seg in segments:
        s, g, dpoint, cuts = _level_table(
            g_eval, seg, spec.points_per_panel, spec.initial_panels, levels)
        exps = [_exp_zs(z, s) for z in zs]
        for (cut, weights), level_terms in zip(cuts, terms):
            for out, exp_zs in zip(level_terms, exps):
                out.append(g[cut] * exp_zs[cut] * dpoint[cut] * weights)
    return [[_value_and_mass(np.concatenate(parts)) for parts in level_terms]
            for level_terms in terms]


def _value_and_mass(part: np.ndarray) -> tuple:
    total = complex(math.fsum(part.real.tolist()),
                    math.fsum(part.imag.tolist()))
    return total / (1j * TAU), float(np.abs(part).sum()) / TAU


def _integrate_batch(g_eval, path, zs, spec: QuadratureSpec = None) -> list:
    """integrate at every z of zs, one IntegralResult each.

    No z can stop before it has two level values, so levels 0 and 1 share
    one table; each later level has its own, for every z still refining.
    A z keeps its own convergence test and leaves the batch once it passes;
    its terms are formed and summed exactly as for a batch of one, so its
    result does not depend on the rest of the batch.
    """
    if spec is None:
        spec = QuadratureSpec()
    segments = path.segments if isinstance(path, Contour) else (path,)
    zs = [complex(z) for z in zs]
    results = [None] * len(zs)
    prev = [None] * len(zs)
    older = [None] * len(zs)
    err = [math.inf] * len(zs)
    active = list(range(len(zs)))
    tol, level = spec.target_rel_tol, 0
    with np.errstate(over="raise", invalid="raise"):
        while active and level <= spec.max_refinements:
            levels = (0, 1) if level == 0 else (level,)
            for values in _refinement_values(
                    g_eval, segments, [zs[i] for i in active], spec, levels):
                refining = []
                for i, (value, mass) in zip(active, values):
                    if prev[i] is not None:
                        err[i] = abs(value - prev[i])
                        floor = 4.0 * _EPS * mass
                        if err[i] <= max(tol * abs(value), floor):
                            results[i] = IntegralResult(value, err[i], level)
                            continue
                    older[i] = prev[i]
                    prev[i] = value
                    refining.append(i)
                active = refining
                level += 1
    if active:
        i = active[0]
        raise NonConvergenceError(prev[i], older[i], err[i])
    return results


def integrate(g_eval, path, z: complex, spec: QuadratureSpec = None) -> IntegralResult:
    """(1/(2*pi*i)) * int_path g(s) e^{zs} ds with adaptive refinement.

    g_eval maps an array of nodes s to the array of g(s); it must be a pure,
    hashable function of the node array, as it is evaluated once per path
    and level per process and its values serve every z.  path may be a
    Contour or a single segment.  The convergence check floors the
    achievable error at eps * mass: below that, successive refinements
    differ only by roundoff of the (possibly huge) oscillatory mass and
    further doubling is pointless.  An overflowing integrand raises
    FloatingPointError (an ArithmeticError) at once.
    """
    return _integrate_batch(g_eval, path, (z,), spec)[0]


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


def _on_series_route(w: complex) -> bool:
    return abs(w) <= _CHANNEL_RADIUS and w.real > _CHANNEL_LEFT


def _asymptotic_tail(w: complex) -> complex:
    """e^w S(w) / w, with S the asymptotic series of E(w) cut at its
    smallest term; off the series route E(w) = -gamma - log(-w) + this."""
    if w.imag == 0.0 and w.real > 0.0:
        # E is real on the positive axis: sum in real arithmetic
        x = w.real
        t = s = 1.0
        for k in range(1, 300):
            nxt = t * k / x
            if abs(nxt) >= abs(t):
                break
            t = nxt
            s += t
        return complex(math.exp(x) * s / x, 0.0)
    t = s = 1.0 + 0.0j
    for k in range(1, 300):
        nxt = t * k / w
        if abs(nxt) >= abs(t):
            break
        t = nxt
        s += t
    return cmath.exp(w) * s / w


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
    if _on_series_route(w):
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
        # on the axis the log channels of the two cut sides cancel
        return -_EULER_GAMMA - math.log(w.real) + _asymptotic_tail(w)
    return -_EULER_GAMMA - cmath.log(-w) + _asymptotic_tail(w)


def _endpoint_channels(z: complex) -> tuple:
    """(c, e3, e4) with c + e4 - e3 = log(4/3) + E(-4z) - E(-3z).

    When both endpoints are off the series route, their -gamma - log(-w)
    terms cancel log(4/3) exactly (log 4z - log 3z = log 4/3), so c = 0 and
    e3, e4 are the asymptotic tails alone.  Summing the logs instead would
    leave their roundoff, ~1e-16, in a u that decays like e^{-3x}.
    """
    w3, w4 = -3.0 * z, -4.0 * z
    if not (_on_series_route(w3) or _on_series_route(w4)):
        return 0.0, _asymptotic_tail(w3), _asymptotic_tail(w4)
    return _LOG_RATIO, _entire_exp_integral(w3), _entire_exp_integral(w4)


def _u_channel(z: complex) -> complex:
    c, e3, e4 = _endpoint_channels(z)
    return (complex(c, 0.0) + (e4 - e3)) / _DENOM


def _F_channel(z: complex) -> complex:
    c, e3, e4 = _endpoint_channels(z)
    # continuous log along the arc gains 2 pi i (one counterclockwise turn)
    return (complex(-c, TAU) + (e3 - e4)) / _DENOM


def _tail_plus_channel(path, z, spec: QuadratureSpec, channel):
    """Quadrature of the tail g - 1/s on path plus channel(z), the closed-form
    1/s part.  A scalar z gives a complex; a 1-D array of z gives a complex
    array, each entry bit for bit the scalar value, from one batch."""
    if np.ndim(z) == 0:
        z = complex(z)
        c = channel(z)
        return integrate(_SHARED_TAIL.at, path, z, spec).value + c
    if np.ndim(z) > 1:
        raise ValueError("z must be a scalar or a 1-D array")
    zs = [complex(w) for w in np.asarray(z).tolist()]
    cs = [channel(w) for w in zs]
    results = _integrate_batch(_SHARED_TAIL.at, path, zs, spec)
    return np.array([r.value + c for r, c in zip(results, cs)], dtype=complex)


def borel_inversion(z, radius: float = 4.0, spec: QuadratureSpec = None):
    """Recover f(z) by integrating g(s) e^{zs} over an origin-centered circle.

    The 1/s part contributes its residue, exactly 1, for every z; the
    quadrature handles the tail g - 1/s.  z is a scalar or a 1-D array.
    """
    lo, hi = _INVERSION_RADII
    if not lo <= radius <= hi:
        raise ValueError(f"radius must lie in [{lo}, {hi}]")
    return _tail_plus_channel(CirclePath(radius), z, spec, lambda w: 1.0)


def u_eval(z, spec: QuadratureSpec = None):
    """The bounded piece: the loop integral restricted to the axis segment.

    Since the path sits on [-4, -3], |u(z)| <= (1/(2 pi)) max|g| e^{-3 Re z},
    so u decays in the right half-plane and is bounded for Re z >= 0.  z is
    a scalar or a 1-D array.
    """
    return _tail_plus_channel(closing_segment(), z, spec, _u_channel)


def F_eval(z, spec: QuadratureSpec = None):
    """The arc transform: the loop integral restricted to the spiral arc.

    Direct evaluation is refused beyond spec.cancellation_cap: the integrand
    reaches e^{4|z|} while the value stays near e^{1.5|z|}, and binary64 runs
    out of cancellation headroom.  Beyond the cap, use the identity
    F = f - u (see splitting_profile).  z is a scalar or a 1-D array; the
    cap applies to every entry.
    """
    if spec is None:
        spec = QuadratureSpec()
    worst = float(np.max(np.abs(z), initial=0.0))
    if worst > spec.cancellation_cap:
        raise CancellationCapError(
            f"|z|={worst:.4g} beyond cancellation cap {spec.cancellation_cap}; "
            "evaluate through the f - u identity instead"
        )
    return _tail_plus_channel(spiral_arc(), z, spec, _F_channel)


def splitting_profile(ev, theta: float, radii, spec: QuadratureSpec = None,
                      function_id: str = "F") -> GrowthProfile:
    """Growth profile of the arc transform computed as f - u.

    Valid at any radius: both pieces are evaluated independently of the
    cancellation-limited direct arc quadrature.
    """
    radii = np.asarray(radii, float)
    zs = radii * cis(theta)
    with np.errstate(divide="ignore"):
        log_u = np.log(u_eval(zs, spec))
    log_F = log_sub(ev.log_f(zs), log_u)
    return GrowthProfile(function_id, theta, radii, log_F.real / radii)


def u_decay_bound(x: float) -> float:
    """Explicit decay bound |u(x)| <= 0.0502 e^{-3x} for real x >= 0."""
    return 0.0502 * math.exp(-3.0 * x)

