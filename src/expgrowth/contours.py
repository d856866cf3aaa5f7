"""Contour quadrature for the inversion, splitting, and arc transforms.

Every integral here is (1/(2*pi*i)) * int g(s) e^{zs} ds over some path
kept outside modulus 2.5, where the transform g is analytic; a path is
plain geometry, r(t) e^{i a(t)} with r and a linear in t, and g refuses a
node inside that floor.  A closed path (a circle) takes the periodic
trapezoid rule (spectrally accurate), an open one (the segment, the arc)
panels of a constant 16-point Gauss-Legendre rule.  Each path carries its
level-0 panel count (one on the unit segment, 64 nodes on a circle, 8
panels on the arc), and each level doubles the panels, up to the same
finest level of 131,072 nodes on every path.  Only e^{zs} depends on z:
the nodes of a path and level, as stacked real rows with their Dekker
heads for the doubled-precision exponent, and one weight per node,
W = g(s) s'(t) times the rule's, form one read-only table, built once per
process.  Levels 0 and 1, which every z needs, share one; a circle's
levels nest, so its shared table holds level 1's nodes and reads level 0
as every other one, at twice the weight.  From |z| = 4 on, where the arc
needs level 2 as a rule, its first pass forms levels 0 to 2 at once over
the join of their cached tables, with no new g work.  Per z, one
multiply forms the terms e^{zs} W over a table, and one math.fsum,
exactly rounded, sums each level's.  The rule is fixed and a
QuadratureSpec is only a tolerance.  Each named integral runs its one
path through one engine, _integrate, one z at a time: each entry of a
1-D batch is the scalar call, bit for bit, and reads the same cached
tables.  A non-finite z is refused before any quadrature.

The named integrals (borel_inversion, u_eval, F_eval) split g into 1/s plus
a smooth tail, and only the tail, whose oscillatory mass is ~25x smaller,
is refined.  The 1/s channel is its residue 1 on a circle; on the segment,
a fixed Gauss rule below |z| = 16 and the exponential integral's asymptotic
tails at the endpoints beyond (within 3e-14 of mpmath for |z| <= 40); on
the arc, by Cauchy's theorem, 1 minus the segment's.  That keeps the
roundoff floor of the splitting identity an order of magnitude under its
tolerance even at |z| = 8, where the raw integrand reaches e^{32}.

Past the cancellation cap of F_eval, F's growth comes from the splitting:
splitting_profile forms log F = log(f - u) from one ProductEvaluator.log_f
array and one batch of u with lognum.log_sub.  f may leave binary64 there,
but u may not: below Re z = -177.4, e^{-4z} overflows and u_eval raises
OverflowError, and where u is subnormal (about 235 < Re z < 245 off the real
axis) its quadrature can stall and raise NonConvergenceError.  Path points
use the array lognum.cis, exact at the cardinal angles.

Refinement stops when successive values agree to the requested relative
tolerance or hit the roundoff floor set by the accumulated absolute mass,
or when their difference stops shrinking within a few floors of it, where
more levels only trade one rounding for another; IntegralResult's
floor_limited says which of the floor stops ended it.  Anything else
raises, carrying the last two values for post-mortems.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .borel import MIN_MODULUS, BorelEvaluator
from .lognum import TAU, cis, log_sub
from .product import GrowthProfile

_EPS = math.ulp(1.0)

#: circle radii accepted by borel_inversion and the CLI's --radius
_INVERSION_RADII = (MIN_MODULUS, 8.0)

#: the rule: level L of a path takes its first panel count times 2^L
#: panels of _POINTS_PER_PANEL nodes, trapezoid on a closed path and Gauss
#: on an open one, up to _FINEST_PANELS on every path
_POINTS_PER_PANEL = 16
_FINEST_PANELS = 8192

#: a z whose level difference stops shrinking within this many roundoff
#: floors has stalled: at z = -8j the arc's true error, swinging with no
#: trend from level to level, reached 2.4 floors, and the difference
#: first grew at 1.15 floors
_STALL = 4.0

#: largest |z| at which F_eval integrates the arc directly
_CANCELLATION_CAP = 40.0


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
    """Arc-transform evaluation refused beyond the cancellation cap |z| = 40.

    The cap bounds where binary64 holds the arc at all; its documented
    accuracy ends far sooner, at |z| = 7.25 (see F_eval)."""


@dataclass(frozen=True)
class _Path:
    """r(t) e^{i a(t)} at t in [0, 1], a float or an array, with r and a
    linear in t; first is the panel count of level 0, and from |z| = wide
    on the first pass also forms level 2 (see _integrate)."""

    r_start: float
    r_end: float
    angle_start: float
    angle_end: float
    first: int
    wide: float = field(default=math.inf, repr=False)

    @property
    def closed(self) -> bool:
        """A full turn at a fixed radius: the trapezoid rule's path."""
        return (self.r_start == self.r_end
                and abs(self.angle_end - self.angle_start) == TAU)

    def at(self, t):
        """The path point s(t) and its derivative s'(t)."""
        dr = self.r_end - self.r_start
        dphi = self.angle_end - self.angle_start
        r = self.r_start + dr * t
        e = cis(self.angle_start + dphi * t)
        return r * e, (dr + 1j * (r * dphi)) * e


@dataclass(frozen=True)
class QuadratureSpec:
    """A tolerance only: refinement stops once successive levels agree to
    target_rel_tol relative, or to the roundoff floor."""

    target_rel_tol: float = 1e-10

    def __post_init__(self) -> None:
        if not self.target_rel_tol >= 1e-13:  # nan fails too
            raise ValueError("target_rel_tol below achievable floor 1e-13")


#: the default tolerance, built once
_DEFAULT_SPEC = QuadratureSpec()


@dataclass(frozen=True)
class IntegralResult:
    """The value at the last level, the difference from the level before,
    and that level, counted from the path's own first level;
    floor_limited when the difference met the roundoff floor or stalled
    near it, not the relative tolerance."""

    value: complex
    error: float
    refinements: int
    floor_limited: bool


_SPLIT = 134217729.0  # 2^27 + 1, Dekker splitting constant


def _split(a) -> tuple:
    """Dekker's split a = head + tail, each with at most 26 significant bits."""
    ah = a * _SPLIT
    ah = ah - (ah - a)
    return ah, a - ah


def _exp_zs(z: complex, rows: np.ndarray, heads: np.ndarray) -> np.ndarray:
    """e^{z s} on the nodes s of a level table, with the exponent in doubled
    precision.

    Rounding z*s to binary64 alone costs a relative error of |z*s|*eps in
    the exponential; with |z*s| up to ~160 on these contours that noise,
    multiplied by the integrand mass, would dominate every cancellation-
    limited integral.  The head/tail exponent buys those ~8 bits back.
    rows is the table's (2, 2, n) array [[s.imag, s.real], [s.real, -s.imag]]
    and heads its Dekker heads; against the column (z.real, z.imag) one set
    of whole-array calls forms the four products of y + ix = z*s, their
    exact errors (Dekker's two-product; no fma on 3.10), then y and x and
    their exact two-sum tails.
    """
    zr, zi = z.real, z.imag
    zrh, zrl = _split(zr)
    zih, zil = _split(zi)
    a, ah, al = np.array((zr, zi, zrh, zih, zrl, zil)).reshape(3, 2, 1, 1)
    p = a * rows  # [[zr si, zr sr], [zi sr, -zi si]]
    # e = ((ah bh - p) + ah bl + al bh) + al bl with the tails bl of the
    # rows; in place, so that few (2, 2, n) arrays are alive at once
    e = ah * heads
    e -= p
    tails = rows - heads
    t = ah * tails
    e += t
    np.multiply(al, heads, out=t)
    e += t
    tails *= al
    e += tails
    del t, tails
    # y + ix = p[0] + p[1], and its exact tail by Knuth's branch-free
    # two-sum, whichever addend is larger, plus e[0] + e[1]
    yx = p[0] + p[1]
    bb = yx - p[0]
    p[0] -= yx - bb
    p[1] -= bb
    p[0] += p[1]
    e[0] += e[1]
    p[0] += e[0]
    ye, xe = p[0]
    mag = np.exp(yx[1]) * (1.0 + xe)
    c = np.cos(yx[0])
    sn = np.sin(yx[0])
    out = np.empty(c.shape, dtype=complex)
    out.real, out.imag = mag * (c - ye * sn), mag * (sn + ye * c)
    return out


def _mirror(sign: float, *upper: str) -> np.ndarray:
    """16 entries from the last 8, in hex; entry 15 - i is sign * entry i."""
    half = np.array([float.fromhex(h) for h in upper])
    return np.concatenate([sign * half[::-1], half])


#: the 16-point Gauss-Legendre rule on [-1, 1], the panel rule of every
#: open path: numpy's leggauss(16) bit for bit (odd nodes, even weights,
#: both exactly), fixed here so that no LAPACK can move a node
_GAUSS_X = _mirror(
    -1.0, "0x1.852bd6676a9f9p-4", "0x1.205cae642337cp-2",
    "0x1.d50259a43a772p-2", "0x1.3c5a466d5e8b8p-1", "0x1.82c45dda4726bp-1",
    "0x1.bb3403514e483p-1", "0x1.e39f56616f9b0p-1", "0x1.fa92c264d787ep-1")
_GAUSS_W = _mirror(
    1.0, "0x1.83feae80e4e01p-3", "0x1.75f8c77e0c011p-3",
    "0x1.5a6ebbb5a7600p-3", "0x1.325f61bca3cbep-3", "0x1.fe7af2bad3878p-4",
    "0x1.85c4ee79cc24bp-4", "0x1.fdfb1a2c1261ep-5", "0x1.bcddab4b7c228p-6")
_GAUSS_X.flags.writeable = _GAUSS_W.flags.writeable = False


def _gauss_panels(panels: int) -> tuple:
    """Nodes t and weights of that many Gauss panels on [0, 1]."""
    half = 0.5 / panels
    t = (np.arange(panels) + 0.5)[:, None] / panels + half * _GAUSS_X
    return t.ravel(), np.tile(_GAUSS_W * half, panels)


#: keys (g, segment, levels) in use: 8 in a contour_solve round of the
#: benchmark (circles of radius 3, 4, 5 and the segment at levels (0, 1), the
#: arc at (0, 1), 2, 3 and the wide pass's join (0, 1, 2)), 9 in a round
#: where an inversion needs circle level 2, 5 in reproduce (radius 4,
#: segment, arc to 2 and the join)
_TABLE_SIZE = 32


@lru_cache(maxsize=_TABLE_SIZE)
def _level_table(g_eval, seg, levels: tuple) -> tuple:
    """The z-independent half of a pass, read-only so no caller can change
    what the next z reads: for the nodes s of levels on seg, the (2, 2, n)
    array rows = [[s.imag, s.real], [s.real, -s.imag]] and the array of
    its Dekker heads, one complex weight g(s) s'(t) w per node, with w the
    rule's weight, and per level its (index into the nodes, scale).  The
    complex s itself is not kept.

    Open paths join each level's Gauss nodes, at scale 1; the wide pass
    (0, 1, 2) of _integrate joins the cached tables of (0, 1) and (2,), so
    it evaluates g at no new node.  The levels of a closed path, a circle,
    nest (t = j/n lies on every finer level), so its table holds the
    finest level's n nodes alone, weighted 1/n, and reads a coarser level
    as every 2^d-th node at scale 2^d, which is exact."""
    if len(levels) > 2 and not seg.closed:
        parts = [_level_table(g_eval, seg, levels[:2])] + [
            _level_table(g_eval, seg, (level,)) for level in levels[2:]]
        starts = np.cumsum([0] + [part[2].size for part in parts]).tolist()
        cuts = [(slice(index.start + start, index.stop + start), scale)
                for part, start in zip(parts, starts)
                for index, scale in part[3]]
        return _frozen(*(np.concatenate(a, axis=-1)
                         for a in list(zip(*parts))[:3]), cuts)
    if seg.closed:
        top = max(levels)
        n = seg.first * _POINTS_PER_PANEL << top
        t = np.arange(n) / n  # exact dyadic t for power-of-two n
        w = 1.0 / n
        steps = [1 << top - level for level in levels]
        cuts = [(slice(None, None, step), float(step)) for step in steps]
    else:
        t, w = zip(*(_gauss_panels(seg.first << level) for level in levels))
        stops = np.cumsum([a.size for a in t]).tolist()
        cuts = [(slice(stop - a.size, stop), 1.0) for a, stop in zip(t, stops)]
        t, w = np.concatenate(t), np.concatenate(w)
    s, ds = seg.at(t)
    weights = g_eval(s) * ds * w
    rows = np.array([[s.imag, s.real], [s.real, -s.imag]])
    return _frozen(rows, _split(rows)[0], weights, cuts)


def _frozen(rows, heads, weights, cuts) -> tuple:
    """A level table, its arrays made read-only."""
    for a in (rows, heads, weights):
        a.flags.writeable = False
    return rows, heads, weights, tuple(cuts)


def _refinement_values(g_eval, seg, z: complex, levels: tuple) -> list:
    """The rule at each of levels for z: per level, (value, absolute mass
    sum |term| / tau).  One multiply forms the terms e^{zs} W over the nodes
    of the segment's _level_table, and one fsum sums each level's.  An
    overflow's FloatingPointError names z."""
    rows, heads, weights, cuts = _level_table(g_eval, seg, levels)
    try:
        terms = _exp_zs(z, rows, heads) * weights
        return [_value_and_mass(terms[index], scale) for index, scale in cuts]
    except FloatingPointError as exc:
        raise FloatingPointError(
            f"g(s) e^(zs) at z = {z!r} on {seg!r}: {exc}") from None


def _value_and_mass(part: np.ndarray, scale: float = 1.0) -> tuple:
    total = complex(math.fsum(memoryview(part.real)) * scale,
                    math.fsum(memoryview(part.imag)) * scale)
    return (total / (1j * TAU),
            float(np.add.reduce(np.abs(part), None)) * scale / TAU)


def _integrate(g_eval, seg, z: complex,
               spec: QuadratureSpec = None) -> IntegralResult:
    """(1/(2*pi*i)) * int_seg g(s) e^{zs} ds at z.

    g_eval maps an array of nodes s to g(s); it must be pure and hashable,
    as its values on a segment and level serve every z for the process.
    Levels 0 and 1, which every z needs, share one pass; each later level
    has its own, except that from |z| = seg.wide on, where z needs level 2
    as a rule, the first pass forms levels 0, 1 and 2 over the join of
    their tables.  The stops are tested level by level either way, so a
    pass changes no bit of the result.  The value of level L is returned once
    d_L = |v_L - v_{L-1}| meets the tolerance tol * |v_L| or the roundoff
    floor 4 * eps * mass_L, or, from level 2, once d_L >= d_{L-1} and
    d_L <= _STALL floors: the differences have stalled at roundoff.
    floor_limited is set when the floor or the stall stopped it, not the
    tolerance.  Differences that stall far above the floor raise
    NonConvergenceError after the last level; an overflowing integrand
    raises FloatingPointError (an ArithmeticError) at once.  A 1-D batch
    runs its z one at a time, so it raises the error of its first failing
    z, in order.
    """
    tol = (spec or _DEFAULT_SPEC).target_rel_tol
    last = (_FINEST_PANELS // seg.first).bit_length() - 1
    prev = older = None
    err = math.inf  # the last difference, inf before level 2
    first = (0, 1, 2) if abs(z) >= seg.wide else (0, 1)
    passes = [first] + [(level,) for level in range(len(first), last + 1)]
    with np.errstate(over="raise", invalid="raise"):
        for levels in passes:
            values = _refinement_values(g_eval, seg, z, levels)
            for level, (value, mass) in zip(levels, values):
                if level:
                    diff = abs(value - prev)
                    target = tol * abs(value)
                    floor = 4.0 * _EPS * mass
                    stalled = err <= diff <= _STALL * floor
                    err = diff
                    if diff <= max(target, floor) or stalled:
                        return IntegralResult(value, diff, level, diff > target)
                older, prev = prev, value
    raise NonConvergenceError(prev, older, err)


# ---------------------------------------------------------------------------
# the fixed geometry: an arc from -4 once around the origin to -3, closed by
# a segment on the negative real axis

#: g(s) - 1/s summed directly (c_1 = 0); the named integrals refine only
#: this smooth tail and add the 1/s channel, cutting the oscillatory mass
#: (hence the roundoff floor) by the ratio |g| / |g - 1/s| ~ 25 on the
#: annulus
_SHARED_TAIL = BorelEvaluator(min_index=2)


#: the paths of F_eval and u_eval, built once: the arc from -4 once around
#: counterclockwise to -3, radius within [3, 4], closed by the segment -3 to
#: -4.  Level 0 is sized to the path: 8 panels on the arc, 22 times the
#: segment, and one on the unit segment, the 1/s channel's own rule below
#: |z| = 8, good to 3e-14 there.  The arc's first pass also forms level
#: 2 from |z| = 4 on, where a z needs it as a rule: of 400 z with |z|
#: uniform in [0, 8], at tolerance 1e-13, none below 3 did, 47 of 55 in
#: [4, 5) and all from 5 on (3.5 measured no faster).  The others keep
#: no wide pass: the segment stayed at level 1 for all 400, circles of
#: radius 3, 4 and 5 for 392 of 400 inversions with |z| <= 4
_ARC = _Path(4.0, 3.0, -math.pi, math.pi, 8, wide=4.0)
_SEGMENT = _Path(3.0, 4.0, math.pi, math.pi, 1)


#: from this |z| on, |w| >= 48 at both endpoints and the 1/s channel takes
#: their asymptotic tails, whose cut-off terms are below 1e-19 relative;
#: below it, one Gauss panel on [-3, -4] per 8 of |z|
_CHANNEL_RADIUS = 16.0

#: 2 pi i; dividing by it maps (x, y) to (y, -x) / tau with two exact
#: component divisions, so negation symmetries survive to the last bit
_DENOM = 1j * TAU


def _asymptotic_tail(w: complex) -> complex:
    """e^w S(w) / w, with S the asymptotic series of the entire exponential
    integral E(w) = int_0^1 (e^{wt} - 1)/t dt cut at its smallest term; for
    large |w|, E(w) = -gamma - log(-w) + this."""
    t = s = 1.0 + 0.0j
    for k in range(1, 300):
        nxt = t * k / w
        if abs(nxt) >= abs(t):
            break
        t = nxt
        s += t
    return cmath.exp(w) * s / w


# kept for u's 1/s channel, run twice in every contour_solve identity op
@lru_cache(maxsize=2)
def _channel_panels(panels: int) -> tuple:
    """Nodes s of that many Gauss panels on [-3, -4], weights * ds/s."""
    t, w = _gauss_panels(panels)
    s = -3.0 - t
    weights = w / -s  # ds = -dt
    s.flags.writeable = weights.flags.writeable = False
    return s, weights


def _u_channel(z: complex) -> complex:
    """(1/(2 pi i)) int_{-3}^{-4} e^{zs}/s ds, the 1/s part of u: Gauss
    panels below |z| = 16, else E(-4z) - E(-3z) + log(4/3), whose -gamma and
    log terms cancel exactly and leave the endpoint tails.  Its
    OverflowError names z once e^{-4z} leaves binary64."""
    r = abs(z)
    if r < _CHANNEL_RADIUS:
        s, weights = _channel_panels(1 if r <= _CHANNEL_RADIUS / 2 else 2)
        return _value_and_mass(np.exp(z * s) * weights)[0]
    try:
        tails = _asymptotic_tail(-4.0 * z) - _asymptotic_tail(-3.0 * z)
    except OverflowError:
        raise OverflowError(f"u(z) at z = {z!r} leaves binary64: e^(-4z) "
                            "overflows once Re z < -177.4") from None
    return tails / _DENOM


def _F_channel(z: complex) -> complex:
    """1 - the segment's channel: the arc and then the segment wind once
    around the pole at 0, so by Cauchy's theorem the two channels sum to 1."""
    return 1.0 - _u_channel(z)


def _tail_plus_channel(seg, z, spec: QuadratureSpec, channel,
                       cap: float = math.inf):
    """Quadrature of the tail g - 1/s on seg plus channel(z), the 1/s part,
    which needs no refinement.  A scalar z gives a complex; a 1-D array of
    z gives a complex array, each entry the scalar value, as _integrate
    runs one z at a time.  ValueError for a non-finite z,
    CancellationCapError for one with |z| > cap, and any channel's error
    come first, for every z, before any quadrature; then the first z whose
    quadrature fails raises."""
    batch = np.asarray(z)
    ndim = batch.ndim
    if ndim > 1:
        raise ValueError("z must be a scalar or a 1-D array")
    zs = [complex(w) for w in (batch.tolist() if ndim else [z])]
    for w in zs:
        if not cmath.isfinite(w):
            raise ValueError(f"z = {w!r} is not finite")
        if abs(w) > cap:
            raise CancellationCapError(
                f"|z|={abs(w)!r} beyond cancellation cap {cap}; "
                "evaluate through the f - u identity instead")
    cs = [channel(w) for w in zs]
    values = [_integrate(_SHARED_TAIL.at, seg, w, spec).value + c
              for w, c in zip(zs, cs)]
    return np.array(values, dtype=complex) if ndim else values[0]


def borel_inversion(z, radius: float = 4.0, spec: QuadratureSpec = None):
    """Recover f(z) by integrating g(s) e^{zs} over an origin-centered circle.

    The 1/s part contributes its residue, exactly 1, for every z; the
    quadrature handles the tail g - 1/s.  It meets 1e-7 (1 + |f|) for |z|
    up to 12, 10.5, 6, 5 and 2 at radius 2.5, 3, 4, 5 and 8 (measured; see
    README).  z is a scalar or a 1-D array.
    """
    lo, hi = _INVERSION_RADII
    if not lo <= radius <= hi:
        raise ValueError(f"radius must lie in [{lo}, {hi}]")
    # 4 panels (64 nodes) at level 0, where the trapezoid rule converges
    # geometrically and meets 1e-10 for |z| * r up to about 16
    circle = _Path(radius, radius, 0.0, TAU, 4)
    return _tail_plus_channel(circle, z, spec, lambda w: 1.0)


def u_eval(z, spec: QuadratureSpec = None):
    """The bounded piece: the loop integral restricted to the axis segment.

    Since the path sits on [-4, -3], |u(z)| <= (1/(2 pi)) max|g| e^{-3 Re z},
    so u decays in the right half-plane and is bounded for Re z >= 0.  z is
    a scalar or a 1-D array.
    """
    return _tail_plus_channel(_SEGMENT, z, spec, _u_channel)


def F_eval(z, spec: QuadratureSpec = None):
    """The arc transform: the loop integral restricted to the spiral arc.

    The integrand reaches e^{4|z|} while the value stays near e^{1.5|z|},
    so roundoff grows with |z|.  The splitting identity holds to
    |F + u - f| <= 1e-7 (1 + |f|) for |z| <= 7.25 in every direction
    (measured on 144 rays at steps of 1/16; the negative axis fails first,
    1.4e-7 at 7.31), and on the ray theta = 0.5 up to |z| = 10 (6.6e-8);
    there the defect is 9.2e-7 at 11, 1.4e-5 at 12, 1.2 at 16 and 2.4e14
    at 30.  Direct evaluation is refused beyond |z| = 40, where binary64
    runs out of cancellation headroom altogether.  Outside the accurate
    domain, use the identity F = f - u (see splitting_profile).  z is a
    scalar or a 1-D array; the cap applies to every entry.
    """
    return _tail_plus_channel(_ARC, z, spec, _F_channel, _CANCELLATION_CAP)


def splitting_profile(ev, theta: float, radii) -> GrowthProfile:
    """Growth profile of the arc transform computed as f - u.

    Both pieces are evaluated independently of the cancellation-limited
    direct arc quadrature, so no radius cap applies, but u must stay in
    binary64.  Measured over dyadic_radii(8, 14, 256) and scans of Re z:
    it raises OverflowError once some Re z < -177.4, where e^{-4z}
    overflows (r > 426 at theta = 2, r > 177.4 at theta = pi), and
    NonConvergenceError at radii where u is subnormal, about
    235 < Re z < 245 off the real axis (theta = 0.5, 1.0, 1.5).  Elsewhere,
    the whole positive axis included, it returns the profile.
    """
    radii = np.asarray(radii, float)
    zs = radii * cis(theta)
    with np.errstate(divide="ignore"):
        log_u = np.log(u_eval(zs))
    log_F = log_sub(ev.log_f(zs), log_u)
    return GrowthProfile("F", theta, radii, log_F.real / radii)


def u_decay_bound(x: float) -> float:
    """Explicit bound |u(z)| <= 0.0502 e^{-sx} at Re z = x, s = 3 for x >= 0
    and 4 for x < 0: the largest |e^{zs}| on the segment [-4, -3] times
    (1/2 pi) int |g| there, at most 0.0478 (the majorant sum of |c_m|
    t^{-m-1} integrated term by term).  |u(0)| is 0.0438.  ValueError for
    a nan x.
    """
    if math.isnan(x):
        raise ValueError("u_decay_bound needs a real x, not nan")
    return 0.0502 * math.exp(-min(3.0 * x, 4.0 * x))
