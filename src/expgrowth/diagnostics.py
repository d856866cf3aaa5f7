"""Dyadic window statistics and regularity verdicts for growth profiles.

A profile samples log|f(r e^{i theta})|/r along one ray.  For a function of
regular growth those values settle toward a single limit h(theta); for the
canonical product they keep oscillating between the window minimum 2 log 2
and the window peak (2/alpha) log(2 alpha), alpha = e/2, forever.  The tools
here quantify that difference without ever deciding pointwise convergence:
each dyadic window [2^k, 2^(k+1)) is summarized by trimmed quantiles, and a
verdict is issued only from the joint behavior of the trailing windows.

Exact zeros on the ray produce -inf samples.  They form the exceptional set
of the profile and are excluded before any quantile is taken, but they still
count toward a window's sample total.

The quantiles are numpy's linear method, bit for bit those of np.quantile,
but computed by a small helper: np.quantile imports numpy.ma on its first
call (through np.unique), which costs a fresh process more than a ray.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, astuple, dataclass, fields
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .csvio import fmt, write_rows
from .lognum import LN2
from .product import GrowthProfile

#: samples a window must retain after -inf exclusion to yield stable quantiles
MIN_WINDOW_SAMPLES = 64

#: windows examined by classify; fewer are used when the profile is shorter
TRAILING_WINDOWS = 4


class InsufficientSamplesError(ValueError):
    """Raised when a profile is too sparse for window statistics."""


@dataclass(frozen=True)
class WindowStats:
    """Trimmed summary of one dyadic window [2^k, 2^(k+1))."""

    k: int
    r_lo: float
    r_hi: float
    inf: float
    q_low: float
    q_high: float
    sup: float

    def __post_init__(self) -> None:
        if not self.inf <= self.q_low <= self.q_high <= self.sup:
            raise ValueError("window quantiles out of order")

    @property
    def width(self) -> float:
        return self.q_high - self.q_low

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.q_low + self.q_high)


def _window_groups(profile: GrowthProfile):
    """(k, samples in window, finite samples) per dyadic window, ascending.

    The sample count is taken before -inf exclusion: hitting an exact zero
    must not disqualify an adequately sampled window (at theta = 0 every
    window opens on one).
    """
    radii, values = profile.radii, profile.values
    if not radii.size:
        return []
    # frexp is exact, so a dyadic radius opens its window's slice of radii
    k_lo, k_hi = (math.frexp(r)[1] - 1 for r in (radii[0], radii[-1]))
    cuts = radii.searchsorted(np.ldexp(1.0, np.arange(k_lo, k_hi + 2)))
    # non-finite samples before each cut: a window without any is a view
    bad = (~np.isfinite(values)).nonzero()[0].searchsorted(cuts).tolist()
    cuts = cuts.tolist()
    out = []
    for k, lo, hi, bad_lo, bad_hi in zip(range(k_lo, k_hi + 1), cuts,
                                         cuts[1:], bad, bad[1:]):
        vals = values[lo:hi]
        finite = vals if bad_lo == bad_hi else vals[np.isfinite(vals)]
        if finite.size:
            out.append((k, vals.size, finite))
    return out


def _quantile_pair(values: np.ndarray, q: float) -> tuple:
    """np.quantile(values, (q, 1 - q)) bit for bit, numpy's linear method.

    numpy's own steps: the virtual index (n - 1) * p clipped as numpy
    clips it, a partition on numpy's kth set (a sort can put -0.0 and 0.0
    in another order), and numpy's two-sided lerp.
    """
    n = values.size
    picks, kth = [], {0, -1}
    for p in (q, 1.0 - q):
        v = (n - 1) * p
        # numpy's _get_indexes: at or past the last index, take the last
        lo, hi = (-1, -1) if v >= n - 1 else (math.floor(v), math.floor(v) + 1)
        picks.append((v - lo, lo, hi))
        kth.update((lo, hi))
    part = values.copy()  # np.partition's own copy and call
    part.partition(sorted(kth))
    out = []
    for t, lo, hi in picks:
        a, b = float(part[lo]), float(part[hi])
        out.append(b - (b - a) * (1.0 - t) if t >= 0.5 else a + (b - a) * t)
    return tuple(out)


def window_stats(profile: GrowthProfile, q: float = 0.1) -> tuple:
    """Per-window infimum, q / (1-q) quantiles, and supremum.

    -inf samples (exact zeros on the ray) are dropped before the quantiles
    are taken.  Windows holding fewer than MIN_WINDOW_SAMPLES samples, or
    none finite at all, are skipped; if fewer than three windows survive the
    profile cannot support a verdict and InsufficientSamplesError is raised.
    The result is stored on the (read-only) profile by q, so classify and
    later calls with the same q take it from there.
    """
    if not 0.0 < q < 0.5:
        raise ValueError("q must lie in (0, 0.5)")
    if q in profile._window_stats:
        return profile._window_stats[q]
    stats = []
    for k, count, finite in _window_groups(profile):
        if count < MIN_WINDOW_SAMPLES:
            continue
        lo, hi = _quantile_pair(finite, q)
        stats.append(
            WindowStats(
                k=k,
                r_lo=math.ldexp(1.0, k),
                r_hi=math.ldexp(1.0, k + 1),
                inf=float(np.minimum.reduce(finite)),
                q_low=float(lo),
                q_high=float(hi),
                sup=float(np.maximum.reduce(finite)),
            )
        )
    if len(stats) < 3:
        raise InsufficientSamplesError(
            "need >= 3 dyadic windows with >= %d finite samples, got %d"
            % (MIN_WINDOW_SAMPLES, len(stats))
        )
    return profile._window_stats.setdefault(q, tuple(stats))


@dataclass(frozen=True)
class RegularityVerdict:
    """classify() outcome: regular (limit), irregular (gap), or inconclusive.

    limit_or_gap holds the limit estimate for a regular verdict, the
    persistent quantile gap for an irregular one, and None otherwise.
    windows are the trailing WindowStats the decision was based on.
    """

    function_id: str
    theta: float
    verdict: str
    limit_or_gap: float | None
    windows: tuple
    q: float
    gap_tol: float
    drift_tol: float


def classify(
    profile: GrowthProfile,
    q: float = 0.1,
    gap_tol: float = 0.02,
    drift_tol: float = 0.02,
) -> RegularityVerdict:
    """Regularity verdict from the trailing dyadic windows.

    regular: every trailing window has quantile width <= gap_tol and
    successive midpoints drift by <= drift_tol; the reported limit is the
    last midpoint.  irregular: every trailing window keeps a width >=
    2 * gap_tol; the reported gap is the smallest of those widths.  Anything
    in between is inconclusive rather than guessed.
    """
    if not (0.0 < gap_tol < math.inf and 0.0 < drift_tol < math.inf):
        raise ValueError("tolerances must be positive and finite")
    stats = window_stats(profile, q)
    tail = stats[-TRAILING_WINDOWS:]
    widths = [s.width for s in tail]
    mids = [s.midpoint for s in tail]
    drifts = [abs(b - a) for a, b in zip(mids, mids[1:])]
    if max(widths) <= gap_tol and max(drifts) <= drift_tol:
        verdict, value = "regular", mids[-1]
    elif min(widths) >= 2.0 * gap_tol:
        verdict, value = "irregular", min(widths)
    else:
        verdict, value = "inconclusive", None
    return RegularityVerdict(
        function_id=profile.function_id,
        theta=profile.theta,
        verdict=verdict,
        limit_or_gap=value,
        windows=tuple(tail),
        q=q,
        gap_tol=gap_tol,
        drift_tol=drift_tol,
    )


def type_estimate(profiles: Sequence[GrowthProfile]) -> float:
    """Finite-radius lower estimate of the exponential type.

    Takes the supremum of log|f|/r over the top dyadic window of each ray
    and maximizes over rays.  Needs at least eight distinct angles, each
    spanning at least four well-sampled windows; always a lower bound, and
    it approaches the true type as the top window moves out.
    """
    if len(profiles) < 8:
        raise InsufficientSamplesError("need >= 8 ray profiles")
    if len({p.theta for p in profiles}) < 8:
        raise InsufficientSamplesError("need >= 8 distinct angles")
    best = -math.inf
    for p in profiles:
        groups = [
            (k, v) for k, n, v in _window_groups(p) if n >= MIN_WINDOW_SAMPLES
        ]
        if len(groups) < 4:
            raise InsufficientSamplesError(
                "each ray needs >= 4 windows with >= %d samples"
                % MIN_WINDOW_SAMPLES
            )
        best = max(best, float(groups[-1][1].max()))
    return best


def exp2_profile(theta: float, radii: np.ndarray) -> GrowthProfile:
    """Control profile of e^{2z}: log|.|/r is exactly 2 cos(theta)."""
    radii = np.asarray(radii, dtype=float)
    values = np.full(radii.shape, 2.0 * math.cos(theta))
    return GrowthProfile("exp2z", theta, radii, values)


def sin2_profile(theta: float, radii: np.ndarray) -> GrowthProfile:
    """Control profile of sin(2z), type 2 with a regular indicator.

    log|sin w| for w = x + iy is 0.5 * log(sin^2 x + sinh^2 y); once
    |y| > 20 the sin^2 x term is below one ulp of sinh^2 y and the stable
    form |y| - log 2 + log1p(-e^{-2|y|}) avoids overflowing sinh.
    """
    radii = np.asarray(radii, dtype=float)
    x = 2.0 * math.cos(theta) * radii
    y = 2.0 * math.sin(theta) * radii
    ay = np.abs(y)
    log_abs = np.empty_like(radii)
    small = ay <= 20.0
    # a non-finite radius gives nan here, and GrowthProfile refuses it
    with np.errstate(divide="ignore", invalid="ignore"):
        log_abs[small] = 0.5 * np.log(np.sin(x[small]) ** 2 + np.sinh(y[small]) ** 2)
        big = ~small
        log_abs[big] = ay[big] - LN2 + np.log1p(-np.exp(-2.0 * ay[big]))
        values = log_abs / radii
    return GrowthProfile("sin2z", theta, radii, values)


def write_windows_csv(entries: Iterable, path) -> None:
    """entries: (profile, window stats sequence) pairs, one CSV row per window,
    its columns the profile's function_id and theta, then WindowStats' fields."""
    header = ("function_id", "theta", *(f.name for f in fields(WindowStats)))
    rows = [(profile.function_id, fmt(profile.theta), *map(fmt, astuple(s)))
            for profile, stats in entries for s in stats]
    write_rows(path, header, rows)


def write_verdict_json(verdict: RegularityVerdict, path) -> None:
    """Verdict as a small JSON record of its fields, windows included."""
    Path(path).write_text(json.dumps(asdict(verdict), indent=2) + "\n",
                          encoding="ascii")
