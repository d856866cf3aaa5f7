"""Static SVG figures assembled from polylines; no renderer dependencies.

Each writer lays out a single fixed-size panel.  Radii go on a log2 axis
where that is the natural scale.  Coordinates are printed with two decimals
and data labels reuse the shared float formatter, so identical inputs give
byte-identical files.
"""
from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .csvio import fmt, row_blocks

WIDTH = 640
HEIGHT = 420
# margins: left, right, top, bottom
_ML, _MR, _MT, _MB = 64, 20, 28, 48

_AXIS = "#444444"
_LINE = "#1f4e9c"
_BAND = "#b8ccec"
_GUIDE = "#b03030"


class _Panel:
    """Maps data coordinates into the plot box and collects elements."""

    def __init__(self, x_lo, x_hi, y_lo, y_hi, x_label, y_label, title):
        if not (x_lo < x_hi and y_lo < y_hi):
            raise ValueError("degenerate axis range")
        self.x_lo, self.x_hi = float(x_lo), float(x_hi)
        self.y_lo, self.y_hi = float(y_lo), float(y_hi)
        self.parts = [
            '<rect x="%d" y="%d" width="%d" height="%d" fill="none" '
            'stroke="%s"/>' % (_ML, _MT, WIDTH - _ML - _MR,
                               HEIGHT - _MT - _MB, _AXIS),
            '<text x="%d" y="18" font-size="13" text-anchor="middle" '
            'fill="%s">%s</text>' % (WIDTH // 2, _AXIS, title),
            '<text x="%d" y="%d" font-size="12" text-anchor="middle" '
            'fill="%s">%s</text>' % (WIDTH // 2, HEIGHT - 10, _AXIS, x_label),
            '<text x="14" y="%d" font-size="12" text-anchor="middle" '
            'fill="%s" transform="rotate(-90 14 %d)">%s</text>'
            % (HEIGHT // 2, _AXIS, HEIGHT // 2, y_label),
        ]

    def px(self, x):
        w = WIDTH - _ML - _MR
        return _ML + w * (x - self.x_lo) / (self.x_hi - self.x_lo)

    def py(self, y):
        h = HEIGHT - _MT - _MB
        return HEIGHT - _MB - h * (y - self.y_lo) / (self.y_hi - self.y_lo)

    def polyline(self, xs, ys, color=_LINE, width=1.4, dash=None):
        # px and py on whole arrays: per element the operations of one value
        pts = "".join(row_blocks("%.2f,%.2f ", self.px(np.asarray(xs, float)),
                                 self.py(np.asarray(ys, float))))[:-1]
        extra = ' stroke-dasharray="%s"' % dash if dash else ""
        self.parts.append(
            '<polyline points="%s" fill="none" stroke="%s" '
            'stroke-width="%.1f"%s/>' % (pts, color, width, extra)
        )

    def band(self, x0, x1, y0, y1, color=_BAND):
        self.parts.append(
            '<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" '
            'fill="%s" fill-opacity="0.6"/>'
            % (self.px(x0), self.py(y1), self.px(x1) - self.px(x0),
               self.py(y0) - self.py(y1), color)
        )

    def hguide(self, y, label, color=_GUIDE):
        self.polyline((self.x_lo, self.x_hi), (y, y), color=color,
                      width=1.0, dash="5,4")
        self.parts.append(
            '<text x="%d" y="%.2f" font-size="11" fill="%s">%s</text>'
            % (WIDTH - _MR - 52, self.py(y) - 4, color, label)
        )

    def x_ticks(self, positions, labels):
        for x, lab in zip(positions, labels):
            px = self.px(x)
            self.parts.append(
                '<line x1="%.2f" y1="%d" x2="%.2f" y2="%d" stroke="%s"/>'
                % (px, HEIGHT - _MB, px, HEIGHT - _MB + 5, _AXIS)
            )
            self.parts.append(
                '<text x="%.2f" y="%d" font-size="11" text-anchor="middle" '
                'fill="%s">%s</text>' % (px, HEIGHT - _MB + 18, _AXIS, lab)
            )

    def y_ticks(self, positions, labels):
        for y, lab in zip(positions, labels):
            py = self.py(y)
            self.parts.append(
                '<line x1="%d" y1="%.2f" x2="%d" y2="%.2f" stroke="%s"/>'
                % (_ML - 5, py, _ML, py, _AXIS)
            )
            self.parts.append(
                '<text x="%d" y="%.2f" font-size="11" text-anchor="end" '
                'fill="%s">%s</text>' % (_ML - 8, py + 4, _AXIS, lab)
            )

    def write(self, path):
        doc = (
            '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
            'viewBox="0 0 %d %d">\n' % (WIDTH, HEIGHT, WIDTH, HEIGHT)
            + "\n".join(self.parts)
            + "\n</svg>\n"
        )
        Path(path).write_text(doc, encoding="ascii")


def _k_ticks(k_lo, k_hi):
    ks = list(range(int(math.ceil(k_lo)), int(k_hi) + 1))
    step = max(1, len(ks) // 8)
    ks = ks[::step]
    return ks, ["2^%d" % k for k in ks]


def write_counting_svg(radii, ratios, flags, path) -> None:
    """Normalized zero counts n(r)/r against log2 r, with both density bars.

    flags marks samples in the upper dyadic band [1.5*2^(k-1), 2^k), where
    the ratio must stay below 4/3.
    """
    radii = np.asarray(radii, float)
    ratios = np.asarray(ratios, float)
    x = np.log2(radii)
    panel = _Panel(x[0], x[-1], 0.0, 2.15, "r (log scale)", "n(r)/r",
                   "zero counting density")
    panel.hguide(2.0, "2")
    panel.hguide(4.0 / 3.0, "4/3")
    flags = np.asarray(flags, bool)
    if flags.any():
        panel.polyline(x[flags], ratios[flags], color=_BAND, width=3.0)
    panel.polyline(x, ratios)
    panel.x_ticks(*_k_ticks(x[0], x[-1]))
    panel.y_ticks((0.0, 0.5, 1.0, 1.5, 2.0),
                  ("0", "0.5", "1", "1.5", "2"))
    panel.write(path)


def write_profile_svg(profile, stats, path) -> None:
    """Growth profile along one ray with per-window quantile bands.

    -inf samples (exact zeros) break the polyline instead of dragging it off
    the panel.
    """
    x = np.log2(profile.radii)
    finite = np.isfinite(profile.values)
    if not finite.any():
        raise ValueError("profile has no finite samples")
    vals = profile.values[finite]
    lo = min(float(vals.min()), min((s.inf for s in stats), default=math.inf))
    hi = max(float(vals.max()), max((s.sup for s in stats), default=-math.inf))
    pad = 0.06 * (hi - lo) if hi > lo else 0.1
    panel = _Panel(x[0], x[-1], lo - pad, hi + pad, "r (log scale)",
                   "log|%s| / r" % profile.function_id,
                   "growth profile, theta = %s" % fmt(profile.theta))
    for s in stats:
        panel.band(math.log2(s.r_lo), math.log2(s.r_hi), s.q_low, s.q_high)
    # split the polyline at exact zeros
    start = 0
    for i in range(len(x) + 1):
        if i == len(x) or not finite[i]:
            if i - start >= 2:
                panel.polyline(x[start:i], profile.values[start:i])
            start = i + 1
    panel.x_ticks(*_k_ticks(x[0], x[-1]))
    ticks = np.linspace(lo, hi, 5)
    panel.y_ticks(ticks, ["%.3g" % t for t in ticks])
    panel.write(path)


def write_decay_svg(xs, u_abs, bounds, path) -> None:
    """|u| on the positive axis (log10 scale) against its decay bound."""
    xs = np.asarray(xs, float)
    u_log = np.log10(np.maximum(np.asarray(u_abs, float), 1e-300))
    b_log = np.log10(np.asarray(bounds, float))
    lo = min(float(u_log.min()), float(b_log.min())) - 0.5
    hi = max(float(u_log.max()), float(b_log.max())) + 0.5
    panel = _Panel(xs[0], xs[-1], lo, hi, "x", "log10 |u(x)|",
                   "bounded piece decay on the positive axis")
    panel.polyline(xs, b_log, color=_GUIDE, width=1.0, dash="5,4")
    panel.polyline(xs, u_log)
    ticks = np.linspace(xs[0], xs[-1], 6)
    panel.x_ticks(ticks, ["%.3g" % t for t in ticks])
    yticks = np.linspace(lo, hi, 5)
    panel.y_ticks(yticks, ["%.3g" % t for t in yticks])
    panel.write(path)
