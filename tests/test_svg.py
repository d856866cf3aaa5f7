"""Tests for the SVG writers: polylines against the per-point code."""
import math
import re

import numpy as np
import pytest

from expgrowth import svg
from expgrowth.cli import _write_counting
from expgrowth.diagnostics import window_stats
from expgrowth.lattice import ZeroLattice
from expgrowth.product import ProductEvaluator, dyadic_radii


def per_point(panel, xs, ys):
    """The point string the whole-array polyline replaced: px and py on one
    value at a time, one "%" per point."""
    w = svg.WIDTH - svg._ML - svg._MR
    h = svg.HEIGHT - svg._MT - svg._MB
    x_lo, x_hi, y_lo, y_hi = panel.x_lo, panel.x_hi, panel.y_lo, panel.y_hi
    return " ".join(
        "%.2f,%.2f" % (svg._ML + w * (x - x_lo) / (x_hi - x_lo),
                       svg.HEIGHT - svg._MB - h * (y - y_lo) / (y_hi - y_lo))
        for x, y in zip(xs, ys))


def points(part):
    return re.fullmatch(r'<polyline points="([^"]*)" .*', part).group(1)


@pytest.fixture
def checked_polylines(monkeypatch):
    """Every polyline a writer draws, checked against per_point; returns
    the list of point strings drawn."""
    drawn = []
    polyline = svg._Panel.polyline

    def checked(self, xs, ys, *args, **kwargs):
        polyline(self, xs, ys, *args, **kwargs)
        drawn.append(points(self.parts[-1]))
        assert drawn[-1] == per_point(self, xs, ys)

    monkeypatch.setattr(svg._Panel, "polyline", checked)
    return drawn


class TestPolyline:
    @pytest.mark.parametrize("kind", ["tuple", "list", "numpy"])
    def test_matches_per_point(self, kind):
        rng = np.random.default_rng(3)
        panel = svg._Panel(-3.7, 12.1, -0.3, 2.9, "x", "y", "t")
        # past two blocks of rows, and beyond both edges of the panel
        xs = rng.uniform(-5.0, 14.0, 2500)
        ys = rng.uniform(-1.0, 3.5, 2500)
        xs[:4] = [panel.x_lo, panel.x_hi, -0.0, 0.0]
        cast = {"tuple": tuple, "list": list, "numpy": np.asarray}[kind]
        panel.polyline(cast(xs.tolist()), cast(ys.tolist()))
        assert points(panel.parts[-1]) == per_point(panel, xs.tolist(),
                                                    ys.tolist())

    def test_guide_from_a_tuple(self):
        panel = svg._Panel(1.0, 21.0, 0.0, 2.15, "x", "y", "t")
        panel.hguide(4.0 / 3.0, "4/3")
        assert points(panel.parts[-2]) == per_point(
            panel, (panel.x_lo, panel.x_hi), (4.0 / 3.0, 4.0 / 3.0))

    def test_empty(self):
        panel = svg._Panel(0.0, 1.0, 0.0, 1.0, "x", "y", "t")
        panel.polyline([], [])
        assert points(panel.parts[-1]) == ""


class TestWriters:
    def test_profile_split_at_exact_zeros(self, checked_polylines, tmp_path):
        ev = ProductEvaluator(ZeroLattice(k_max=14))
        profile = ev.profile_on(0.0, dyadic_radii(2, 12, 64))
        zeros = int(np.isinf(profile.values).sum())
        assert zeros >= 5
        svg.write_profile_svg(profile, window_stats(profile),
                              tmp_path / "profile.svg")
        # one piece between consecutive zeros, none of them empty
        assert len(checked_polylines) >= zeros - 1
        assert all(checked_polylines)
        written = re.findall(r'<polyline points="([^"]*)"',
                             (tmp_path / "profile.svg").read_text())
        assert written == checked_polylines

    def test_counting_and_decay(self, checked_polylines, tmp_path):
        rows = _write_counting(ZeroLattice(k_max=9), tmp_path, emit_svg=True)
        assert any(flag for *_, flag in rows)
        xs = np.linspace(0.0, 10.0, 41)
        svg.write_decay_svg(xs, np.exp(-3.0 * xs) / 7.0,
                            np.exp(-3.0 * xs + math.log(2.0)),
                            tmp_path / "decay.svg")
        # two guides, the flagged band and the curve; bound and curve
        assert len(checked_polylines) == 6
