"""Acceptance gate: ten quantitative criteria, one printed verdict line each.

Each test prints its pass/fail line even when output capture is active, so a
full run always shows the ten verdicts.  Tolerances are pinned here and are
not to be loosened; see the README for what each criterion certifies.
"""
import math
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from expgrowth.contours import (
    F_eval,
    QuadratureSpec,
    borel_inversion,
    u_decay_bound,
    u_eval,
)
from expgrowth.diagnostics import classify, exp2_profile, sin2_profile, window_stats
from expgrowth.lattice import ZeroLattice
from expgrowth.lognum import exp
from expgrowth.product import ProductEvaluator, dyadic_radii

LIMSUP = 1.4715177646857693   # 4/e
WINDOW_MIN = 1.3862943611198906  # 2 log 2


@pytest.fixture(scope="module")
def lat20():
    return ZeroLattice(k_max=20)


@pytest.fixture(scope="module")
def ev():
    return ProductEvaluator(ZeroLattice(k_max=14))


def _verdict(capsys, number, ok, detail, elapsed, budget):
    with capsys.disabled():
        print("criterion %2d: %s  (%s; %.2fs of %gs budget)"
              % (number, "pass" if ok else "FAIL", detail, elapsed, budget))
    assert ok, detail
    assert elapsed <= budget, "criterion %d exceeded %gs" % (number, budget)


def test_criterion_01_counting_exact(lat20, capsys):
    """n(2^k)/2^k = 2 - 2^(1-k) exactly, increasing, sup <= 2, k = 1..20."""
    t0 = time.monotonic()
    values = []
    for k in range(1, 21):
        got = Fraction(lat20.counting(2.0 ** k), 2 ** k)
        values.append(got)
        if got != 2 - Fraction(2, 2 ** k):
            _verdict(capsys, 1, False, "mismatch at k = %d" % k,
                     time.monotonic() - t0, 1.0)
    increasing = all(a < b for a, b in zip(values, values[1:]))
    bounded = all(v <= 2 for v in values)
    _verdict(capsys, 1, increasing and bounded,
             "exact dyadic counts, increasing, sup <= 2",
             time.monotonic() - t0, 1.0)


def test_criterion_02_upper_band(lat20, capsys):
    """n(r)/r <= 4/3 on 10^4-point grids of the upper band, k = 2..20."""
    t0 = time.monotonic()
    worst_num, worst_den = 0, 1
    for k in range(2, 21):
        lo, hi = 1.5 * 2.0 ** (k - 1), 2.0 ** k
        grid = np.linspace(lo, hi, 10_000, endpoint=False)
        for r in grid:
            n = lat20.counting(float(r))
            # exact: int-float comparison in Python is performed exactly
            if 3 * n > 4 * r:
                _verdict(capsys, 2, False, "band bound broken at r = %r" % r,
                         time.monotonic() - t0, 1.0)
            if n * worst_den > worst_num * r:
                worst_num, worst_den = n, r
    _verdict(capsys, 2, True,
             "sup n(r)/r = %.6f <= 4/3 on all band grids"
             % (worst_num / worst_den), time.monotonic() - t0, 1.0)


def test_criterion_03_reciprocal_sums(capsys):
    """|sum of 1/a over |a| <= r| <= 1e-12 for every integer r in [2, 4096]."""
    t0 = time.monotonic()
    lat = ZeroLattice(k_max=12)
    worst = max(abs(lat.reciprocal_sum(float(r))) for r in range(2, 4097))
    _verdict(capsys, 3, worst <= 1e-12,
             "max |sum 1/a| = %.3g" % worst, time.monotonic() - t0, 5.0)


def test_criterion_04_product_oracle(ev, capsys):
    """Closed form vs per-zero factors within 1e-10 relative on 100 draws."""
    t0 = time.monotonic()
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(100):
        r = rng.uniform(1.0, 50.0)
        phi = rng.uniform(-math.pi, math.pi)
        z = r * complex(math.cos(phi), math.sin(phi))
        closed = ev.eval_log_f(z).to_complex()
        direct = complex(exp(ev.eval_log_f_direct(z, min(14, ev.cutoff(z)))))
        worst = max(worst, abs(closed - direct) / abs(closed))
    _verdict(capsys, 4, worst <= 1e-10,
             "max rel diff = %.3g over 100 draws" % worst,
             time.monotonic() - t0, 5.0)


def test_criterion_05_borel_inversion(ev, capsys):
    """Inversion matches f within 1e-7*(1+|f|); radii 3 and 5 agree to 1e-8."""
    t0 = time.monotonic()
    rng = np.random.default_rng(40)
    worst_resid = 0.0
    worst_deform = 0.0
    for _ in range(50):
        r = rng.uniform(0.0, 4.0)
        phi = rng.uniform(-math.pi, math.pi)
        z = r * complex(math.cos(phi), math.sin(phi))
        fv = ev.eval_log_f(z).to_complex()
        inv = borel_inversion(z)
        worst_resid = max(worst_resid, abs(inv - fv) / (1.0 + abs(fv)))
        inv3 = borel_inversion(z, radius=3.0)
        inv5 = borel_inversion(z, radius=5.0)
        worst_deform = max(
            worst_deform, abs(inv3 - inv5) / max(abs(inv3), abs(inv5)))
    ok = worst_resid <= 1e-7 and worst_deform <= 1e-8
    _verdict(capsys, 5, ok,
             "max residual = %.3g, radius 3 vs 5 rel diff = %.3g"
             % (worst_resid, worst_deform), time.monotonic() - t0, 30.0)


def test_criterion_06_splitting_identity(ev, capsys):
    """|F(z) + u(z) - f(z)| <= 1e-7*(1+|f|) on 50 draws with |z| <= 8."""
    t0 = time.monotonic()
    spec = QuadratureSpec(target_rel_tol=1e-13)
    rng = np.random.default_rng(21)
    worst = 0.0
    for _ in range(50):
        r = rng.uniform(0.0, 8.0)
        phi = rng.uniform(-math.pi, math.pi)
        z = r * complex(math.cos(phi), math.sin(phi))
        fv = ev.eval_log_f(z).to_complex()
        resid = abs(F_eval(z, spec) + u_eval(z, spec) - fv)
        worst = max(worst, resid / (1.0 + abs(fv)))
    _verdict(capsys, 6, worst <= 1e-7,
             "max residual / (1+|f|) = %.3g over 50 draws" % worst,
             time.monotonic() - t0, 30.0)


def test_criterion_07_u_decay(capsys):
    """|u(x)| <= 0.0502 e^(-3x) on [0, 10]; |u(0)| = 0.0438 +- 0.001."""
    t0 = time.monotonic()
    xs = [0.25 * i for i in range(41)]
    worst_ratio = 0.0
    for x in xs:
        ratio = abs(u_eval(complex(x, 0.0))) / u_decay_bound(x)
        worst_ratio = max(worst_ratio, ratio)
    u0 = abs(u_eval(0.0 + 0.0j))
    ok = worst_ratio <= 1.0 + 1e-6 and abs(u0 - 0.0438) <= 1e-3
    _verdict(capsys, 7, ok,
             "max |u|/bound = %.3f, |u(0)| = %.6f" % (worst_ratio, u0),
             time.monotonic() - t0, 5.0)


def test_criterion_08_irregular_vs_controls(ev, capsys):
    """f is irregular over windows k = 8..13; both controls are regular."""
    t0 = time.monotonic()
    radii = dyadic_radii(8, 14, 256)
    prof = ev.profile_on(0.0, radii)
    stats = window_stats(prof, 0.1)
    wide = ([s.k for s in stats] == list(range(8, 14))
            and all(s.width >= 0.04 for s in stats))
    vf = classify(prof, q=0.1, gap_tol=0.02)
    vexp = classify(exp2_profile(0.0, radii))
    vsin = classify(sin2_profile(math.pi / 2.0, radii))
    controls = (vexp.verdict == "regular"
                and abs(vexp.limit_or_gap - 2.0) <= 0.01
                and vsin.verdict == "regular"
                and abs(vsin.limit_or_gap - 2.0) <= 0.01)
    ok = wide and vf.verdict == "irregular" and controls
    _verdict(capsys, 8, ok,
             "f %s (min gap %.3f), control limits %.4f / %.4f"
             % (vf.verdict, min(s.width for s in stats),
                vexp.limit_or_gap, vsin.limit_or_gap),
             time.monotonic() - t0, 60.0)


def test_criterion_09_type_bound(ev, capsys):
    """sup log M(r)/r <= 2.00 and = 1.4715 +- 0.01; trailing window minima
    = 1.3863 +- 0.01 (finite-radius drift keeps earlier windows lower)."""
    t0 = time.monotonic()
    radii = dyadic_radii(8, 14, 64)
    vals = np.array([ev.max_modulus(float(r), 64) for r in radii])
    sup = float(vals.max())
    minima = {}
    for r, v in zip(radii, vals):
        k = math.frexp(r)[1] - 1
        minima[k] = min(minima.get(k, math.inf), v)
    trailing_min = [minima[k] for k in (11, 12, 13)]
    ok = (sup <= 2.00
          and abs(sup - LIMSUP) <= 0.01
          and all(abs(m - WINDOW_MIN) <= 0.01 for m in trailing_min))
    _verdict(capsys, 9, ok,
             "sup = %.4f, trailing minima %s"
             % (sup, ["%.4f" % m for m in trailing_min]),
             time.monotonic() - t0, 60.0)


def test_criterion_10_reproduce_determinism(tmp_path, capsys):
    """Two consecutive reproduce runs emit byte-identical artifacts."""
    t0 = time.monotonic()
    dirs = (tmp_path / "a", tmp_path / "b")
    for d in dirs:
        proc = subprocess.run(
            [sys.executable, "-m", "expgrowth", "--out-dir", str(d),
             "reproduce"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
    names = sorted(p.name for p in dirs[0].iterdir())
    same = (names == sorted(p.name for p in dirs[1].iterdir()) and all(
        (dirs[0] / n).read_bytes() == (dirs[1] / n).read_bytes()
        for n in names))
    _verdict(capsys, 10, same,
             "%d artifacts byte-identical across runs" % len(names),
             time.monotonic() - t0, 60.0)
