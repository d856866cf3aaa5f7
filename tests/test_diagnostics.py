"""Tests for window statistics and growth verdicts."""
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from expgrowth import diagnostics
from expgrowth.diagnostics import (
    TRAILING_WINDOWS,
    InsufficientSamplesError,
    RegularityVerdict,
    _quantile_pair,
    _window_groups,
    classify,
    exp2_profile,
    sin2_profile,
    type_estimate,
    window_stats,
    write_verdict_json,
    write_windows_csv,
)
from expgrowth.contours import splitting_profile
from expgrowth.lattice import ZeroLattice
from expgrowth.product import GrowthProfile, ProductEvaluator, dyadic_radii

LIMSUP = 1.4715177646857693  # 4/e, the true exponential type of the product


@pytest.fixture(scope="module")
def ev():
    return ProductEvaluator(ZeroLattice(k_max=14))


@pytest.fixture(scope="module")
def f_profile(ev):
    # windows k = 8..13, 256 samples each (the endpoint at 2^14 is a stray)
    return ev.profile_on(0.0, dyadic_radii(8, 14, 256))


def constant_profile(value=2.0, k_lo=4, k_hi=8, per_window=64):
    radii = dyadic_radii(k_lo, k_hi, per_window)
    return GrowthProfile("const", 0.0, radii, np.full(radii.size, value))


class TestWindowStats:
    def test_constant_profile_exact(self):
        stats = window_stats(constant_profile(), 0.1)
        assert [s.k for s in stats] == [4, 5, 6, 7]
        for s in stats:
            assert s.inf == s.q_low == s.q_high == s.sup == 2.0
            assert s.r_lo == 2.0**s.k and s.r_hi == 2.0 ** (s.k + 1)

    def test_window_ordering_invariant(self, f_profile):
        for s in window_stats(f_profile, 0.1):
            assert s.inf <= s.q_low <= s.q_high <= s.sup

    def test_too_few_windows(self):
        with pytest.raises(InsufficientSamplesError):
            window_stats(constant_profile(k_lo=4, k_hi=6), 0.1)

    def test_too_few_samples(self):
        with pytest.raises(InsufficientSamplesError):
            window_stats(constant_profile(per_window=32), 0.1)

    def test_rejects_bad_quantile(self):
        prof = constant_profile()
        for q in (0.0, 0.5, -0.1, 0.7):
            with pytest.raises(ValueError):
                window_stats(prof, q)

    def test_minus_inf_excluded(self):
        prof = constant_profile()
        values = prof.values.copy()
        values[[3, 70, 140]] = -math.inf
        poked = GrowthProfile("const", 0.0, prof.radii, values)
        for s in window_stats(poked, 0.1):
            assert s.inf == s.q_low == s.q_high == s.sup == 2.0

    def test_profile_arrays_are_read_only_copies(self):
        radii = dyadic_radii(4, 8, 64)
        values = np.full(radii.size, 2.0)
        prof = GrowthProfile("const", 0.0, radii, values)
        for arr in (prof.values, prof.radii):
            with pytest.raises(ValueError):
                arr[0] = 1.0
        # the caller's arrays stay writable, and writing them leaves the
        # profile as it was
        radii[0], values[0] = 1.0, -math.inf
        assert prof.radii[0] == 16.0 and prof.values[0] == 2.0

    def test_stats_are_computed_once_per_q(self, ev, monkeypatch):
        calls = []

        def counting(values, q):
            calls.append(q)
            return _quantile_pair(values, q)

        monkeypatch.setattr(diagnostics, "_quantile_pair", counting)
        prof = ev.profile_on(0.0, dyadic_radii(8, 14, 128))
        stats = window_stats(prof, 0.1)
        verdict = classify(prof, 0.1, 0.02)
        assert calls == [0.1] * 6
        assert window_stats(prof, 0.1) is stats
        assert verdict.windows == stats[-TRAILING_WINDOWS:]
        other = window_stats(prof, 0.2)
        assert calls == [0.1] * 6 + [0.2] * 6
        assert other != stats

    def test_all_inf_window_dropped(self):
        prof = constant_profile(k_lo=4, k_hi=8)
        values = prof.values.copy()
        values[:64] = -math.inf  # wipe window k = 4 entirely
        poked = GrowthProfile("const", 0.0, prof.radii, values)
        assert [s.k for s in window_stats(poked, 0.1)] == [5, 6, 7]

    def test_product_windows_stay_wide(self, f_profile):
        # the quantile spread of log|f|/r persists in every dyadic window
        stats = window_stats(f_profile, 0.1)
        assert [s.k for s in stats] == list(range(8, 14))
        for s in stats:
            assert s.width >= 0.04

    def test_sin_control_quantiles_shrink(self):
        prof = sin2_profile(0.0, dyadic_radii(8, 14, 256))
        for s in window_stats(prof, 0.1):
            assert abs(s.q_low) <= 0.02 and abs(s.q_high) <= 0.02


class TestProfileRadii:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("make", [
        lambda radii: GrowthProfile("f", 0.0, radii, np.zeros(radii.size)),
        lambda radii: exp2_profile(0.0, radii),
        lambda radii: sin2_profile(0.3, radii),
        lambda radii: sin2_profile(math.pi / 2.0, radii),
    ], ids=["GrowthProfile", "exp2_profile", "sin2_profile", "sin2_axis"])
    def test_refuses_non_finite_radii(self, make, bad):
        # nan compares false, so it passed the increasing test, and a
        # trailing nan radius left window_stats counting 0 windows
        for at in range(3):
            radii = np.array([1.0, 2.0, 3.0])
            radii[at] = bad
            with pytest.raises(ValueError, match="finite"):
                make(radii)
        # inside a long grid, whose validation first tests the ends and the
        # order in one pass, each failure keeps its own message
        for at in (1, 768, 1536):
            radii = dyadic_radii(8, 14, 256)
            radii[at] = bad
            with pytest.raises(ValueError, match="^radii must be finite$"):
                make(radii)
            radii = dyadic_radii(8, 14, 256)
            radii[at] = radii[at - 1]
            with pytest.raises(ValueError, match="^radii must be positive "
                               "and strictly increasing$"):
                make(radii)


class TestWindowGroups:
    def test_dyadic_radius_opens_its_window(self):
        # 2^k falls in window k and the float just below it in window k - 1
        dyadic = np.ldexp(1.0, np.arange(-3, 40))
        radii = np.sort(np.concatenate([dyadic, np.nextafter(dyadic, 0.0)]))
        values = np.array([math.frexp(r)[1] - 1 for r in radii], dtype=float)
        groups = _window_groups(GrowthProfile("t", 0.0, radii, values))
        assert [k for k, _, _ in groups] == list(range(-4, 40))
        assert [n for _, n, _ in groups] == [1] + [2] * 42 + [1]
        for k, _, finite in groups:
            assert np.all(finite == k)

    @staticmethod
    def masked_groups(profile):
        # the reference: one boolean mask of the radii per window
        ks = np.frexp(profile.radii)[1] - 1
        out = []
        for k in range(int(ks[0]), int(ks[-1]) + 1):
            vals = profile.values[ks == k]
            finite = vals[np.isfinite(vals)]
            if finite.size:
                out.append((k, vals.size, finite))
        return out

    @pytest.mark.parametrize("case", ["skipped", "all_minus_inf", "single"])
    def test_slices_match_per_window_masks(self, case):
        radii = dyadic_radii(-2, 9, 16)
        values = np.sin(radii)
        values[::16] = -math.inf  # every window opens on a zero, as at theta = 0
        ks = np.frexp(radii)[1] - 1
        if case == "skipped":
            radii, values = radii[ks != 4], values[ks != 4]
        elif case == "all_minus_inf":
            values[ks == 4] = -math.inf
        else:
            # window 4 keeps one finite sample from inside it
            keep = (ks != 4) | (radii == radii[ks == 4][5])
            radii, values = radii[keep], values[keep]
        prof = GrowthProfile("t", 0.0, radii, values)
        got, want = _window_groups(prof), self.masked_groups(prof)
        assert [(k, n) for k, n, _ in got] == [(k, n) for k, n, _ in want]
        assert [(k, n) for k, n, _ in got if k == 4] == (
            [(4, 1)] if case == "single" else [])
        assert len(got) == 10 + (case == "single")
        assert all(type(k) is int for k, _, _ in got)
        for (_, _, a), (_, _, b) in zip(got, want):
            assert a.tobytes() == b.tobytes()


class TestQuantilePair:
    @pytest.mark.parametrize("q", [0.01, 0.1, 0.25, 0.4999])
    @pytest.mark.parametrize("n", [1, 2, 64, 257])
    @pytest.mark.parametrize("kind", ["normal", "ties", "signed_zeros"])
    def test_matches_numpy_quantile_bitwise(self, n, q, kind):
        rng = np.random.default_rng([n, int(q * 1e4)])
        for _ in range(20):
            if kind == "normal":
                v = rng.normal(size=n)
            elif kind == "ties":
                v = rng.integers(-2, 3, size=n) * 0.5
            else:
                v = rng.choice([-0.0, 0.0, -1.0, 1.0], size=n)
            want = np.quantile(v, (q, 1.0 - q))
            assert np.array(_quantile_pair(v, q)).tobytes() == want.tobytes()

    def test_classify_leaves_numpy_ma_unimported(self):
        # np.quantile pulls in numpy.ma; a fresh process must not pay for it
        code = (
            "import sys\n"
            "from expgrowth.diagnostics import classify\n"
            "from expgrowth.lattice import ZeroLattice\n"
            "from expgrowth.product import ProductEvaluator, dyadic_radii\n"
            "ev = ProductEvaluator(ZeroLattice(k_max=14))\n"
            "classify(ev.profile_on(0.3, dyadic_radii(8, 14, 256)))\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class TestClassify:
    def test_constant_regular_any_tolerance(self):
        prof = constant_profile()
        for tol in (1e-12, 1e-6, 0.02, 0.5):
            v = classify(prof, gap_tol=tol, drift_tol=tol)
            assert v.verdict == "regular" and v.limit_or_gap == 2.0

    def test_exp_control_regular(self):
        v = classify(exp2_profile(0.0, dyadic_radii(8, 14, 256)))
        assert v.verdict == "regular" and v.limit_or_gap == 2.0
        v = classify(exp2_profile(1.0, dyadic_radii(8, 14, 256)))
        assert v.verdict == "regular"
        assert v.limit_or_gap == pytest.approx(2.0 * math.cos(1.0), rel=1e-15)

    def test_sin_control_regular_type_two(self):
        v = classify(sin2_profile(math.pi / 2.0, dyadic_radii(8, 14, 256)))
        assert v.verdict == "regular"
        assert v.limit_or_gap == pytest.approx(2.0, abs=0.01)

    def test_product_irregular(self, f_profile):
        for gap_tol in (0.02, 0.01, 1e-3):
            v = classify(f_profile, q=0.1, gap_tol=gap_tol)
            assert v.verdict == "irregular"
            assert v.limit_or_gap >= 0.04
            assert [s.k for s in v.windows] == [10, 11, 12, 13]

    def test_inconclusive_between_tolerances(self):
        # width 0.03 sits between gap_tol and 2*gap_tol for gap_tol = 0.02
        radii = dyadic_radii(4, 7, 64)
        wobble = 0.015 * np.where(np.arange(radii.size) % 2 == 0, 1.0, -1.0)
        prof = GrowthProfile("wobble", 0.0, radii, 2.0 + wobble)
        v = classify(prof, q=0.25, gap_tol=0.02)
        assert v.verdict == "inconclusive" and v.limit_or_gap is None

    def test_drift_blocks_regular(self):
        # narrow windows whose midpoints keep moving: neither verdict fires
        radii = dyadic_radii(4, 8, 64)
        ks = np.floor(np.log2(radii[:-1]))
        values = np.append(2.0 + 0.05 * ks, 2.0 + 0.05 * 8)
        v = classify(GrowthProfile("drift", 0.0, radii, values))
        assert v.verdict == "inconclusive"

    def test_verdict_metadata(self, f_profile):
        v = classify(f_profile, q=0.1, gap_tol=0.02, drift_tol=0.02)
        assert isinstance(v, RegularityVerdict)
        assert v.function_id == "f" and v.theta == 0.0
        assert (v.q, v.gap_tol, v.drift_tol) == (0.1, 0.02, 0.02)

    def test_rejects_bad_tolerances(self, f_profile):
        with pytest.raises(ValueError):
            classify(f_profile, gap_tol=0.0)
        with pytest.raises(ValueError):
            classify(f_profile, drift_tol=-1.0)
        for tol in ({"gap_tol": math.nan}, {"drift_tol": math.nan},
                    {"gap_tol": math.inf}, {"drift_tol": math.inf}):
            with pytest.raises(ValueError):
                classify(f_profile, **tol)

    def test_stable_under_sample_deletion(self, ev, f_profile):
        # deleting subsets of relative measure <= q/2 per window must not
        # flip the verdict; 12 of 256 geometric samples stay below that
        base = classify(f_profile, q=0.1)
        radii, values = f_profile.radii, f_profile.values
        rng = np.random.default_rng(17)
        for _ in range(5):
            keep = np.ones(radii.size, dtype=bool)
            for w in range(6):
                drop = rng.choice(256, size=12, replace=False)
                keep[w * 256 + drop] = False
            thinned = GrowthProfile("f", 0.0, radii[keep], values[keep])
            v = classify(thinned, q=0.1)
            assert v.verdict == base.verdict == "irregular"


class TestSplitConsistency:
    def test_split_profile_matches_product(self, ev):
        # along the positive axis u ~ e^{-3r} underflows to 0 for r >= 256,
        # so the inverted side of the splitting, f - u, reproduces the
        # product profile bit for bit, -inf at the exact zeros of f included
        radii = dyadic_radii(8, 11, 128)
        prof_split = splitting_profile(ev, 0.0, radii)
        prof_f = ev.profile_on(0.0, radii)
        assert np.array_equal(prof_f.values, prof_split.values)
        keep = np.isfinite(prof_f.values)
        assert not keep.all()
        vf = classify(GrowthProfile("f", 0.0, radii[keep],
                                    prof_f.values[keep]), q=0.1)
        vs = classify(GrowthProfile("F", 0.0, radii[keep],
                                    prof_split.values[keep]), q=0.1)
        assert vs.verdict == vf.verdict == "irregular"
        assert vs.limit_or_gap == vf.limit_or_gap


class TestTypeEstimate:
    def test_exp_control_exact(self):
        angles = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)
        profiles = [exp2_profile(t, dyadic_radii(8, 12, 64)) for t in angles]
        assert type_estimate(profiles) == 2.0

    def test_sin_control_close(self):
        angles = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)
        profiles = [sin2_profile(t, dyadic_radii(8, 12, 64)) for t in angles]
        assert type_estimate(profiles) == pytest.approx(2.0, abs=0.01)

    def test_product_type(self, ev):
        angles = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)
        profiles = [ev.profile_on(t, dyadic_radii(10, 14, 64)) for t in angles]
        est = type_estimate(profiles)
        assert est == pytest.approx(LIMSUP, abs=0.01)
        assert est <= 2.0

    def test_needs_eight_angles(self):
        profiles = [
            exp2_profile(t, dyadic_radii(8, 12, 64)) for t in np.linspace(0, 3, 7)
        ]
        with pytest.raises(InsufficientSamplesError):
            type_estimate(profiles)

    def test_needs_distinct_angles(self):
        profiles = [exp2_profile(0.5, dyadic_radii(8, 12, 64)) for _ in range(8)]
        with pytest.raises(InsufficientSamplesError):
            type_estimate(profiles)

    def test_needs_four_windows(self):
        angles = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)
        profiles = [exp2_profile(t, dyadic_radii(8, 10, 64)) for t in angles]
        with pytest.raises(InsufficientSamplesError):
            type_estimate(profiles)


class TestExports:
    def test_windows_csv(self, f_profile, tmp_path):
        stats = window_stats(f_profile, 0.1)
        path = tmp_path / "windows.csv"
        write_windows_csv([(f_profile, stats)], path)
        lines = path.read_text(encoding="ascii").splitlines()
        assert lines[0] == "function_id,theta,k,r_lo,r_hi,inf,q_low,q_high,sup"
        assert len(lines) == 1 + len(stats)
        first = lines[1].split(",")
        assert first[0] == "f" and first[1] == "0" and first[2] == "8"
        assert float(first[3]) == 256.0 and float(first[4]) == 512.0

    def test_windows_csv_deterministic(self, f_profile, tmp_path):
        stats = window_stats(f_profile, 0.1)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_windows_csv([(f_profile, stats)], a)
        write_windows_csv([(f_profile, stats)], b)
        assert a.read_bytes() == b.read_bytes()

    def test_verdict_json_roundtrip(self, f_profile, tmp_path):
        v = classify(f_profile, q=0.1)
        path = tmp_path / "verdict.json"
        write_verdict_json(v, path)
        raw = path.read_text(encoding="ascii")
        assert raw.endswith("\n")
        record = json.loads(raw)
        assert set(record) == {
            "function_id", "theta", "verdict", "limit_or_gap",
            "windows", "q", "gap_tol", "drift_tol",
        }
        assert record["verdict"] == "irregular"
        assert record["limit_or_gap"] == v.limit_or_gap
        assert [w["k"] for w in record["windows"]] == [10, 11, 12, 13]
        assert record["windows"][0]["sup"] == v.windows[0].sup

    def test_verdict_json_null_for_inconclusive(self, tmp_path):
        radii = dyadic_radii(4, 7, 64)
        wobble = 0.015 * np.where(np.arange(radii.size) % 2 == 0, 1.0, -1.0)
        v = classify(GrowthProfile("wobble", 0.0, radii, 2.0 + wobble), q=0.25)
        path = tmp_path / "verdict.json"
        write_verdict_json(v, path)
        assert json.loads(path.read_text())["limit_or_gap"] is None
