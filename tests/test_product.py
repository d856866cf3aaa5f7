"""Tests for closed-form and per-zero canonical product evaluation."""
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from expgrowth.csvio import fmt
from expgrowth.lattice import LatticeExhaustedError, ZeroLattice
from expgrowth.lognum import TAU, LogComplex, cis
from expgrowth.product import (
    GrowthProfile,
    ProductEvaluator,
    dyadic_radii,
    write_profile_csv,
)

# frozen from a 50-digit evaluation of the closed-form product
F_AT_1 = 0.7470702679711394
LOG_ABS_F_AT_10 = 8.418240508759482
F_AT_3_PLUS_2J = complex(-1.7652048279062889, -4.280421958725723)

LIMSUP = 4.0 / math.e
WINDOW_MIN = 2.0 * math.log(2.0)


@pytest.fixture(scope="module")
def ev():
    return ProductEvaluator(ZeroLattice(k_max=14))


def log_rel_diff(a: LogComplex, b: LogComplex) -> float:
    """|a/b - 1| measured in the log domain (valid for small differences)."""
    return abs(a.log_mag - b.log_mag) + abs(math.remainder(a.arg - b.arg, TAU))


class TestClosedForm:
    def test_unit_at_origin(self, ev):
        out = ev.eval_log_f(0.0)
        assert out.log_mag == 0.0 and out.arg == 0.0

    def test_value_at_1(self, ev):
        assert ev.eval_log_f(1.0).to_complex() == pytest.approx(F_AT_1, rel=1e-12)

    def test_value_at_10(self, ev):
        out = ev.eval_log_f(10.0)
        assert out.log_mag == pytest.approx(LOG_ABS_F_AT_10, abs=1e-10)
        assert out.arg == math.pi  # f(10) < 0, sign tracked exactly
        assert out.to_complex().real == pytest.approx(-4528.927831880595, rel=1e-10)

    def test_value_off_axis(self, ev):
        got = ev.eval_log_f(3 + 2j).to_complex()
        assert abs(got - F_AT_3_PLUS_2J) <= 1e-12 * abs(F_AT_3_PLUS_2J)

    def test_cutoff_invariant(self, ev):
        rng = np.random.default_rng(11)
        zs = [complex(a, b) for a, b in rng.uniform(-1e6, 1e6, size=(50, 2))]
        zs += [0.0, 0.5, 2.0**9, complex(0, 2.0**9)]
        for z in zs:
            assert math.ldexp(1.0, ev.cutoff(z)) >= 4.0 * max(abs(z), 1.0)


class TestZeroSet:
    def test_exact_minus_inf_on_lattice(self, ev):
        for k, j in ((1, 0), (1, 1), (2, 1), (3, 5), (5, 7), (8, 100)):
            out = ev.eval_log_f(ev.lattice.zero(k, j))
            assert out.log_mag == -math.inf

    def test_beyond_k_max_still_zero(self, ev):
        # the function itself has zeros on every circle, not just the
        # materialized ones
        out = ev.eval_log_f(ev.lattice.zero(16, 3))
        assert out.log_mag == -math.inf

    def test_near_zero_is_finite(self, ev):
        out = ev.eval_log_f(2.0 + 1e-9)
        assert math.isfinite(out.log_mag)

    def test_rotated_lattice(self):
        rot = ProductEvaluator(ZeroLattice(k_max=8, rotation=0.3))
        assert rot.eval_log_f(rot.lattice.zero(3, 2)).log_mag == -math.inf
        # the unrotated zero is no longer a zero
        assert math.isfinite(rot.eval_log_f(8.0 + 0.0j).log_mag)


def mp_log_abs_f(z: complex, k_cut: int) -> float:
    """50-digit log|f(z)| over circles 1..k_cut, at the exact binary64 z."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        w = mpmath.mpc(z.real, z.imag)
        total = mpmath.fsum(
            mpmath.log(abs(1 - (w / 2**k) ** (2**k))) for k in range(1, k_cut + 1))
        return float(total)


class TestAccuracy:
    @pytest.mark.parametrize("z", [
        2 + 1e-6j, 4j + 1e-10j, 2 + 1e-12, -16 + 1e-11, 1024 * (1 + 1e-14),
        3 + 2j, -7.9 + 0.3j, 1.0, 7.3 - 2.1j, 100 + 55j,
    ])
    def test_log_abs_matches_mpmath_near_zeros(self, ev, z):
        # 1 - w^n cancels near lattice zeros unless it is formed from
        # expm1(x) and sin^2(y/2); the reference runs 4 circles past the
        # cutoff, so it also bounds the truncated tail
        want = mp_log_abs_f(complex(z), ev.cutoff(z) + 4)
        assert abs(ev.eval_log_f(z).log_mag - want) <= 1e-12


class TestDomain:
    @pytest.mark.parametrize("z", [
        complex(math.nan, 0.0), complex(1.0, math.nan), complex(math.inf, 0.0),
        complex(0.0, -math.inf), 1e308, 1e308 + 1e308j,
    ])
    def test_rejects_nonfinite_and_huge(self, ev, z):
        with pytest.raises(ValueError):
            ev.eval_log_f(z)

    def test_rejects_in_batches(self, ev):
        with pytest.raises(ValueError):
            ev.max_modulus(1e308, 8)
        with pytest.raises(ValueError):
            ev.profile_on(0.0, np.array([1.0, math.nan]))

    def test_large_finite_modulus_accepted(self, ev):
        assert math.isfinite(ev.eval_log_f(1e300).log_mag)


class TestBatchInvariance:
    @pytest.mark.parametrize("size", [1, 127, 128, 129, 1537])
    def test_profile_matches_scalar_bitwise(self, size):
        for lattice in (ZeroLattice(k_max=14), ZeroLattice(k_max=8, rotation=0.3)):
            ev = ProductEvaluator(lattice)
            # radii spread over many cutoffs, so blocks mix circle counts
            radii = np.geomspace(0.7, 3.0e6, size) if size > 1 else np.array([77.7])
            theta = 2.1
            prof = ev.profile_on(theta, radii)
            direction = cis(theta)
            for r, v in zip(radii, prof.values):
                assert ev.eval_log_f(r * direction).log_mag / r == v

    @pytest.mark.parametrize("size", [1, 127, 128, 129, 1537])
    def test_log_f_matches_scalar_bitwise(self, size):
        rng = np.random.default_rng(size)
        # moduli over many cutoffs, every direction, and some lattice zeros
        zs = np.geomspace(0.7, 3.0e6, size) * np.exp(1j * rng.uniform(-4, 4, size))
        for lattice in (ZeroLattice(k_max=14), ZeroLattice(k_max=8, rotation=0.3)):
            ev = ProductEvaluator(lattice)
            zs[::50] = lattice.zero(3, 5)
            batch = ev.log_f(zs)
            scalar = [ev.eval_log_f(z) for z in zs]
            assert batch.real.tobytes() == np.array(
                [lf.log_mag for lf in scalar]).tobytes()
            assert batch.imag.tobytes() == np.array(
                [lf.arg for lf in scalar]).tobytes()

    @pytest.mark.parametrize("n", [8, 127, 128, 129, 1537])
    def test_max_modulus_matches_scalar_bitwise(self, ev, n):
        for r in (3.7, 1000.3, 2.0**20 * 1.3):
            samples = [ev.eval_log_f(r * cis(0.5 + TAU * m / n)).log_mag
                       for m in range(n)]
            assert ev.max_modulus(r, n) == max(samples) / r

    @pytest.mark.parametrize("rotation", [0.0, 0.3])
    def test_dyadic_radii_on_lattice_ray_are_zeros(self, rotation):
        # every dyadic radius of the theta = rotation ray is a lattice zero,
        # including circles past k_max = 8
        ev = ProductEvaluator(ZeroLattice(k_max=8, rotation=rotation))
        radii = dyadic_radii(1, 24, 4)
        values = ev.profile_on(rotation, radii).values
        dyadic = np.arange(radii.size) % 4 == 0
        assert np.all(values[dyadic] == -math.inf)
        assert np.all(np.isfinite(values[~dyadic]))
        assert ev.eval_log_f(radii[-1] * cis(rotation)).is_zero


class TestDirectOracle:
    def test_matches_three_circle_identity(self, ev):
        want = (
            Fraction(3, 4)
            * Fraction(255, 256)
            * Fraction((1 << 24) - 1, 1 << 24)
        )
        got = ev.eval_log_f_direct(1.0, 3).to_complex()
        assert got == pytest.approx(float(want), rel=1e-12)

    def test_lattice_points_vanish(self, ev):
        assert ev.eval_log_f_direct(-2.0, 1).is_zero
        assert ev.eval_log_f_direct(4j, 2).is_zero

    def test_exhausted(self, ev):
        with pytest.raises(LatticeExhaustedError):
            ev.eval_log_f_direct(1.0, 15)

    def test_agrees_with_closed_form(self, ev):
        rng = np.random.default_rng(7)
        for _ in range(100):
            r = rng.uniform(1.0, 50.0)
            phi = rng.uniform(-math.pi, math.pi)
            z = r * complex(math.cos(phi), math.sin(phi))
            a = ev.eval_log_f(z)
            b = ev.eval_log_f_direct(z, ev.cutoff(z))
            assert log_rel_diff(a, b) <= 1e-10


class TestSymmetries:
    def test_even(self, ev):
        rng = np.random.default_rng(8)
        for _ in range(30):
            z = complex(*rng.uniform(-30, 30, size=2))
            assert log_rel_diff(ev.eval_log_f(z), ev.eval_log_f(-z)) <= 1e-12

    def test_conjugation_exact(self, ev):
        rng = np.random.default_rng(9)
        for _ in range(30):
            z = complex(*rng.uniform(-30, 30, size=2))
            a = ev.eval_log_f(z)
            b = ev.eval_log_f(z.conjugate())
            assert b.log_mag == a.log_mag
            assert b.arg == -a.arg or (b.arg == math.pi and a.arg == math.pi)


class TestProfiles:
    def test_dyadic_endpoints_hit_zeros(self, ev):
        p = ev.profile_on(0.0, np.geomspace(4.0, 8.0, 9))
        assert p.radii[0] == 4.0 and p.radii[-1] == 8.0
        assert p.values[0] == -math.inf and p.values[-1] == -math.inf
        assert np.all(np.isfinite(p.values[1:-1]))

    def test_dyadic_radii_exact(self):
        grid = dyadic_radii(3, 6, per_window=8)
        assert grid.size == 25
        assert grid[0] == 8.0 and grid[8] == 16.0
        assert grid[16] == 32.0 and grid[24] == 64.0

    def test_dyadic_radii_validation(self):
        with pytest.raises(ValueError):
            dyadic_radii(3, 3)
        with pytest.raises(ValueError):
            dyadic_radii(3, 6, per_window=3)

    def test_asymptote_midband(self, ev):
        # r = 1.5 * 2^11: expect (2/1.5) log 3 up to a k/2^k correction
        r = 3072.0
        v = ev.eval_log_f(r).log_mag / r
        assert v == pytest.approx(1.464816384890813, abs=0.02)

    def test_angle_uniformity(self, ev):
        r = 1000.3
        v0 = ev.eval_log_f(r).log_mag / r
        v1 = ev.eval_log_f(r * complex(math.cos(math.pi / 5), math.sin(math.pi / 5)))
        assert abs(v1.log_mag / r - v0) <= 0.01

    def test_validation(self, ev):
        with pytest.raises(ValueError):
            GrowthProfile("f", 0.0, np.array([1.0, 2.0]), np.array([0.0]))
        with pytest.raises(ValueError):
            GrowthProfile("f", 0.0, np.array([2.0, 1.0]), np.array([0.0, 0.0]))


class TestMaxModulus:
    def test_peak_band(self, ev):
        r = 2.0**12 * (math.e / 2.0)
        assert ev.max_modulus(r, 64) == pytest.approx(1.4715177646857693, abs=0.01)

    def test_dyadic_band_edge(self, ev):
        assert ev.max_modulus(4096.0, 64) == pytest.approx(
            1.3862943611198906, abs=0.01
        )

    def test_monotone_under_nesting(self, ev):
        for r in (100.0, 4096.0):
            assert ev.max_modulus(r, 8) <= ev.max_modulus(r, 64)

    def test_type_upper_bound(self, ev):
        for r in np.geomspace(16.0, 2.0**14, 25):
            assert ev.max_modulus(float(r), 16) <= 2.01

    def test_window_extremes_converge(self, ev):
        # the paper's claim out to r = 2^31: the window minima of
        # log M(r)/r rise towards 2 ln 2, the maxima approach 4/e
        t0 = time.monotonic()
        radii = dyadic_radii(8, 31, 64)
        vals = np.array([ev.max_modulus(float(r), 64) for r in radii])
        ks = np.frexp(radii)[1] - 1
        minima = [vals[ks == k].min() for k in range(8, 31)]
        maxima = [vals[ks == k].max() for k in range(8, 31)]
        assert all(a <= b for a, b in zip(minima, minima[1:]))
        assert all(abs(m - WINDOW_MIN) <= 1e-4 for m in minima[12:])
        assert all(abs(m - LIMSUP) <= 1e-4 for m in maxima[12:])
        assert time.monotonic() - t0 <= 5.0

    def test_validation(self, ev):
        with pytest.raises(ValueError):
            ev.max_modulus(100.0, 7)
        with pytest.raises(ValueError):
            ev.max_modulus(0.0, 8)


class TestCsvExport:
    def test_schema_and_inf_literal(self, ev, tmp_path):
        p = ev.profile_on(0.0, np.geomspace(4.0, 8.0, 5))
        path = tmp_path / "profile.csv"
        write_profile_csv([p], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "function_id,theta,r,value"
        assert len(lines) == 6
        assert lines[1].startswith("f,0,4,-inf")
        assert lines[-1] == "f,0,8,-inf"

    def test_matches_per_value_formatting(self, ev, tmp_path):
        # -inf samples (lattice zeros on the ray) and a rotated ray
        profiles = [ev.profile_on(0.0, np.geomspace(4.0, 64.0, 37)),
                    ev.profile_on(0.3, np.geomspace(3.0, 900.0, 51))]
        lines = ["function_id,theta,r,value"]
        for p in profiles:
            for r, v in zip(p.radii, p.values):
                lines.append(",".join((p.function_id, fmt(p.theta), fmt(r),
                                       fmt(v))))
        path = tmp_path / "profile.csv"
        write_profile_csv(profiles, path)
        assert "-inf" in path.read_text()
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode("ascii")
