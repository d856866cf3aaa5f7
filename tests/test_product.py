"""Tests for closed-form and per-zero canonical product evaluation."""
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from expgrowth import product
from expgrowth.csvio import fmt
from expgrowth.lattice import LatticeExhaustedError, ZeroLattice
from expgrowth.lognum import TAU, LogComplex, cis, exp
from expgrowth.product import (
    _DEEP_RADIUS,
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

    @pytest.mark.parametrize("z", [math.inf, math.nan, complex(0.0, math.nan)],
                             ids=["inf", "nan", "nan*j"])
    def test_cutoff_refuses_non_finite_z(self, ev, z):
        # no K has 2^K >= 256 |z| for an infinite or nan |z|
        with pytest.raises(ValueError, match="only at finite z"):
            ev.cutoff(z)

    def test_cutoff_counts_the_circles_log_f_uses(self, ev):
        # cutoff() takes |z| as log_f does: np.abs and Python's abs can
        # differ in the last bit, which at a dyadic radius moves the cutoff
        z = 1.9910626124760726 + 0.1888641660028625j
        assert ev.cutoff(z) == 10
        rng = np.random.default_rng(18)
        k = np.repeat(np.arange(1, 30), 100)
        ulps = rng.integers(-4, 5, k.size) * 2.0**-52
        zs = np.ldexp(1.0 + ulps, k) * cis(rng.uniform(-4, 4, k.size))
        zs = np.append(zs, z)
        assert [ev.cutoff(w) for w in zs] == ev._cutoffs(np.abs(zs)).tolist()


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

    def test_exact_zeros_recognised_through_circle_60(self, ev):
        # random and octant angle indices (with their neighbours) on the
        # deepest circles where every exact zero is recognised; from 55 on
        # the rounded angle index misses by up to 90 and j = n // 3 by more
        # than one from 57
        rng = np.random.default_rng(54)
        for k in range(40, 61):
            n = 1 << k
            js = [int(j) for j in rng.integers(0, n, size=64, dtype=np.int64)]
            js += [m * n // 8 + d for m in range(8) for d in (-1, 0, 1)]
            js.append(n // 3)
            zs = np.array([ev.lattice.zero(k, j) for j in js])
            assert (ev.log_abs_f(zs) == -math.inf).all(), k

    def test_near_zero_is_finite(self, ev):
        out = ev.eval_log_f(2.0 + 1e-9)
        assert math.isfinite(out.log_mag)

    def test_subnormal_phase_beside_a_zero(self, ev):
        # the phase of 2 - 5e-324j underflows to -0, so y on circle 1 is 0
        # and the kernel's factor there is exactly 0; the membership test
        # must not raise on it (cmath.phase does), and circle 1 takes the
        # factor's first order at the zero: log|f| about -744.5, arg pi/2
        # (50-digit values -744.50462570142432, -743.34537353226712 and
        # -744.50462570142432 at the first three points)
        zs = [2.0 - 5e-324j, 4.0 + 5e-324j, -2.0 + 5e-324j, 2.0 + 5e-324j,
              16.0 - 5e-324j, 2.0 - 1e-300j]
        batch = ev.log_f(zs)
        for i, z in enumerate(zs):
            want_abs, want_arg = mp_log_f(z, ev.cutoff(z) + 4)
            for got in (batch[i], ev.log_f([z])[0]):
                assert abs(got.real - want_abs) <= 1e-12 * abs(want_abs)
                assert abs(got.imag - want_arg) <= 1e-12
        assert np.all(np.abs(batch[:3].imag - math.pi / 2) <= 1e-12)
        assert ev.log_abs_f(zs).tobytes() == batch.real.tobytes()

    @pytest.mark.parametrize("theta", [0.0, 0.3, TAU / 8, 3 * TAU / 16,
                                       5 * TAU / 64])
    @pytest.mark.parametrize("k_lo", [1, 20, 40])
    def test_screened_zero_set_matches_the_scalar_test(self, theta, k_lo,
                                                       monkeypatch):
        # the whole-array phase screen in front of _is_lattice_zero drops
        # only points that cannot be zeros: on the cardinal rays turned by
        # theta, a lattice direction (0, 1/8, 3/16 or 5/64 turn) or 0.3 rad,
        # which is none, one ulp beside each dyadic radius, and at the
        # lattice zeros on those rays, -inf falls exactly where the scalar
        # test alone finds a zero; the rest is finite
        ev = ProductEvaluator(ZeroLattice(k_max=8))
        radii = dyadic_radii(k_lo, k_lo + 4, 8)
        radii = np.concatenate([radii, np.nextafter(radii[::8], 0.0),
                                np.nextafter(radii[::8], math.inf)])
        cardinal = np.array([0.0, 0.5, 1.0, -0.5]) * math.pi
        turns = [theta / TAU + q / 4 for q in range(4)]
        zeros = [ev.lattice.zero(k, round(t * 2**k)) for t in turns
                 for k in range(k_lo, k_lo + 5) if (t * 2**k).is_integer()]
        zs = np.append(np.outer(cis(cardinal + theta), radii), zeros)
        want = [ev._is_lattice_zero(complex(z)) for z in zs]
        assert sum(want) >= len(zeros)
        for method in (ev.log_f, ev.log_abs_f):
            got = method(zs).real
            assert np.array_equal(got == -math.inf, want)
            assert not np.isnan(got).any()
        # off the lattice directions no point reaches it below n = 2^39,
        # and from there on every near-dyadic one does
        calls = []
        monkeypatch.setattr(ProductEvaluator, "_is_lattice_zero",
                            lambda self, z: calls.append(z))
        ev.log_abs_f(radii * cis(1.234))
        assert len(calls) == (0 if k_lo < 39 else 3 * 5)


def mp_log_f(z: complex, k_cut: int):
    """50-digit (log|f(z)|, arg f(z)) over circles 1..k_cut, at the exact
    binary64 z; the argument is reduced to (-pi, pi]."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        w = mpmath.mpc(z.real, z.imag)
        factors = [1 - (w / 2**k) ** (2**k) for k in range(1, k_cut + 1)]
        log_abs = mpmath.fsum(mpmath.log(abs(t)) for t in factors)
        arg = mpmath.fsum(mpmath.arg(t) for t in factors)
        arg -= 2 * mpmath.pi * mpmath.floor(arg / (2 * mpmath.pi) + 0.5)
        return float(log_abs), float(arg)


class TestAccuracy:
    @pytest.mark.parametrize("z", [
        2 + 1e-6j, 4j + 1e-10j, 2 + 1e-12, -16 + 1e-11, 1024 * (1 + 1e-14),
        3 + 2j, -7.9 + 0.3j, 1.0, 7.3 - 2.1j, 100 + 55j,
    ])
    def test_log_abs_matches_mpmath_near_zeros(self, ev, z):
        # 1 - w^n cancels near lattice zeros unless it is formed from
        # expm1(x) and sin^2(y/2); the reference runs 4 circles past the
        # cutoff, so it also bounds the truncated tail
        want, _ = mp_log_f(complex(z), ev.cutoff(z) + 4)
        assert abs(ev.eval_log_f(z).log_mag - want) <= 1e-12

    @pytest.mark.parametrize("k, j, d", [
        (3, 5, 1e-3), (5, 31, 1e-5), (8, 246, 1e-7), (11, 874, 1e-9),
        (14, 5461, 1e-4), (14, 5608, 1e-10),
    ])
    def test_log_abs_near_a_rounded_zero(self, ev, k, j, d):
        # at distance d from zero j of circle k, off the axes, log|f| is off
        # by up to about e/d, e the error y of circle k carries: half an ulp
        # of the phase and an ulp of the modulus times 2^k, and |j| turns of
        # the rounding of 2 pi (README design notes)
        mpmath = pytest.importorskip("mpmath")
        n = 1 << k
        for psi in (0.5, 2.0, 3.5, 5.0):
            with mpmath.workdps(50):
                a = n * mpmath.expjpi(mpmath.mpf(2 * j) / n)
                w = a + d * mpmath.expj(psi)
                z = complex(float(w.real), float(w.imag))
                dist = float(abs(mpmath.mpc(z.real, z.imag) - a))
            e = (n // 2 * math.ulp(math.atan2(z.imag, z.real)) + n * 2.2e-16
                 + min(j, n - j) * 2.45e-16)
            assert e / dist < 0.5
            want, _ = mp_log_f(z, ev.cutoff(z) + 4)
            assert abs(ev.log_abs_f(np.array([z]))[0] - want) <= e / dist

    @pytest.mark.parametrize("r", [150.0, 300.0, 1000.0, 4096.5])
    def test_log_f_matches_mpmath_with_deep_circles(self, ev, r):
        # from |z| = 112 on some circles are deep (x >= 40), and their
        # factors take the closed forms log modulus x and argument y + pi
        zs = r * cis(np.array([0.0, 0.3, 1.0, 2.0, -2.5]))
        got = ev.log_f(zs)
        for z, lf in zip(zs, got):
            want_abs, want_arg = mp_log_f(complex(z), ev.cutoff(z) + 4)
            assert abs(lf.real - want_abs) <= 1e-15 * abs(want_abs)
            # arg z is rounded to half an ulp and circle k multiplies that by
            # 2^k: summed over the circles below |z| it is |z| ulp(pi) at most
            # (1.1e-12 at 4096.5 e^{-2.5i})
            bound = 1e-13 + 2.0 * r * math.ulp(math.pi)
            assert abs(math.remainder(lf.imag - want_arg, TAU)) <= bound


class TestFiniteCutoffOracle:
    @pytest.mark.parametrize("K", [20, 100, 500, 1000])
    def test_log_f_matches_closed_form(self, ev, K):
        # at r = 2^K t, t in (1, 2), every factor k <= K is dominated by
        # (r/2^k)^{2^k} and every factor k > K is 1 up to (t/2)^{2^{K+1}},
        # so log|f| = (2^{K+1}-2) ln t + (2^{K+1}-2K-2) ln 2; below K = 20
        # the k = 1 factor's O(4^-K) correction shows (7.6e-8 at K = 8)
        t = np.array([1.3, math.e / 2.0, 1.7])[:, None]
        theta = np.array([0.0, 0.3, math.pi / 2.0, 2.5, -1.0])
        got = ev.log_f((np.ldexp(t, K) * cis(theta)).ravel()).real
        want = ((2.0**(K + 1) - 2.0) * np.log(t)
                + (2.0**(K + 1) - 2.0 * K - 2.0) * math.log(2.0))
        assert np.all(np.abs(got.reshape(3, 5) - want) <= 1e-14 * np.abs(want))


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

    @pytest.mark.parametrize("zs", [3 + 2j, np.array(3 + 2j), np.ones((2, 3))])
    @pytest.mark.parametrize("method", ["log_f", "log_abs_f"])
    def test_rejects_input_not_1d(self, ev, method, zs):
        with pytest.raises(ValueError, match="1-d"):
            getattr(ev, method)(zs)

    def test_large_finite_modulus_accepted(self, ev):
        assert math.isfinite(ev.eval_log_f(1e300).log_mag)


class TestBatchInvariance:
    @pytest.mark.parametrize("size", [1, 127, 128, 129, 1537])
    def test_profile_matches_scalar_bitwise(self, size):
        ev = ProductEvaluator(ZeroLattice(k_max=14))
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
        # moduli over many cutoffs up to 2^500, so one block mixes points
        # with different numbers of live circles; every direction, points on
        # both axes, and some lattice zeros
        mods = np.geomspace(0.7, 2.0**500, size)
        zs = mods * np.exp(1j * rng.uniform(-4, 4, size))
        zs[1::7] = mods[1::7] * np.resize([1, 1j, -1, -1j], zs[1::7].size)
        ev = ProductEvaluator(ZeroLattice(k_max=14))
        zs[::50] = ev.lattice.zero(3, 5)
        batch = ev.log_f(zs)
        scalar = [ev.eval_log_f(z) for z in zs]
        assert batch.real.tobytes() == np.array(
            [lf.log_mag for lf in scalar]).tobytes()
        assert batch.imag.tobytes() == np.array(
            [lf.arg for lf in scalar]).tobytes()

    def test_one_point_calls_match_a_batch_bitwise(self):
        # one point below _DEEP_RADIUS takes its own short path: it must give
        # the bits of the same point inside a 1537-point batch, on both
        # sides of that bound, near 0, at dyadic radii, at lattice zeros,
        # on the axes and the diagonals, and beside a zero where the phase
        # underflows or rounds onto the zero's
        lattice = ZeroLattice(k_max=14)
        ev = ProductEvaluator(lattice)
        rng = np.random.default_rng(17)
        axes = np.array([1, 1j, -1, -1j])
        bound = np.concatenate([np.linspace(99.0, 113.0, 57), np.nextafter(
            _DEEP_RADIUS, [0.0, math.inf]), [_DEEP_RADIUS]])
        dyadic = np.exp2(np.arange(-3.0, 12.0))
        dyadic = np.concatenate([dyadic, np.nextafter(dyadic, 0.0),
                                 np.nextafter(dyadic, math.inf)])
        small = rng.uniform(0.0, 1.0, 60)
        zeros = [lattice.zero(k, j) for k in range(1, 12)
                 for j in range(0, 2**k, max(1, 2**k // 16))]
        zs = np.concatenate([
            (bound[:, None] * axes).ravel(), bound * cis(rng.uniform(-4, 4, bound.size)),
            (dyadic[:, None] * axes).ravel(), dyadic * cis(0.5),
            (dyadic[:, None] * cis(TAU / 8) * axes).ravel(),
            small * cis(rng.uniform(-4, 4, small.size)), (small[:, None] * axes).ravel(),
            [complex(a, b) for a in (0.0, -0.0, 0.5) for b in (0.0, -0.0, -0.7)],
            zeros, [2 - 5e-324j, 2 + 5e-324j, 2 - 1e-300j],
            np.linspace(-8, 8, 41) * cis(0.3),
        ])
        rest = 1537 - zs.size
        zs = np.concatenate([zs, np.exp2(rng.uniform(-3.0, 20.0, rest)) * cis(
            rng.uniform(-4, 4, rest))])
        assert zs.size == 1537
        batch, batch_abs = ev.log_f(zs), ev.log_abs_f(zs)
        one = np.array([ev.log_f(zs[i:i + 1])[0] for i in range(zs.size)])
        one_abs = np.array([ev.log_abs_f(zs[i:i + 1])[0] for i in range(zs.size)])
        one_eval = [ev.eval_log_f(z) for z in zs]
        assert one.tobytes() == batch.tobytes()
        assert one_abs.tobytes() == batch_abs.tobytes()
        # the points below _DEEP_RADIUS alone: one block with no deep pair
        low = np.abs(zs) < _DEEP_RADIUS
        assert low.sum() > 500
        assert ev.log_f(zs[low]).tobytes() == batch[low].tobytes()
        assert ev.log_abs_f(zs[low]).tobytes() == batch_abs[low].tobytes()
        assert np.array([complex(lf.log_mag, lf.arg) for lf in one_eval]
                        ).tobytes() == batch.tobytes()
        assert np.all(one.real[np.isin(zs, zeros)] == -math.inf)
        # only the lattice zeros: a point beside one is finite
        assert np.array_equal(one.real == -math.inf,
                              [ev._is_lattice_zero(complex(z)) for z in zs])

    def test_shuffled_blocks_keep_their_bits(self):
        # a multi-block batch runs its blocks as consecutive slices in call
        # order: shuffled moduli from 2^-40 to 2^500, so each block mixes
        # small and huge |z|, give each point the bits of its own scalar call
        rng = np.random.default_rng(16)
        zs = np.exp2(rng.uniform(-40.0, 500.0, 700)) * np.exp(
            1j * rng.uniform(-4, 4, 700))
        zs[::100] = ZeroLattice(k_max=14).zero(5, 7)
        ev = ProductEvaluator(ZeroLattice(k_max=14))
        scalar = np.array([ev.log_f(zs[i:i + 1])[0] for i in range(zs.size)])
        assert ev.log_f(zs).tobytes() == scalar.tobytes()
        assert ev.log_abs_f(zs).tobytes() == scalar.real.tobytes()

    @pytest.mark.parametrize("size", [1, 127, 128, 129, 1537])
    def test_log_abs_f_is_log_f_real_bitwise(self, size):
        # moduli from 2^-3 to 2^300, so some blocks have deep circles and
        # some not, and every 9th point a lattice zero
        rng = np.random.default_rng(size + 7)
        mods = np.exp2(rng.uniform(-3.0, 300.0, size))
        zs = mods * np.exp(1j * rng.uniform(-4, 4, size))
        ev = ProductEvaluator(ZeroLattice(k_max=14))
        zs[::9] = [ev.lattice.zero(k % 20 + 1, 3 * k) for k in range(zs[::9].size)]
        got = ev.log_abs_f(zs)
        assert got.dtype == np.float64
        assert got.tobytes() == ev.log_f(zs).real.tobytes()
        assert np.all(got[::9] == -math.inf)
        assert np.all(np.isfinite(np.delete(got, np.s_[::9])))

    def test_deep_circles_match_the_full_formula(self, ev, monkeypatch):
        # with _DEEP = inf every circle runs the full formula: the closed
        # forms must give the same log|f| bits and args within 1e-13
        rng = np.random.default_rng(14)
        mods = np.exp2(rng.uniform(7.0, 60.0, 2000))
        zs = mods * np.exp(1j * rng.uniform(-math.pi, math.pi, mods.size))
        axis = np.exp2(np.linspace(7.0, 60.0, 200))
        zs = np.concatenate([zs, axis, -axis, 1j * axis, -1j * axis])
        closed = ev.log_f(zs)
        monkeypatch.setattr(product, "_DEEP", math.inf)
        full = ev.log_f(zs)
        assert closed.real.tobytes() == full.real.tobytes()
        assert np.max(np.abs(np.remainder(
            closed.imag - full.imag + math.pi, TAU) - math.pi)) <= 1e-13
        # f is real on the real axis, and its args stay exactly 0 or pi
        real_axis = closed.imag[2000:2400]
        assert np.all((real_axis == 0.0) | (real_axis == math.pi))

    @pytest.mark.parametrize("n", [8, 127, 128, 129, 1537])
    def test_max_modulus_matches_scalar_bitwise(self, ev, n):
        for r in (3.7, 1000.3, 2.0**20 * 1.3):
            samples = [ev.eval_log_f(r * cis(0.5 + TAU * m / n)).log_mag
                       for m in range(n)]
            assert ev.max_modulus(r, n) == max(samples) / r

    @pytest.mark.parametrize("theta", [0.0, math.pi])
    def test_dyadic_radii_on_lattice_ray_are_zeros(self, theta):
        # every dyadic radius of the theta = 0 and theta = pi rays is a
        # lattice zero, including circles past k_max = 8
        ev = ProductEvaluator(ZeroLattice(k_max=8))
        radii = dyadic_radii(1, 24, 4)
        values = ev.profile_on(theta, radii).values
        dyadic = np.arange(radii.size) % 4 == 0
        assert np.all(values[dyadic] == -math.inf)
        assert np.all(np.isfinite(values[~dyadic]))
        assert ev.eval_log_f(radii[-1] * cis(theta)).log_mag == -math.inf


def block_step(ev, r):
    """The most points a block holds in a call whose largest |z| is r."""
    return product._BLOCK_PAIRS // ev.cutoff(r)


#: the block boundary of a call whose largest point is 2^30, as on the
#: growth ray from k_lo = 24
STEP = block_step(ProductEvaluator(ZeroLattice(k_max=14)), 2.0**30)


class TestCircleSum:
    @pytest.mark.parametrize("width", [2, 3, 8, 9, STEP - 1, STEP, STEP + 1])
    def test_reduce_adds_rows_in_order(self, width):
        # numpy reduces a fresh C-ordered (circles x points) array over
        # axis 0 row by row, in the order accumulate adds them
        rng = np.random.default_rng(width)
        for k in range(1, 61):
            x = rng.standard_normal((k, width)) * np.exp2(
                rng.uniform(-60.0, 60.0, (k, width)))
            want = np.add.accumulate(x, axis=0)[-1]
            assert np.add.reduce(x, axis=0).tobytes() == want.tobytes()
            assert product._sum_rows(x).tobytes() == want.tobytes()

    def test_a_single_column_accumulates(self):
        rng = np.random.default_rng(19)
        for k in range(1, 61):
            x = rng.standard_normal(k) * np.exp2(rng.uniform(-60.0, 60.0, k))
            want = np.add.accumulate(x)[-1]
            assert product._sum_rows(x) == want
            assert product._sum_rows(x[:, None]).tobytes() == want.tobytes()

    def test_doubled_rows_are_the_direct_fmod(self):
        # the deep pairs' rows of 2^k phi mod fl(tau), formed by doubling,
        # on every circle up to the largest cutoff: 64 phases, signed zeros,
        # +-pi and the smallest subnormal among them
        rng = np.random.default_rng(29)
        phi = np.concatenate([[0.0, -0.0, math.pi, -math.pi, 5e-324, -5e-324],
                              rng.uniform(-math.pi, math.pi, 58)])
        count = product._MAX_CUTOFF
        want = np.fmod(phi * np.ldexp(1.0, np.arange(1, count + 1))[:, None],
                       TAU)
        assert product._doubled(phi, count).tobytes() == want.tobytes()

    @pytest.mark.parametrize("theta", [0.0, 0.7])
    @pytest.mark.parametrize("k_lo", [8, 16, 24])
    def test_ray_bits_do_not_depend_on_batching(self, ev, k_lo, theta):
        # a growth-path ray: the whole ray, its one-point calls (which take
        # the block path, as |z| >= _DEEP_RADIUS) and batches of any size
        # around the block boundary of its largest cutoff give the same bits
        zs = dyadic_radii(k_lo, k_lo + 6, 256) * cis(theta)
        assert zs.size == 1537 and np.abs(zs).min() >= _DEEP_RADIUS
        step = block_step(ev, abs(zs[-1]))
        for method in (ev.log_f, ev.log_abs_f):
            whole = method(zs)
            for size in (1, 2, 7, step - 1, step, step + 1):
                parts = np.concatenate([method(zs[lo:lo + size])
                                        for lo in range(0, zs.size, size)])
                assert parts.tobytes() == whole.tobytes(), size

    @staticmethod
    def block_phase_counts(ev, zs):
        # the distinct phases, by their bits, of each block log_f forms from zs
        phi = np.arctan2(zs.imag, zs.real)
        blocks = -(-zs.size // block_step(ev, np.abs(zs).max()))
        step = -(-zs.size // blocks)
        return {np.unique(phi[lo:lo + step].view(np.int64)).size
                for lo in range(0, zs.size, step)}

    def test_bits_do_not_depend_on_phase_grouping(self, ev):
        # rays whose blocks have 1, 2, 3 and 4 distinct phases (theta from
        # a seeded draw) and a random batch, all of whose phases differ,
        # keep their bits in one-point calls and in batches of any size
        rng = np.random.default_rng(23)
        radii = dyadic_radii(24, 30, 256)
        rays = {}
        for theta in rng.uniform(-math.pi, math.pi, 40):
            zs = radii * cis(theta)
            for count in self.block_phase_counts(ev, zs):
                rays.setdefault(count, zs)
        assert {1, 2, 3, 4} <= rays.keys()
        zs = np.exp2(rng.uniform(-3.0, 40.0, 3000)) * cis(
            rng.uniform(-math.pi, math.pi, 3000))
        assert self.block_phase_counts(ev, zs) == {600}
        for zs in [rays[count] for count in (1, 2, 3, 4)] + [zs]:
            step = block_step(ev, np.abs(zs).max())
            for method in (ev.log_f, ev.log_abs_f):
                whole = method(zs)
                one = np.concatenate([method(zs[i:i + 1])
                                      for i in range(zs.size)])
                assert one.tobytes() == whole.tobytes()
                for size in (7, step, step + 1):
                    parts = np.concatenate([method(zs[lo:lo + size])
                                            for lo in range(0, zs.size, size)])
                    assert parts.tobytes() == whole.tobytes(), size

    def test_phase_gather_stays_c_ordered(self, ev, monkeypatch):
        # the arrays a block's circle sums reduce, its log moduli and its
        # half turns, must be C-ordered (a fancy index [:, cols] gives F
        # order), or numpy would not add their rows in order; here on a ray
        # whose blocks have two distinct phases each
        sums = []

        def spy(x):
            sums.append((x.shape, x.flags.c_contiguous))
            return sum_rows(x)

        sum_rows = product._sum_rows
        monkeypatch.setattr(product, "_sum_rows", spy)
        zs = dyadic_radii(24, 30, 256) * cis(0.7)
        assert self.block_phase_counts(ev, zs) == {2}
        ev.log_f(zs)
        assert len(sums) == 4 and all(shape[1] > 1 for shape, _ in sums)
        assert all(c_order for _, c_order in sums)


class TestBlockShortcuts:
    def test_one_unsorted_block_matches_one_point_calls(self, ev):
        # one unsorted block with |z| from 2^-40 to 2^500: its small points'
        # cutoffs fall far below the circles live at its largest, and those
        # circles, with no mask, must leave every point its own bits
        rng = np.random.default_rng(29)
        mods = np.exp2(rng.uniform(-40.0, 500.0, block_step(ev, 2.0**500)))
        mods[:2] = 2.0**-40, 2.0**500
        zs = mods * cis(rng.uniform(-4, 4, mods.size))
        zs[1::5] = mods[1::5] * np.resize([1, 1j, -1, -1j], zs[1::5].size)
        zs[::7] = [ev.lattice.zero(k % 20 + 1, 5 * k + 1)
                   for k in range(zs[::7].size)]
        radii = np.abs(zs)
        assert np.any(np.diff(radii) < 0)
        n = product._POW2[:ev.cutoff(radii.max()), 0]
        live = np.count_nonzero(np.log(radii.max() / n) * n > -750.0)
        assert np.count_nonzero(ev._cutoffs(radii) < live) > radii.size // 2
        for method in (ev.log_f, ev.log_abs_f):
            one = np.concatenate([method(zs[i:i + 1]) for i in range(zs.size)])
            assert method(zs).tobytes() == one.tobytes()
        assert np.all(ev.log_abs_f(zs[::7]) == -math.inf)

    def test_circles_past_the_cutoff_are_dead(self, ev):
        # past its cutoff a point has 2^k >= 512 max(|z|, 1), so
        # x = 2^k log(|z|/2^k) <= 512 log(1/512) < -3194: the factor is
        # exactly 1, as at any x < -750, at, below and above every 2^k (on
        # the largest circles x overflows to -inf)
        radii = np.exp2(np.arange(-40.0, 1001.0))
        radii = np.concatenate([radii, np.nextafter(radii, 0.0),
                                np.nextafter(radii, math.inf)])
        for r in radii:
            n = product._POW2[ev.cutoff(r):, 0]
            with np.errstate(over="ignore"):
                assert n.size and np.max(np.log(r / n) * n) < -3194.0

    @pytest.mark.parametrize("count", [5, 3])
    def test_multi_block_calls_match_one_point_calls(self, ev, count):
        # 1537 points with five or three distinct phases run as four
        # blocks.  The moduli are shuffled, so each block mixes small and
        # large |z|, and reach 2^60, where circles are deep; the phases are
        # those of the axes and the diagonals, which arctan2 gives exactly
        # at any modulus
        rng = np.random.default_rng(31 + count)
        mods = np.exp2(rng.uniform(-3.0, 60.0, 1537))
        directions = np.array([1 + 1j, -1j, -1 + 1j, 1, 1j])[:count]
        zs = mods * np.resize(directions, mods.size)
        assert np.unique(np.angle(zs).view(np.int64)).size == count
        assert -(-zs.size // block_step(ev, mods.max())) == 4
        for method in (ev.log_f, ev.log_abs_f):
            one = np.concatenate([method(zs[i:i + 1]) for i in range(zs.size)])
            assert method(zs).tobytes() == one.tobytes()

    @pytest.mark.parametrize("name", ["ray8", "ray16", "ray24", "random",
                                      "max_modulus"])
    def test_blocks_stay_within_the_pair_budget(self, ev, monkeypatch, name):
        # every block is at most _BLOCK_PAIRS (circles x points) pairs, its
        # circles bounded by its largest cutoff; a growth ray is one or two
        # blocks.  Blocks of a fixed 384 points reached 384 x 508 pairs on a
        # batch to 2^500
        blocks = []

        def spy(radii, phi, cutoffs, with_arg):
            blocks.append(radii.size * int(cutoffs.max()))
            return log_f_block(radii, phi, cutoffs, with_arg)

        log_f_block = product._log_f_block
        monkeypatch.setattr(product, "_log_f_block", spy)
        rng = np.random.default_rng(37)
        if name.startswith("ray"):
            k_lo = int(name[3:])
            ev.profile_on(0.7, dyadic_radii(k_lo, k_lo + 6, 256))
            assert 1 <= len(blocks) <= 2
        elif name == "random":
            ev.log_f(np.exp2(rng.uniform(-40.0, 500.0, 3000)) * cis(
                rng.uniform(-math.pi, math.pi, 3000)))
            assert len(blocks) == -(-3000 // block_step(ev, 2.0**500))
        else:
            # 64 angles are one block up to cutoff 512, two beyond
            for r in (1000.3, 2.0**200, 2.0**1000):
                ev.max_modulus(r, 64)
            assert len(blocks) == 1 + 1 + 2
        assert max(blocks) <= product._BLOCK_PAIRS


class TestDirectOracle:
    def test_matches_three_circle_identity(self, ev):
        want = (
            Fraction(3, 4)
            * Fraction(255, 256)
            * Fraction((1 << 24) - 1, 1 << 24)
        )
        got = complex(exp(ev.eval_log_f_direct(1.0, 3)))
        assert got == pytest.approx(float(want), rel=1e-12)

    def test_lattice_points_vanish(self, ev):
        assert ev.eval_log_f_direct(-2.0, 1) == complex(-math.inf, 0.0)
        assert ev.eval_log_f_direct(4j, 2) == complex(-math.inf, 0.0)

    def test_exhausted(self, ev):
        with pytest.raises(LatticeExhaustedError):
            ev.eval_log_f_direct(1.0, 15)

    def test_agrees_with_closed_form(self, ev):
        rng = np.random.default_rng(7)
        for _ in range(100):
            r = rng.uniform(1.0, 50.0)
            phi = rng.uniform(-math.pi, math.pi)
            z = r * complex(math.cos(phi), math.sin(phi))
            a = complex(ev.log_f([z])[0])
            b = ev.eval_log_f_direct(z, ev.cutoff(z))
            assert (abs(a.real - b.real)
                    + abs(math.remainder(a.imag - b.imag, TAU))) <= 1e-10


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

    @pytest.mark.parametrize("args, name", [
        ((0.5, 6), "k_lo"), ((3, 6.0), "k_hi"), ((3.0, 6), "k_lo"),
        ((3, 6, 4.0), "per_window"), ((3, 6, np.float64(8)), "per_window"),
    ])
    def test_dyadic_radii_refuses_non_integers(self, args, name):
        # a float k_lo of 0.5 would shift every exponent off the dyadic grid
        with pytest.raises(TypeError, match="^%s must be an integer" % name):
            dyadic_radii(*args)

    def test_dyadic_radii_bits_are_linspace(self):
        # the exponents k_lo + i / per_window against the linspace form
        def check(k_lo, width, per_window):
            k_hi = k_lo + width
            want = np.exp2(np.linspace(k_lo, k_hi,
                                       (k_hi - k_lo) * per_window + 1))
            got = dyadic_radii(k_lo, k_hi, per_window)
            assert got.tobytes() == want.tobytes(), (k_lo, k_hi, per_window)

        rng = np.random.default_rng(34)
        for e in range(17):
            for width in range(1, 17):
                check(int(rng.integers(-1074, 1001)), width, 2**e)
        for k_lo in range(-1074, 1001):
            check(k_lo, 1 + k_lo % 16, 2 ** (k_lo % 9))
        check(np.int64(-3), 5, np.int32(4))

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


def relabel(profile, function_id):
    """The same samples under another function_id."""
    return GrowthProfile(function_id, profile.theta, profile.radii,
                         profile.values)


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
        # -inf samples (lattice zeros on the ray) and a ray off the axes
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

    def test_matches_per_row_writer(self, ev, tmp_path):
        # the per-row writer the blocks replaced, on two profiles with -inf
        # samples, one with a "%" in its function_id
        profiles = [ev.profile_on(0.0, dyadic_radii(2, 13, 256)),
                    relabel(ev.profile_on(0.3, np.geomspace(4.0, 64.0, 37)),
                            "f%s%%d")]
        text = ["function_id,theta,r,value\n"]
        for p in profiles:
            text.extend("%s,%.17g,%.17g,%.17g\n" % (p.function_id, p.theta, r, v)
                        for r, v in zip(p.radii.tolist(), p.values.tolist()))
        path = tmp_path / "profile.csv"
        write_profile_csv(profiles, path)
        assert profiles[0].radii.size > 2048
        assert "-inf" in path.read_text()
        assert path.read_bytes() == "".join(text).encode("ascii")

    def test_shared_grid_matches_per_row_writer(self, ev, tmp_path):
        # profiles on one grid, as reproduce writes them (one a copy of
        # it), then another grid and the first again
        grid, other = dyadic_radii(2, 6, 64), np.geomspace(3.0, 900.0, 51)
        profiles = [ev.profile_on(0.0, grid),
                    relabel(ev.profile_on(1.0, grid.copy()), "g"),
                    ev.profile_on(0.3, other), ev.profile_on(-2.0, grid)]
        text = ["function_id,theta,r,value\n"]
        for p in profiles:
            text.extend("%s,%.17g,%.17g,%.17g\n" % (p.function_id, p.theta, r, v)
                        for r, v in zip(p.radii.tolist(), p.values.tolist()))
        path = tmp_path / "profile.csv"
        write_profile_csv(profiles, path)
        assert path.read_bytes() == "".join(text).encode("ascii")
