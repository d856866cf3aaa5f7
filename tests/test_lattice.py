"""Tests for the dyadic zero lattice: enumeration, counting, reciprocal sums."""
import math
from fractions import Fraction

import numpy as np
import pytest

from expgrowth.lattice import (
    LatticeExhaustedError,
    ZeroLattice,
    verify_counting_bounds,
    write_zeros_csv,
)
from expgrowth.lognum import TAU


@pytest.fixture(scope="module")
def lattice():
    return ZeroLattice(k_max=14)


class TestEnumeration:
    def test_below_first_circle_empty(self, lattice):
        assert lattice.counting(1.0) == 0
        with pytest.raises(LatticeExhaustedError):
            lattice.circle(0)

    def test_first_circle_pair(self, lattice):
        assert lattice.circle(1).tolist() == [2.0 + 0.0j, -2.0 + 0.0j]

    def test_two_circles(self, lattice):
        z = np.concatenate([lattice.circle(1), lattice.circle(2)])
        assert z.tolist() == [2, -2, 4, 4j, -4, -4j]

    def test_length_matches_counting(self, lattice):
        # n(r) counts the zeros of every circle k with 2^k <= r
        for r in (1.0, 2.0, 3.0, 7.9, 8.0, 100.0):
            zeros = np.concatenate([np.empty(0)] + [
                lattice.circle(k) for k in range(1, 15) if 2.0**k <= r])
            assert zeros.size == lattice.counting(r)

    def test_cardinal_zeros_exact(self, lattice):
        # every multiple of a quarter turn must come out bit-exact
        for k in range(1, 9):
            n = 1 << k
            assert lattice.zero(k, 0) == float(n)
            assert lattice.zero(k, n // 2) == -float(n)
            if k >= 2:
                assert lattice.zero(k, n // 4) == complex(0.0, n)
                assert lattice.zero(k, 3 * n // 4) == complex(0.0, -n)

    def test_moduli_on_circle(self, lattice):
        for k in (1, 3, 6, 10):
            radii = np.abs(lattice.circle(k))
            # scaling by 2^k is exact; only cos/sin rounding remains
            assert np.all(np.abs(radii - 2.0**k) <= 2 * np.spacing(2.0**k))

    def test_circle_sizes(self, lattice):
        for k in (1, 2, 5, 9):
            assert lattice.circle(k).size == 1 << k

    def test_circle_is_zero_bitwise(self, lattice):
        for k in range(1, 15):
            ref = np.array([lattice.zero(k, j) for j in range(1 << k)])
            assert lattice.circle(k).tobytes() == ref.tobytes(), k

    def test_octant_cos_sin_match_math(self):
        # circle() takes numpy cos/sin of the first-octant angles, zero()
        # takes math.cos/math.sin of the same angles; the lattice command
        # writes circles up to 20 and _is_lattice_zero reads zero()
        for k in range(3, 21):
            n = 1 << k
            phi = TAU * np.arange(n // 8 + 1) / n
            angles = [TAU * i / n for i in range(n // 8 + 1)]
            assert phi.tolist() == angles, k
            assert np.cos(phi).tolist() == list(map(math.cos, angles)), k
            assert np.sin(phi).tolist() == list(map(math.sin, angles)), k

    def test_deep_circles_are_zero_bitwise(self):
        # the unrotated circles past 14, on every j within 2 of an octant
        # boundary (a cardinal or a diagonal) and on a stride of the rest
        lat = ZeroLattice(k_max=20)
        for k in range(15, 21):
            n = 1 << k
            edges = np.arange(0, n, n // 8)[:, None] + np.arange(-2, 3)
            js = np.union1d(edges.ravel() % n, np.arange(1, n, 997))
            ref = np.array([lat.zero(k, j) for j in js.tolist()])
            assert lat.circle(k)[js].tobytes() == ref.tobytes(), k

    @pytest.mark.parametrize("k", range(1, 15))
    def test_unrotated_circle_symmetries_bitwise(self, lattice, k):
        # conjugation and the quarter turn, in the exact arithmetic
        # x, y -> x, 0.0 - y and x, y -> 0.0 - y, x that keeps +0.0, map
        # circle k onto itself
        a = lattice.circle(k)
        n = a.size
        conj = np.empty_like(a)
        conj.real, conj.imag = a.real, 0.0 - a.imag
        assert conj.tobytes() == a[-np.arange(n) % n].tobytes()
        if k >= 2:
            turn = np.empty_like(a)
            turn.real, turn.imag = 0.0 - a.imag, a.real
            assert turn.tobytes() == np.roll(a, -(n // 4)).tobytes()
        assert not np.signbit(a[a.real == 0.0].real).any()
        assert not np.signbit(a[a.imag == 0.0].imag).any()

    @pytest.mark.parametrize("k", [8, 11, 14])
    def test_unrotated_coordinates_within_0_6_ulp(self, lattice, k):
        # against 30-digit mpmath values of 2^k cos/sin(2 pi j/2^k):
        # measured 0.43, 0.44 and 0.53 ulp; cos and sin taken on every
        # angle of the circle were up to 2.9, 2.9 and 3.1 ulp off
        mpmath = pytest.importorskip("mpmath")
        a = lattice.circle(k)
        n = a.size
        worst = 0.0
        with mpmath.workdps(30):
            for j, (x, y) in enumerate(zip(a.real.tolist(), a.imag.tolist())):
                t = mpmath.mpf(2 * j) / n
                worst = max(worst, abs(x - n * mpmath.cospi(t)),
                            abs(y - n * mpmath.sinpi(t)))
        assert float(worst) <= 0.6 * math.ulp(float(n))

    def test_order_k_then_angle(self, lattice):
        z = np.concatenate([lattice.circle(k) for k in (1, 2, 3)])
        moduli = np.abs(z)
        assert np.all(np.diff(moduli) > -1e-9)  # nondecreasing by circle
        ang = np.mod(np.angle(lattice.circle(3)), 2 * math.pi)
        assert np.all(np.diff(ang) > 0)

    def test_exhausted(self):
        small = ZeroLattice(k_max=3)
        assert small.counting(8.0) == 14
        with pytest.raises(LatticeExhaustedError):
            small.counting(8.001)
        with pytest.raises(LatticeExhaustedError):
            small.counting(math.nextafter(8.0, math.inf))
        with pytest.raises(LatticeExhaustedError):
            small.circle(4)

    def test_rejects_bad_k_max(self):
        with pytest.raises(ValueError):
            ZeroLattice(k_max=0)


class TestCounting:
    def test_dyadic_values_exact(self, lattice):
        # integer identity n(2^k) = 2^{k+1} - 2, no float tolerance
        for k in range(1, 15):
            assert lattice.counting(2.0**k) == (1 << (k + 1)) - 2
        assert lattice.counting(8.0) == 14

    def test_generic_radii(self, lattice):
        assert lattice.counting(6.0) == 6
        assert lattice.counting(1.9) == 0
        assert lattice.counting(0.0) == 0

    def test_ties_included(self, lattice):
        # jump happens exactly at the circle radius
        assert lattice.counting(4.0) == 6
        assert lattice.counting(math.nextafter(4.0, 0.0)) == 2

    def test_monotone(self, lattice):
        rng = np.random.default_rng(3)
        rs = np.sort(rng.uniform(0.0, 2.0**14, size=400))
        counts = [lattice.counting(r) for r in rs]
        assert all(a <= b for a, b in zip(counts, counts[1:]))

    def test_normalized_dyadic(self, lattice):
        assert lattice.counting(16.0) / 16.0 == 1.875
        for k in range(1, 15):
            want = Fraction((1 << (k + 1)) - 2, 1 << k)
            assert lattice.counting(2.0**k) / 2.0**k == float(want)

    def test_normalized_generic(self, lattice):
        assert lattice.counting(3.5) / 3.5 == pytest.approx(2 / 3.5)
        assert lattice.counting(0.5) / 0.5 == 0.0
        with pytest.raises(ValueError):
            lattice.counting(-1.0)

    @pytest.mark.parametrize("query", ["counting", "reciprocal_sum"])
    def test_nan_refused(self, lattice, query):
        with pytest.raises(ValueError, match="nonnegative number, not nan"):
            getattr(lattice, query)(math.nan)

    @pytest.mark.parametrize("query", ["counting", "reciprocal_sum"])
    def test_infinite_radius_exhausts_the_lattice(self, lattice, query):
        with pytest.raises(LatticeExhaustedError):
            getattr(lattice, query)(math.inf)

    def test_k_max_past_binary64(self):
        # no power 2^k_max is formed, so k_max may pass 1023
        lat = ZeroLattice(k_max=2000)
        assert lat.counting(5.0) == 6
        assert lat.counting(1e308) == (1 << 1024) - 2
        with pytest.raises(LatticeExhaustedError, match=r"exceeds 2\^2000"):
            lat.counting(math.inf)
        with pytest.raises(ValueError, match="not nan"):
            lat.counting(math.nan)

    def test_k_exact_at_every_dyadic_radius(self):
        # n(r) is exact on every circle of binary64 and one ulp to either
        # side of it
        lat = ZeroLattice(k_max=1023)
        for k in range(1, 1024):
            r = math.ldexp(1.0, k)
            assert lat.counting(r) == (1 << (k + 1)) - 2, k
            assert lat.counting(math.nextafter(r, 0.0)) == (1 << k) - 2, k
            if k < 1023:
                assert lat.counting(math.nextafter(r, math.inf)) == (
                    (1 << (k + 1)) - 2), k

    def test_decreasing_within_band(self, lattice):
        rng = np.random.default_rng(4)
        for k in (2, 7, 12):
            rs = np.sort(rng.uniform(2.0**k, 2.0 ** (k + 1), size=50))
            vals = [lattice.counting(r) / r for r in rs]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_upper_band_bound(self, lattice):
        # on [1.5*2^{k-1}, 2^k) the density never exceeds 4/3; the compare
        # 3n <= 4r is exact in binary64
        rng = np.random.default_rng(5)
        for k in range(2, 15):
            lo, hi = 1.5 * 2.0 ** (k - 1), 2.0**k
            for r in rng.uniform(lo, hi, size=64):
                assert 3 * lattice.counting(r) <= 4 * r
            assert 3 * lattice.counting(lo) <= 4 * lo


class TestReciprocalSums:
    def test_empty_sum_exact_zero(self, lattice):
        assert lattice.reciprocal_sum(1.0) == 0j

    def test_first_circle(self, lattice):
        assert abs(lattice.reciprocal_sum(2.0)) <= 1e-16

    def test_dyadic_radius(self, lattice):
        assert abs(lattice.reciprocal_sum(2.0**10)) <= 1e-12

    def test_generic_radius_matches_last_circle(self, lattice):
        assert lattice.reciprocal_sum(100.0) == lattice.reciprocal_sum(64.0)

    def test_unrotated_circles_cancel_exactly(self, lattice):
        # each quarter turn of 1/a is exact, so every circle sums to 0
        for k in range(1, 15):
            assert lattice._circle_recip(k) == 0j, k
        assert lattice.reciprocal_sum(2.0**14) == 0j


class TestVerification:
    def test_k10_report(self):
        report = verify_counting_bounds(ZeroLattice(k_max=10))
        assert report.sup_normalized == Fraction(1023, 512)
        assert float(report.sup_normalized) == 1.998046875
        assert report.sup_at_k == 10
        assert report.density_bounded_by_two
        assert report.reciprocal_bounded

    def test_k1_report(self):
        report = verify_counting_bounds(ZeroLattice(k_max=1))
        assert report.sup_normalized == 1

    def test_density_read_from_the_lattice(self, monkeypatch):
        # n(2^k) comes from counting, so a wrong count shows in the report
        lat = ZeroLattice(k_max=6)
        monkeypatch.setattr(ZeroLattice, "counting", lambda self, r: 3 * int(r))
        report = verify_counting_bounds(lat)
        assert report.sup_normalized == 3
        assert not report.density_bounded_by_two

    def test_worst_radius_recorded(self):
        report = verify_counting_bounds(ZeroLattice(k_max=6))
        assert 2.0 <= report.max_reciprocal_at_r <= 64.0


class TestCsvExport:
    def test_schema_and_values(self, tmp_path):
        path = tmp_path / "zeros.csv"
        write_zeros_csv(ZeroLattice(k_max=2), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "k,j,re,im"
        assert len(lines) == 1 + 2 + 4
        assert lines[1] == "1,0,2,0"
        assert lines[3] == "2,0,4,0"
        assert lines[4] == "2,1,0,4"

    def test_matches_per_value_formatting(self, tmp_path):
        # the row-format writer against the per-value formatting it replaced
        lat = ZeroLattice(k_max=10)
        lines = ["k,j,re,im"]
        for k in range(1, 11):
            for j in range(1 << k):
                a = lat.zero(k, j)
                lines.append(",".join((str(k), str(j), f"{a.real:.17g}",
                                       f"{a.imag:.17g}")))
        path = tmp_path / "zeros.csv"
        write_zeros_csv(lat, path)
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode("ascii")

    @staticmethod
    def per_row_writer(lat):
        """The per-row writer the blocks replaced, as bytes."""
        text = ["k,j,re,im\n"]
        for k in range(1, lat.k_max + 1):
            a = lat.circle(k)
            text.extend("%d,%d,%.17g,%.17g\n" % (k, j, x, y)
                        for j, (x, y) in enumerate(zip(a.real.tolist(),
                                                       a.imag.tolist())))
        return "".join(text).encode("ascii")

    def test_unrotated_matches_per_row_writer(self, tmp_path):
        # from circle 12 a quarter spans more than one block; k_max 14 is
        # the lattice of reproduce
        path = tmp_path / "zeros.csv"
        for k_max in (12, 14):
            lat = ZeroLattice(k_max=k_max)
            write_zeros_csv(lat, path)
            assert path.read_bytes() == self.per_row_writer(lat)
        # the rows that cut the quarters: a zero coordinate is written "0",
        # never "-0", and the diagonal j = 2^k/8 has equal x and y texts
        text = path.read_text()
        assert "-0," not in text and ",-0\n" not in text
        rows = {tuple(map(int, line.split(",")[:2])): line.split(",")[2:]
                for line in text.splitlines()[1:]}
        for k in range(2, 15):
            n = 1 << k
            assert [rows[k, t * n // 4] for t in range(4)] == [
                [str(n), "0"], ["0", str(n)], [str(-n), "0"], ["0", str(-n)]]
            if k >= 3:
                x, y = rows[k, n // 8]
                assert x == y == "%.17g" % lat.zero(k, n // 8).real
                assert float(x) == lat.circle(k)[n // 8].imag

    def test_signed_zeros_and_shared_magnitudes(self, tmp_path):
        # circles given outright: -0.0 must keep its "-", and values that
        # share a magnitude, or only differ in the last bit, keep their own
        lat = ZeroLattice(k_max=2)
        x = 0.1 + 0.2
        lat._circles[1] = np.array([complex(-0.0, 0.0), complex(x, -x)])
        lat._circles[2] = np.array([complex(-x, 0.3), complex(0.3, -0.0),
                                    complex(math.nextafter(x, 1), -5e-324),
                                    complex(-5e-324, 0.0)])
        path = tmp_path / "zeros.csv"
        write_zeros_csv(lat, path)
        assert path.read_bytes() == self.per_row_writer(lat)
        assert path.read_text().splitlines()[1] == "1,0,-0,0"
