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

    @pytest.mark.parametrize("rotation", [0.0, 0.7, -1e-9])
    def test_circle_is_zero_bitwise(self, rotation):
        lat = ZeroLattice(k_max=14, rotation=rotation)
        for k in range(1, 15):
            ref = np.array([lat.zero(k, j) for j in range(1 << k)])
            assert lat.circle(k).tobytes() == ref.tobytes(), k

    def test_order_k_then_angle(self, lattice):
        z = np.concatenate([lattice.circle(k) for k in (1, 2, 3)])
        moduli = np.abs(z)
        assert np.all(np.diff(moduli) > -1e-9)  # nondecreasing by circle
        ang = np.mod(np.angle(lattice.circle(3)), 2 * math.pi)
        assert np.all(np.diff(ang) > 0)

    def test_exhausted(self):
        small = ZeroLattice(k_max=3)
        with pytest.raises(LatticeExhaustedError):
            small.counting(8.001)
        with pytest.raises(LatticeExhaustedError):
            small.circle(4)

    def test_rotation_rotates_every_zero(self):
        theta = 0.7
        base = ZeroLattice(k_max=5)
        rot = ZeroLattice(k_max=5, rotation=theta)
        w = complex(math.cos(theta), math.sin(theta))
        for k in (1, 3, 5):
            np.testing.assert_allclose(
                rot.circle(k), base.circle(k) * w, rtol=1e-14, atol=1e-12
            )

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

    def test_rotation_still_cancels(self):
        rot = ZeroLattice(k_max=8, rotation=1.2345)
        assert abs(rot.reciprocal_sum(2.0**8)) <= 1e-12


class TestVerification:
    def test_k10_report(self):
        report = verify_counting_bounds(ZeroLattice(k_max=10))
        assert report.sup_normalized == Fraction(1023, 512)
        assert float(report.sup_normalized) == 1.998046875
        assert report.sup_at_k == 10
        assert report.density_bounded_by_two
        assert report.reciprocal_bounded(1e-12)

    def test_k1_report(self):
        report = verify_counting_bounds(ZeroLattice(k_max=1))
        assert report.sup_normalized == 1

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
