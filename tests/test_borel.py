"""Tests for the coefficient stream and the transform evaluator."""
import math
from fractions import Fraction

import numpy as np
import pytest

from expgrowth.borel import (
    BorelDomainError,
    BorelEvaluator,
    CoefficientStream,
    term_envelope,
    write_coeffs_csv,
)

# frozen from a 50-digit summation through m = 40 (tail below each stated
# tolerance)
G_AT_4 = 0.2421388632701698
G_AT_3 = 0.3147504138567144
G_AT_2P5 = 0.36818893812864273
G_AT_3J = -0.3511445435794240


@pytest.fixture(scope="module")
def stream():
    return CoefficientStream()


@pytest.fixture(scope="module")
def g():
    return BorelEvaluator()


def truncated_product_coeffs(k_top: int) -> dict:
    """Exact rational coefficients of prod_{k<=k_top}(1 - z^{2^k}/2^{k 2^k})."""
    poly = {0: Fraction(1)}
    for k in range(1, k_top + 1):
        step = {}
        for m, c in poly.items():
            step[m] = step.get(m, Fraction(0)) + c
            shifted = m + (1 << k)
            step[shifted] = step.get(shifted, Fraction(0)) - c / Fraction(
                2
            ) ** (k << k)
        poly = step
    return poly


class TestTaylorCoefficients:
    def test_reference_values(self, stream):
        assert stream.taylor_coefficient(0) == (1, 0.0)
        assert stream.taylor_coefficient(2) == (-1, -2.0)
        assert stream.taylor_coefficient(14) == (-1, -34.0)
        assert stream.taylor_coefficient(6) == (1, -10.0)

    def test_odd_and_origin_bits_vanish(self, stream):
        for m in (1, 3, 5, 7, 9, 33, 1001):
            sign, log2_a = stream.taylor_coefficient(m)
            assert sign == 0 and log2_a == -math.inf

    def test_rejects_negative(self, stream):
        with pytest.raises(ValueError):
            stream.taylor_coefficient(-1)

    def test_matches_exact_convolution(self, stream):
        poly = truncated_product_coeffs(4)
        for m in range(31):
            sign, log2_a = stream.taylor_coefficient(m)
            want = poly.get(m, Fraction(0))
            if sign == 0:
                assert want == 0
            else:
                assert want != 0
                got = Fraction(sign) / Fraction(2) ** int(-log2_a)
                assert got == want

    def test_derivative_values(self, stream):
        sign, log_c = stream.derivative_at_zero(2)
        assert sign == -1 and math.exp(log_c) == pytest.approx(0.5, rel=1e-14)
        sign, log_c = stream.derivative_at_zero(6)
        assert sign == 1
        assert math.exp(log_c) == pytest.approx(0.703125, rel=1e-13)
        assert stream.derivative_at_zero(1) == (0, -math.inf)

    def test_derivative_beyond_float_factorials(self, stream):
        # 400! alone overflows; c_400 must still come out finite and small
        sign, log_c = stream.derivative_at_zero(400)
        assert sign != 0 and math.isfinite(log_c)
        assert log_c < 0


class TestEnvelope:
    def test_bounds_every_term(self, stream):
        for s_abs in (3.0, 4.0, 10.0):
            ls = math.log(s_abs)
            for m in range(2, 201, 2):
                _, log_c = stream.derivative_at_zero(m)
                if log_c == -math.inf:
                    continue
                assert log_c - (m + 1) * ls <= term_envelope(m, ls) + 1e-12

    def test_eventually_decreasing(self):
        ls = math.log(2.5)
        vals = [term_envelope(m, ls) for m in range(1, 200)]
        assert all(b < a for a, b in zip(vals, vals[1:]))


class TestEvaluator:
    def test_large_s_leading_term(self, g):
        s = 1.0e6
        assert g(s) == pytest.approx(1.0 / s, rel=1e-12)
        s = 1e6 * complex(math.cos(1.0), math.sin(1.0))
        assert abs(g(s) - 1.0 / s) <= 1e-12 * abs(1.0 / s)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_top_of_binary64(self, g):
        # 1/s by Smith's rule overflowed its denominator here and gave 0
        s = complex(2.0**1023, 2.0**1023)
        assert g(s) == complex(2.0**-1024, -(2.0**-1024))

    def test_reference_points(self, g):
        assert g(4.0).real == pytest.approx(G_AT_4, abs=1e-13)
        assert g(3.0).real == pytest.approx(G_AT_3, abs=1e-10)
        assert g(2.5).real == pytest.approx(G_AT_2P5, abs=1e-7)
        out = g(3j)
        assert out.imag == pytest.approx(G_AT_3J, abs=1e-10)
        assert abs(out.real) <= 1e-12

    def test_negative_axis(self, g):
        assert g(-3.0) == pytest.approx(-G_AT_3, abs=1e-10)
        assert g(-4.0) == -g(4.0)

    def test_odd(self, g):
        rng = np.random.default_rng(14)
        for _ in range(40):
            r = rng.uniform(3.0, 30.0)
            phi = rng.uniform(-math.pi, math.pi)
            s = r * complex(math.cos(phi), math.sin(phi))
            a, b = g(s), g(-s)
            assert abs(a + b) <= 1e-12 * abs(a)

    def test_conjugation_exact(self, g):
        rng = np.random.default_rng(15)
        for _ in range(40):
            s = complex(*rng.uniform(-20, 20, size=2))
            if abs(s) < 3.0:
                continue
            assert g(s.conjugate()) == g(s).conjugate()

    def test_domain_refusal(self, g):
        with pytest.raises(BorelDomainError):
            g(2.4)
        with pytest.raises(BorelDomainError):
            g(1j)
        for s in (math.nan, math.inf, complex(3.0, math.nan)):
            with pytest.raises(BorelDomainError):
                g(s)
        assert math.isfinite(g(2.5).real)  # boundary itself is allowed

    def test_batch_matches_scalar_bitwise(self, g):
        # a node's term count depends only on its own |s| and partial sum,
        # so a batch gives every node the bits of a single call
        rng = np.random.default_rng(16)
        special = [2.5, -2.5, 2.5j, -2.5j, 4.0, -7.0j,
                   2.5 * complex(math.cos(0.7), math.sin(0.7))]
        for ev in (g, BorelEvaluator(min_index=2)):
            for n in (1, 7, 128, 1000):
                s = rng.uniform(2.5, 30.0, n) * np.exp(
                    1j * rng.uniform(-math.pi, math.pi, n))
                s[:len(special)] = special[:n]
                want = np.array([ev(complex(node)) for node in s])
                assert ev.at(s).tobytes() == want.tobytes()

    def test_stopped_nodes_keep_their_sum(self, g):
        # these nodes stop at very different terms; the ones that stop early
        # go on adding (discarded) terms until the last one stops, and must
        # neither raise nor change their value.  On the two |s| = 4 nodes
        # one part of g - 1/s crosses zero (~2e-18), so a late term kept
        # there would change its bits
        s = np.array([2.5, -2.5j, 4.0, 4.0 * complex(math.cos(2.0),
                      math.sin(2.0)), 3.467634372751331 + 1.9938685656064403j,
                      2.017237019389363 + 3.454092472358712j, 1e150, -1e300j,
                      2.0**1023 * (1.0 + 1.0j)])
        for ev in (g, BorelEvaluator(min_index=2)):
            with np.errstate(over="raise", invalid="raise"):
                got = ev.at(s)
                want = np.array([ev(complex(node)) for node in s])
            assert got.tobytes() == want.tobytes()

    def test_validation(self):
        with pytest.raises(ValueError):
            BorelEvaluator(min_index=-1)


class TestCsvExport:
    def test_zero_rows_trimmed_above_64(self, tmp_path):
        path = tmp_path / "coeffs.csv"
        write_coeffs_csv(80, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "m,sign,log2_abs_a,log_abs_c"
        ms = [int(line.split(",")[0]) for line in lines[1:]]
        assert 3 in ms and 63 in ms  # zero rows kept low down
        assert 65 not in ms and 67 not in ms
        assert 66 in ms and 80 in ms
        row3 = lines[1 + ms.index(3)].split(",")
        assert row3 == ["3", "0", "-inf", "-inf"]
        row2 = lines[1 + ms.index(2)].split(",")
        assert row2[1] == "-1" and row2[2] == "-2"
