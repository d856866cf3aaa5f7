"""Tests for the log-domain helpers: cis, exp, log_sub and LogComplex."""
import cmath
import math

import numpy as np
import pytest

from expgrowth.lognum import LogComplex, cis, exp, log_sub


def polar(log_mag, arg):
    return np.asarray(log_mag) + 1j * np.asarray(arg)


class TestLogComplexBasics:
    def test_zero_encoding(self):
        z = LogComplex(-math.inf, 0.0)
        assert z.is_zero
        assert z.to_complex() == 0j
        assert exp(complex(-math.inf, 0.0)) == 0j

    def test_round_trip_moderate_moduli(self):
        # 4-ulp round trip is attainable while |ln|w|| stays small; binary64
        # log/exp alone costs ~|ln|w||*eps in relative error at huge exponents.
        rng = np.random.default_rng(7)
        mag = np.exp(rng.uniform(-5, 5, 500))
        ang = rng.uniform(-math.pi, math.pi, 500)
        w = mag * np.exp(1j * ang)
        back = exp(np.log(w))
        assert np.all(np.abs(back - w) <= 4 * np.spacing(np.abs(w)))

    def test_arg_normalized(self):
        rng = np.random.default_rng(8)
        a = polar(rng.uniform(-5, 5, 200), rng.uniform(-50, 50, 200))
        b = polar(rng.uniform(-5, 5, 200), rng.uniform(-50, 50, 200))
        args = log_sub(a, b).imag
        assert np.all((-math.pi < args) & (args <= math.pi))
        # a - 1 with a far below 1 in the third quadrant: a's underflowed
        # share leaves a -0 imaginary part, where atan2 gives -pi
        assert log_sub(complex(-800.0, -2.0), 0.0) == complex(0.0, math.pi)

    @pytest.mark.parametrize("arg, want", [
        (0.0, (math.inf, 0.0)),
        (math.pi / 2, (0.0, math.inf)),
        (math.pi, (-math.inf, 0.0)),
        (1.0, (math.inf, math.inf)),
    ])
    def test_overflow_saturates_each_component(self, arg, want):
        # inf * cis(arg) would give inf * 0 = nan in a zero component
        w = LogComplex(1e300, arg).to_complex()
        assert (w.real, w.imag) == want
        w = exp(np.array([complex(1e300, arg), 0.0]))[0]
        assert (w.real, w.imag) == want

    def test_cis_exact_at_cardinal_angles(self):
        half = 0.5 * math.pi
        got = cis(np.array([0.0, half, -half, math.pi, -math.pi]))
        want = np.array([1.0, 1.0j, complex(0.0, -1.0), -1.0, -1.0], dtype=complex)
        assert got.tobytes() == want.tobytes()

    def test_exp_matches_libm_bitwise(self):
        rng = np.random.default_rng(9)
        lf = polar(rng.uniform(-700, 700, 300), rng.uniform(-math.pi, math.pi, 300))
        got = exp(lf)
        want = [math.exp(v.real) * complex(math.cos(v.imag), math.sin(v.imag))
                for v in lf.tolist()]
        assert got.tobytes() == np.array(want).tobytes()


class TestAdd:
    """a + b, as log_sub(log a, log(-b))."""

    def test_three_plus_minus_one(self):
        out = log_sub(math.log(3), 0.0)
        assert out.real == pytest.approx(math.log(2), abs=1e-15)
        assert out.imag == 0.0

    def test_exact_cancellation(self):
        out = log_sub(0.0, 0.0)
        assert out == complex(-math.inf, 0.0)

    def test_huge_operands(self):
        # oracle: mpmath 50 digits, 700 + log1p(exp(-10))
        out = log_sub(700.0, complex(690.0, math.pi))
        assert out.real == pytest.approx(700.00004539889921686, abs=1e-11)
        assert out.imag == 0.0

    def test_symmetric_bitwise(self):
        rng = np.random.default_rng(11)
        a = polar(rng.uniform(-700, 700, 300), rng.uniform(-math.pi, math.pi, 300))
        b = polar(rng.uniform(-700, 700, 300), rng.uniform(-math.pi, math.pi, 300))
        ab, ba = log_sub(a, b), log_sub(b, a)
        assert ab.real.tobytes() == ba.real.tobytes()
        # b - a = -(a - b): the arguments differ by a half turn
        turn = np.remainder(ab.imag - ba.imag, 2.0 * math.pi)
        assert np.all(np.abs(turn - math.pi) <= 1e-15)

    def test_zero_operand_bitwise(self):
        rng = np.random.default_rng(13)
        a = polar(rng.uniform(-700, 700, 50), rng.uniform(-math.pi, math.pi, 50))
        assert log_sub(a, complex(-math.inf, 0.0)).tobytes() == a.tobytes()

    def test_matches_complex_addition_over_wide_range(self):
        rng = np.random.default_rng(12)
        for _ in range(500):
            x = cmath.rect(
                math.exp(rng.uniform(-690, 690)), rng.uniform(-math.pi, math.pi)
            )
            y = cmath.rect(
                math.exp(rng.uniform(-690, 690)), rng.uniform(-math.pi, math.pi)
            )
            got = exp(log_sub(cmath.log(x), cmath.log(-y)))
            assert abs(got - (x + y)) <= 1e-13 * (abs(x) + abs(y))
