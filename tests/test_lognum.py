import cmath
import math
import struct

import numpy as np
import pytest

from expgrowth.lognum import (
    LogComplex,
    lc_add,
    wrap_angle,
)


def to_ulps(x: float) -> int:
    n = struct.unpack("<q", struct.pack("<d", x))[0]
    return ~(n + 2**63) if n < 0 else n


def ulp_diff(a: float, b: float) -> int:
    return abs(to_ulps(a) - to_ulps(b))


def polar(log_mag: float, arg: float) -> LogComplex:
    return LogComplex(log_mag, wrap_angle(arg))


class TestLogComplexBasics:
    def test_zero_encoding(self):
        z = LogComplex.from_complex(0j)
        assert z.log_mag == -math.inf
        assert z.arg == 0.0
        assert z.to_complex() == 0j

    def test_round_trip_moderate_moduli(self):
        # 4-ulp round trip is attainable while |ln|w|| stays small; binary64
        # log/exp alone costs ~|ln|w||*eps in relative error at huge exponents.
        rng = np.random.default_rng(7)
        for _ in range(500):
            mag = math.exp(rng.uniform(-5, 5))
            ang = rng.uniform(-math.pi, math.pi)
            w = cmath.rect(mag, ang)
            back = LogComplex.from_complex(w).to_complex()
            assert abs(back - w) <= 4 * math.ulp(abs(w))

    def test_arg_normalized(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            v = polar(rng.uniform(-5, 5), rng.uniform(-50, 50))
            assert -math.pi < v.arg <= math.pi

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

    def test_wrap_angle_endpoints(self):
        assert wrap_angle(math.pi) == math.pi
        assert wrap_angle(-math.pi) == math.pi
        assert wrap_angle(3 * math.pi) == math.pi
        assert wrap_angle(0.0) == 0.0


class TestAdd:
    def test_three_plus_minus_one(self):
        out = lc_add(LogComplex(math.log(3), 0.0), LogComplex(0.0, math.pi))
        assert out.log_mag == pytest.approx(math.log(2), abs=1e-15)
        assert out.arg == 0.0

    def test_exact_cancellation(self):
        out = lc_add(LogComplex(0.0, 0.0), LogComplex(0.0, math.pi))
        assert out.is_zero

    def test_huge_operands(self):
        # oracle: mpmath 50 digits, 700 + log1p(exp(-10))
        out = lc_add(LogComplex(700.0, 0.0), LogComplex(690.0, 0.0))
        assert out.log_mag == pytest.approx(700.00004539889921686, abs=1e-11)
        assert out.arg == 0.0

    def test_symmetric_bitwise(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            a = polar(rng.uniform(-700, 700), rng.uniform(-9, 9))
            b = polar(rng.uniform(-700, 700), rng.uniform(-9, 9))
            assert lc_add(a, b) == lc_add(b, a)

    def test_matches_complex_addition_over_wide_range(self):
        rng = np.random.default_rng(12)
        for _ in range(500):
            x = cmath.rect(
                math.exp(rng.uniform(-690, 690)), rng.uniform(-math.pi, math.pi)
            )
            y = cmath.rect(
                math.exp(rng.uniform(-690, 690)), rng.uniform(-math.pi, math.pi)
            )
            got = lc_add(
                LogComplex.from_complex(x), LogComplex.from_complex(y)
            ).to_complex()
            assert abs(got - (x + y)) <= 1e-13 * (abs(x) + abs(y))
