"""Tests for the deterministic text helpers."""
import math

import numpy as np
import pytest

from expgrowth.csvio import fmt


def branch_fmt(x):
    """The formatter with explicit non-finite branches that fmt replaced."""
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return f"{x:.17g}"


@pytest.mark.parametrize("x", [
    math.inf, -math.inf, math.nan, -math.nan, math.copysign(math.nan, -1.0),
    np.float64("nan"), -np.float64("nan"), np.float64("-inf"), np.float64(0.1),
    0.0, -0.0, 5e-324, 1.7976931348623157e308, 0.1, -2.5, 1e22, 1e-7,
])
def test_fmt_lowercase_and_17_digits(x):
    assert fmt(x) == branch_fmt(x) == "%.17g" % x
