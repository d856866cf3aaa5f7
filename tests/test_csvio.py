"""Tests for the deterministic text helpers."""
import math
from itertools import repeat

import numpy as np
import pytest

from expgrowth.csvio import _CHUNK, fmt, row_blocks


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


@pytest.mark.parametrize("n", [0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1,
                               2 * _CHUNK + 3])
def test_row_blocks_match_one_format_per_row(n):
    rng = np.random.default_rng(n)
    xs = rng.normal(size=n)
    ys = rng.normal(size=n).tolist()
    label = "a%sb%%d"  # text with "%" goes in as a column
    row = "%d,%s,%.17g,%.17g\n"
    blocks = list(row_blocks(row, range(n), repeat(label), xs, ys))
    assert all(b.count("\n") <= _CHUNK for b in blocks)
    assert len(blocks) == -(-n // _CHUNK)
    assert "".join(blocks) == "".join(
        row % (j, label, x, y) for j, x, y in zip(range(n), xs.tolist(), ys))
    # the rows stop at the shortest column, array or not
    assert ("".join(row_blocks("%d,%.17g\n", range(n + 5), xs))
            == "".join(row_blocks("%d,%.17g\n", range(n), xs.tolist()))
            == "".join(row_blocks("%d,%.17g\n", range(n), xs[:n + 5])))
    assert ("".join(row_blocks("%.17g,%.17g\n", xs[:n // 2], ys))
            == "".join("%.17g,%.17g\n" % xy
                       for xy in zip(xs[:n // 2].tolist(), ys)))
