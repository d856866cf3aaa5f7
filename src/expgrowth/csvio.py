"""Deterministic text output helpers (17 significant digits, lowercase inf/nan)."""
from __future__ import annotations

from itertools import chain, count, islice
from pathlib import Path

import numpy as np

#: rows per "%" call of row_blocks: enough that the per-call cost vanishes,
#: few enough that a block's argument tuple and text stay small
_CHUNK = 1024


def fmt(x: float) -> str:
    """Format a float with 17 significant digits; inf, -inf and every nan
    come out lowercase, as the "%.17g" rows of the bulk writers give them."""
    return format(x, ".17g")


def row_blocks(row: str, *columns):
    """Yield the text of the rows row % (c0[i], c1[i], ...), one string per
    block of at most _CHUNK rows, formatted by a single "%" each.

    row carries one conversion per column and its own line end.  Columns
    are 1-D numpy arrays, turned into Python floats one block at a time, or
    other iterables (lists, ranges, itertools.repeat); the rows stop at the
    shortest.  Text that may hold "%" goes in as a column, never into row.
    """
    width = len(columns)
    sources = [c if isinstance(c, np.ndarray) else iter(c) for c in columns]
    for i in count(0, _CHUNK):
        block = tuple(chain.from_iterable(zip(*[
            c[i:i + _CHUNK].tolist() if isinstance(c, np.ndarray)
            else islice(c, _CHUNK) for c in sources])))
        if not block:
            return
        yield (row * (len(block) // width)) % block


def write_rows(path, header, rows) -> None:
    """Write pre-formatted string rows as CSV with a trailing newline."""
    lines = [",".join(header)]
    lines.extend(",".join(r) for r in rows)
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")
