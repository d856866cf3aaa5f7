"""Deterministic text output helpers (17 significant digits, lowercase inf/nan)."""
from __future__ import annotations

from pathlib import Path


def fmt(x: float) -> str:
    """Format a float with 17 significant digits; inf, -inf and every nan
    come out lowercase, as the "%.17g" rows of the bulk writers give them."""
    return format(x, ".17g")


def write_rows(path, header, rows) -> None:
    """Write pre-formatted string rows as CSV with a trailing newline."""
    lines = [",".join(header)]
    lines.extend(",".join(r) for r in rows)
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")
