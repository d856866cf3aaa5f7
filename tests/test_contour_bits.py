"""tools/contour_bits.py, the contour-path digest that checks bit parity
between checkouts."""
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_two_runs_print_the_same_digest():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "contour_bits.py"), str(ROOT),
         str(ROOT)], capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    assert len(lines) == 2
    digests = [re.fullmatch(r"([0-9a-f]{64})  (.+)", line) for line in lines]
    assert all(d and d.group(2) == str(ROOT) for d in digests)
    assert digests[0].group(1) == digests[1].group(1)


def test_a_table_it_cannot_read_stops_it(monkeypatch):
    # a level table of another layout (here a 2-tuple) ends the run with a
    # message and a non-zero exit instead of hashing the unpacking error
    from expgrowth import contours

    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import contour_bits

    monkeypatch.setattr(contours, "_level_table",
                        lambda g_eval, seg, levels: (None, None))
    with pytest.raises(SystemExit) as exc:
        contour_bits.digest()
    assert "cannot read the level table" in str(exc.value)
    assert "not enough values to unpack" in str(exc.value)
