"""tools/contour_bits.py, the contour-path digest that checks bit parity
between checkouts."""
import re
import subprocess
import sys
from pathlib import Path

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
