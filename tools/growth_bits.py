"""One sha256 over the bits of the growth path, for bit parity between checkouts.

    python3 tools/growth_bits.py [CHECKOUT ...]

For each checkout (this repository when none is given) a fresh interpreter
imports expgrowth from CHECKOUT/src and hashes, in a fixed order, the bytes
of log_f, log_abs_f and profile_on on rays of 1537 points (dyadic_radii
from k_lo to k_lo + 6, 256 per window) from k_lo in 1, 3, 8, 16, 24, 40
and 100 at 17 angles (0, +-pi/2, pi and 13 seeded ones), with every
WindowStats field of each profile's window_stats at q = 0.01, 0.1 and
0.25 and its classify verdict, of max_modulus(r, 64) at 50 seeded radii,
and of log_f and log_abs_f on 3000 seeded points with |z| from 2^-40 to
2^500, every 97th a lattice zero.  One line per checkout,
"<sha256>  <checkout>", so two checkouts hold the same growth-path bits
exactly when their digests agree.
"""
from __future__ import annotations

import argparse
import hashlib
import math
import os
import subprocess
import sys
from dataclasses import astuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
K_LO = (1, 3, 8, 16, 24, 40, 100)


def digest():
    """The battery's sha256 with the expgrowth this interpreter imports."""
    import numpy as np

    from expgrowth import ProductEvaluator, ZeroLattice, dyadic_radii
    from expgrowth.diagnostics import classify, window_stats

    ev = ProductEvaluator(ZeroLattice(k_max=14))
    rng = np.random.default_rng(30)
    sha = hashlib.sha256()
    thetas = [0.0, math.pi / 2, -math.pi / 2, math.pi,
              *rng.uniform(-math.pi, math.pi, 13)]
    for k_lo in K_LO:
        radii = dyadic_radii(k_lo, k_lo + 6, 256)
        for theta in thetas:
            zs = radii * complex(math.cos(theta), math.sin(theta))
            sha.update(ev.log_f(zs).tobytes())
            sha.update(ev.log_abs_f(zs).tobytes())
            profile = ev.profile_on(theta, radii)
            sha.update(profile.values.tobytes())
            for q in (0.01, 0.1, 0.25):
                stats = window_stats(profile, q)
                sha.update(np.array([astuple(s) for s in stats]).tobytes())
            verdict = classify(profile)
            sha.update(repr((verdict.verdict, verdict.limit_or_gap)).encode())
    for r in np.exp2(rng.uniform(-3.0, 500.0, 50)):
        sha.update(np.float64(ev.max_modulus(r, 64)).tobytes())
    zs = np.exp2(rng.uniform(-40.0, 500.0, 3000)) * np.exp(
        1j * rng.uniform(-math.pi, math.pi, 3000))
    zs[::97] = [ev.lattice.zero(k % 30 + 1, 7 * k + 3)
                for k in range(zs[::97].size)]
    sha.update(ev.log_f(zs).tobytes())
    sha.update(ev.log_abs_f(zs).tobytes())
    return sha.hexdigest()


def main(argv=None, digest=digest, script=__file__, doc=__doc__):
    """Print digest() per checkout, each from script run in a fresh
    interpreter; tools/contour_bits.py passes its own three."""
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("checkouts", nargs="*", default=[str(ROOT)],
                        metavar="CHECKOUT")
    parser.add_argument("--in-process", action="store_true",
                        help="hash with the expgrowth on sys.path; print "
                             "the digest and that package's directory")
    args = parser.parse_args(argv)
    if args.in_process:
        import expgrowth
        print(digest())
        print(Path(expgrowth.__file__).resolve().parent)
        return 0
    for checkout in args.checkouts:
        package = Path(checkout).resolve() / "src" / "expgrowth"
        proc = subprocess.run(
            [sys.executable, script, "--in-process"], capture_output=True,
            text=True, env=dict(os.environ, PYTHONPATH=str(package.parent)))
        if proc.returncode != 0:
            raise SystemExit("%s: exit %d\n%s"
                             % (checkout, proc.returncode, proc.stderr))
        sha, imported = proc.stdout.split()
        if Path(imported) != package:
            raise SystemExit("%s: imported expgrowth from %s"
                             % (checkout, imported))
        print("%s  %s" % (sha, checkout), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
