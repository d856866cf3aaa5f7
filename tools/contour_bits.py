"""One sha256 over the bits of the contour path, for bit parity between checkouts.

    python3 tools/contour_bits.py [CHECKOUT ...]

For each checkout (this repository when none is given) a fresh interpreter
imports expgrowth from CHECKOUT/src and hashes, in a fixed order:
  - a seeded round like the benchmark's contour_solve: the five |z| = 8
    points and 50 pairs of an inversion (|z| < 4, radius 3, 4 or 5) and a
    splitting identity (|z| < 8, tolerance 1e-13);
  - borel_inversion at 120 seeded points of |z| < 6 on each circle of
    radius 2.5, 3, 4, 5 and 8;
  - u_eval and F_eval at 200 seeded points of |z| < 12, and these two
    and borel_inversion at the edge points 8, +-8j, 16, 40j, -30, 100 and
    -200 (overflow and the cancellation cap among them);
  - the 12 inversion points and the 10 identity points of `expgrowth
    reproduce` (random.Random seeds 55 and 77);
  - every level that the level tables built by the calls above hold, as
    the sorted set of the digests of each level's nodes, Dekker heads,
    weights and scale, so neither the order of building, the table cache's
    evictions nor the passes that group levels into tables count.
A value is hashed as its complex bytes; a call that raises, as the name of
the exception type.  A level table this tool cannot read (another layout)
stops it with a message and a non-zero exit, not a digest.  One line per
checkout, "<sha256>  <checkout>", so two checkouts hold the same
contour-path bits exactly when their digests agree.
"""
from __future__ import annotations

import cmath
import hashlib
import math
import random
import sys

from growth_bits import main

#: the benchmark's five |z| = 8 points
EIGHT = (8.0 + 0j, -8.0 + 0j, 8j, -8j, 8.0 * cmath.exp(0.25j * math.pi))
EDGE = (8.0, 8j, -8j, 16.0, 40j, -30.0, 100.0, -200.0)


def _disc(draw, r_max):
    """A point of the disc |z| < r_max from two uniform draws, as
    `expgrowth reproduce` samples its points."""
    r = draw(0.0, r_max)
    phi = draw(-math.pi, math.pi)
    return r * complex(math.cos(phi), math.sin(phi))


def digest():
    """The battery's sha256 with the expgrowth this interpreter imports."""
    import numpy as np

    from expgrowth import contours

    spec = contours.QuadratureSpec(target_rel_tol=1e-13)
    levels = set()
    build = contours._level_table

    def recorded(*key):
        table = build(*key)
        try:
            stack, weights, cuts = table
            for index, scale in cuts:
                sha = hashlib.sha256(repr(scale).encode())
                for a in (stack[0], stack[1], weights):
                    sha.update(a[..., index].tobytes())
                levels.add(sha.hexdigest())
        except Exception as exc:  # noqa: BLE001 - any layout but this one
            # SystemExit, which value() does not catch: a digest of the
            # error would only look like a result
            raise SystemExit("cannot read the level table of %r at levels "
                             "%r: %r" % (key[1], key[2], exc)) from None
        return table

    sha = hashlib.sha256()

    def value(fn, *args):
        try:
            sha.update(np.complex128(fn(*args)).tobytes())
        except Exception as exc:  # noqa: BLE001 - the type is the value
            sha.update(type(exc).__name__.encode())

    def identity(z):
        return contours.F_eval(z, spec) + contours.u_eval(z, spec)

    contours._level_table = recorded
    try:
        rng = np.random.default_rng(31)
        ops = [(identity, z) for z in EIGHT]
        for _ in range(50):
            radius = float(rng.choice((3.0, 4.0, 5.0)))
            ops.append((lambda z, r=radius: contours.borel_inversion(z, r),
                        _disc(rng.uniform, 4.0)))
            ops.append((identity, _disc(rng.uniform, 8.0)))
        for i in rng.permutation(len(ops)):
            value(*ops[i])
        for radius in (2.5, 3.0, 4.0, 5.0, 8.0):
            for _ in range(120):
                value(contours.borel_inversion, _disc(rng.uniform, 6.0),
                      radius)
        for z in [_disc(rng.uniform, 12.0) for _ in range(200)] + list(EDGE):
            value(contours.u_eval, complex(z))
            value(contours.F_eval, complex(z))
        for z in EDGE:
            value(contours.borel_inversion, z)
        draws = random.Random(55)
        for _ in range(12):
            value(contours.borel_inversion, _disc(draws.uniform, 4.0))
        draws = random.Random(77)
        for _ in range(10):
            value(identity, _disc(draws.uniform, 6.0))
    finally:
        contours._level_table = build
    for level in sorted(levels):
        sha.update(level.encode())
    return sha.hexdigest()


if __name__ == "__main__":
    sys.exit(main(digest=digest, script=__file__, doc=__doc__))
