"""One benchmark round, run in a fresh process by run.py.

A round is a fixed list of operations generated from (seed, round index),
run with cold caches.  The worker imports expgrowth from the checkout's
`src/`, builds the round's inputs, notes the moment it is ready (the end of
set-up), then runs the operations one after another and checks every result
against the bounds the repository states for it.  It prints one JSON object
as its last stdout line.

    python3 perfbench/worker.py --workload W --seed N --round R --spawned T \
        --work DIR --traces DIR [--trace]

With --trace the worker installs the span tracer after set-up and prints
the tracer's summary with the result.  Every time it reports is rescaled to
the reference speed of speed.py.
"""
from __future__ import annotations

import argparse
import cmath
import contextlib
import io
import json
import math
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from speed import SpeedProbe, rescale

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: 4/e and 2 ln 2, the limsup and the window minimum of log M(r)/r
LIMSUP = 4.0 / math.e
WINDOW_MIN = 2.0 * math.log(2.0)

#: growth_scan: each ray spans RAY_WINDOWS dyadic windows from k_lo; the
#: three k_lo values change the closed-form cutoff and the work per point
RAY_K_LO = (8, 16, 24)
RAY_CYCLES = 2
RAY_WINDOWS = 6
SAMPLES_PER_WINDOW = 256
MAX_MODULUS_ANGLES = 64
MAX_MODULUS_LOG2_RANGE = (8.0, 26.0)

#: contour_solve: 50 inversions, 50 splitting identities and the five
#: |z| = 8 points where ROADMAP item 3 documents the identity defect
CONTOUR_PAIRS = 50
FIXED_POINTS = (8.0 + 0j, -8.0 + 0j, 8j, -8j, 8.0 * cmath.exp(0.25j * math.pi))
INVERSION_RADII = (3.0, 4.0, 5.0)
IDENTITY_TOL = 1e-13
#: criteria 5 and 6: |result - f| <= BOUND * (1 + |f|)
BOUND = 1e-7
#: beyond this modulus the identity misses BOUND: the documented defect of
#: ROADMAP item 3 (reproduce verifies the identity only out to |z| = 6).
#: There an identity must return a finite value; a miss of BOUND is recorded
#: as the defect, reported on its own, and is not a failed operation
KNOWN_DEFECT_MODULUS = 6.0


def _import_library():
    sys.path.insert(0, str(SRC))
    import numpy
    import expgrowth  # noqa: F401  (the package import is part of set-up)
    from expgrowth import cli, contours, diagnostics, lattice, product

    return numpy, contours, diagnostics, lattice, product, cli


def _disc(rng, r_max):
    r = rng.uniform(0.0, r_max)
    phi = rng.uniform(-math.pi, math.pi)
    return complex(r * math.cos(phi), r * math.sin(phi))


def _op(kind, primary, span, points, problem=None, defect=None):
    """One operation's record; span is its (start, end) on perf_counter.

    `defect` is the residual of an identity beyond KNOWN_DEFECT_MODULUS,
    None for every other operation.
    """
    return {"kind": kind, "primary": primary, "span": span, "points": points,
            "ok": problem is None, "defect": defect, "detail": problem}


class GrowthScan:
    """Rays of log|f|/r with window statistics and a verdict, plus max_modulus."""

    def __init__(self, lib, seed, round_index):
        np, _, self.diagnostics, lattice, self.product, _ = lib
        rng = np.random.default_rng([seed, round_index])
        self.ev = self.product.ProductEvaluator(lattice.ZeroLattice(k_max=14))
        # one ray per round runs along theta = 0 through the lattice zeros;
        # its k_lo moves on from round to round
        zero_ray = round_index % len(RAY_K_LO)
        self.ops = []
        for i, k_lo in enumerate(RAY_K_LO * RAY_CYCLES):
            theta = 0.0 if i == zero_ray else float(rng.uniform(-math.pi, math.pi))
            self.ops.append(("ray", theta, k_lo))
            self.ops.append(("max_modulus", float(2.0 ** rng.uniform(*MAX_MODULUS_LOG2_RANGE))))

    def run(self, op):
        if op[0] == "ray":
            return self._ray(*op[1:])
        return self._max_modulus(op[1])

    def _ray(self, theta, k_lo):
        t0 = time.perf_counter()
        radii = self.product.dyadic_radii(k_lo, k_lo + RAY_WINDOWS, SAMPLES_PER_WINDOW)
        prof = self.ev.profile_on(theta, radii)
        stats = self.diagnostics.window_stats(prof, 0.1)
        verdict = self.diagnostics.classify(prof, 0.1, 0.02)
        t1 = time.perf_counter()
        values = prof.values
        finite = values[values > -math.inf]
        zeros = values.size - finite.size
        # at theta = 0 every dyadic radius of the grid is a lattice zero
        want_zeros = RAY_WINDOWS + 1 if theta == 0.0 else 0
        problem = None
        if verdict.verdict != "irregular":
            problem = "verdict %s" % verdict.verdict
        elif [s.k for s in stats] != list(range(k_lo, k_lo + RAY_WINDOWS)):
            problem = "windows %s" % [s.k for s in stats]
        elif min(s.width for s in stats) < 0.04:
            problem = "window width %.4g < 0.04" % min(s.width for s in stats)
        elif not finite.max() <= LIMSUP + 0.01:
            problem = "log|f|/r = %.6g above 4/e + 0.01" % finite.max()
        elif zeros != want_zeros:
            problem = "%d lattice zeros on the ray, want %d" % (zeros, want_zeros)
        if problem:
            problem += " (theta=%r, k_lo=%d)" % (theta, k_lo)
        return _op("ray", True, (t0, t1), int(radii.size), problem)

    def _max_modulus(self, r):
        t0 = time.perf_counter()
        v = self.ev.max_modulus(r, MAX_MODULUS_ANGLES)
        t1 = time.perf_counter()
        problem = None
        # criterion 9: the sup stays within 0.01 of 4/e, and the window
        # minima from k = 11 on within 0.01 of 2 ln 2
        if not v <= LIMSUP + 0.01:
            problem = "log M(r)/r = %r above 4/e + 0.01 at r = %r" % (v, r)
        elif r >= 2.0 ** 11 and not v >= WINDOW_MIN - 0.01:
            problem = "log M(r)/r = %r below 2 ln 2 - 0.01 at r = %r" % (v, r)
        return _op("max_modulus", False, (t0, t1), MAX_MODULUS_ANGLES, problem)


class ContourSolve:
    """Circle inversions and splitting identities, caches starting cold."""

    def __init__(self, lib, seed, round_index):
        np, self.contours, _, lattice, product, _ = lib
        rng = np.random.default_rng([seed, round_index])
        self.ev = product.ProductEvaluator(lattice.ZeroLattice(k_max=14))
        self.spec = self.contours.QuadratureSpec(target_rel_tol=IDENTITY_TOL)
        ops = [("identity", z) for z in FIXED_POINTS]
        for _ in range(CONTOUR_PAIRS):
            ops.append(("inversion", _disc(rng, 4.0),
                        float(rng.choice(INVERSION_RADII))))
            ops.append(("identity", _disc(rng, 8.0)))
        self.ops = [ops[i] for i in rng.permutation(len(ops))]

    def run(self, op):
        kind, z = op[0], op[1]
        t0 = time.perf_counter()
        fv = self.ev.eval_log_f(z).to_complex()
        if kind == "inversion":
            got = self.contours.borel_inversion(z, radius=op[2])
        else:
            got = self.contours.F_eval(z, self.spec) + self.contours.u_eval(z, self.spec)
        t1 = time.perf_counter()
        resid = abs(got - fv) / (1.0 + abs(fv))
        if kind == "identity" and abs(z) > KNOWN_DEFECT_MODULUS:
            problem = None if cmath.isfinite(got) else "identity %r at z=%r" % (got, z)
            return _op(kind, True, (t0, t1), 1, problem, defect=resid)
        if resid <= BOUND:
            return _op(kind, True, (t0, t1), 1)
        return _op(kind, True, (t0, t1), 1,
                   "%s residual %.3g > %g at z=%r" % (kind, resid, BOUND, z))


class Reproduce:
    """`expgrowth reproduce` in the fresh worker, artifacts compared byte for byte.

    The worker calls the console script's entry point, `expgrowth.cli.main`,
    so the operation is what `expgrowth reproduce` does after its imports,
    which fall in set-up.  The first run of a benchmark invocation leaves
    its artifacts as the reference for every later one.
    """

    def __init__(self, lib, round_index, work):
        self.cli = lib[-1]
        self.out = work / ("r%d" % round_index)
        self.reference = work / "reference"
        self.ops = [("reproduce",)]

    def run(self, op):
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.cli.main(["--out-dir", str(self.out), "reproduce"])
        t1 = time.perf_counter()
        report = self.out / "report.md"
        problem = None
        if code != 0:
            problem = "reproduce exit code %d" % code
        elif not report.is_file() or "Overall: PASS" not in report.read_text():
            problem = "report.md does not say Overall: PASS"
        elif self.reference.exists():
            problem = _artifact_difference(self.reference, self.out)
        else:
            self.out.rename(self.reference)
        shutil.rmtree(self.out, ignore_errors=True)
        return _op("reproduce", True, (t0, t1), 1, problem)


def _artifact_difference(ref, out):
    names = sorted(p.name for p in ref.iterdir())
    got = sorted(p.name for p in out.iterdir())
    if names != got:
        return "artifact names differ: %s vs %s" % (names, got)
    for name in names:
        if (ref / name).read_bytes() != (out / name).read_bytes():
            return "%s differs from the first run's bytes" % name
    return None


def _run(load, op):
    t0 = time.perf_counter()
    try:
        return load.run(op)
    except Exception as exc:  # a failed operation is counted, not fatal
        return _op(op[0], True, (t0, time.perf_counter()), 0,
                   "%r raised %r" % (op, exc))


def run_round(args):
    lib = _import_library()
    if args.workload == "growth_scan":
        load = GrowthScan(lib, args.seed, args.round)
    elif args.workload == "contour_solve":
        load = ContourSolve(lib, args.seed, args.round)
    else:
        load = Reproduce(lib, args.round, Path(args.work))
    ready = time.monotonic()

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer().install()
    with SpeedProbe() as probe:
        ops = [_run(load, op) for op in load.ops]
    for op in ops:
        t0, t1 = op.pop("span")
        op["wall_s"] = t1 - t0
        op["s"] = probe.normalize(t0, t1)
    probe_s = statistics.median(d for _, d in probe.samples)

    trace = None
    if tracer is not None:
        tracer.uninstall()
        tracer.save_spans(Path(args.traces) / ("r%d.npz" % args.round))
        trace = tracer.summary(scale=rescale(1.0, probe_s))
    return {
        "setup_s": rescale(ready - args.spawned, probe_s),
        "wall_setup_s": ready - args.spawned,
        "probe_s": probe_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": lib[0].__version__,
        "ops": ops,
        "trace": trace,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("growth_scan", "contour_solve", "reproduce"))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--round", type=int)
    parser.add_argument("--spawned", type=float,
                        help="time.monotonic() of the parent just before spawning")
    parser.add_argument("--work")
    parser.add_argument("--traces")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    print(json.dumps(run_round(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
