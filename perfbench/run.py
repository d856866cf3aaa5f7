"""expgrowth benchmark: closed-loop workloads run in fresh worker processes.

    python3 perfbench/run.py --workload {growth_scan,contour_solve,reproduce} \
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it imports expgrowth from `src/` there.
One caller runs rounds back to back, each in a fresh worker process
(worker.py), and starts a new round while fewer than S seconds have passed.
A round's inputs come from (seed, round index) only.  Every operation is
checked; failures are counted, never fatal.

With --trace 0 the last stdout line carries the end-to-end metrics of
BENCHMARK.json; with --trace 1 each round runs twice, untraced and traced
with the same inputs (alternating which goes first), and the line carries
the per-layer metrics plus the tracing overhead measured between the two.
Earlier lines record the environment and any failed operation.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

WORKLOADS = ("growth_scan", "contour_solve", "reproduce")

#: a round takes a few seconds; one that runs this long is killed and
#: counted as failed, which keeps a run well inside 180 s
ROUND_TIMEOUT_S = 120


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_round(args, round_index, traced, work, traces, env):
    """One worker process; returns its JSON result, or None if it failed."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--round", str(round_index),
           "--work", str(work), "--traces", str(traces)]
    if traced:
        cmd.append("--trace")
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd + ["--spawned", repr(spawned)], cwd=str(ROOT), env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        print("round %d: killed after %ds" % (round_index, ROUND_TIMEOUT_S))
        return None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print("round %d: worker exit %d: %s" % (round_index, proc.returncode, err[-500:]))
        return None
    return json.loads(lines[-1])


def _p75(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def _op_counts(results, crashed):
    ops = [op for res in results for op in res["ops"]]
    failed = [op for op in ops if not op["ok"]]
    for op in failed[:20]:
        print("FAILED %s" % op["detail"])
    attempted = len(ops) + crashed
    return attempted, len(failed) + crashed, not failed and not crashed


def identity_defect_frac(results):
    """Share of identities beyond |z| = 6 that miss their bound, printed with the worst.

    This is the defect of ROADMAP item 3; 0 on workloads without such points.
    """
    from worker import BOUND, KNOWN_DEFECT_MODULUS

    resids = [op["defect"] for res in results for op in res["ops"]
              if op["defect"] is not None]
    if not resids:
        return 0.0
    misses = sum(1 for r in resids if r > BOUND)
    print("known defect (ROADMAP item 3): %d of %d identities at |z| > %g miss "
          "%g*(1+|f|), worst residual %.3g"
          % (misses, len(resids), KNOWN_DEFECT_MODULUS, BOUND, max(resids)))
    return misses / len(resids)


def end_to_end(results, failed, attempted):
    ops = [op for res in results for op in res["ops"]]
    latencies = [1e3 * op["s"] for op in ops if op["primary"]]
    return {
        "setup_s": statistics.median(res["setup_s"] for res in results),
        "points_per_s": sum(op["points"] for op in ops) / sum(op["s"] for op in ops),
        "op_p50_ms": statistics.median(latencies),
        "op_p75_ms": _p75(latencies),
        "peak_rss_mb": statistics.median(res["peak_rss_mb"] for res in results),
        "ok_frac": 1.0 - failed / attempted,
    }


def per_layer(rounds):
    """Per-layer metrics from the traced rounds, overhead against the untraced."""
    from tracer import layer_metrics, merge

    plain = [res for _, traced, res in rounds if res and not traced]
    traced = [res for _, traced, res in rounds if res and traced and res["trace"]]
    if not plain or not traced:
        return None
    ops = sum(1 for t in traced for op in t["ops"] if op["primary"])
    metrics = layer_metrics(merge(t["trace"] for t in traced), ops)
    per_op = [sum(op["s"] for res in group for op in res["ops"]) / len(group)
              for group in (traced, plain)]
    metrics["contours.identity_defect_frac"] = identity_defect_frac(traced)
    metrics["trace.overhead_frac"] = per_op[0] / per_op[1] - 1.0
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "expgrowth" / "__init__.py").is_file():
        print("error: %s has no expgrowth package to benchmark" % SRC, file=sys.stderr)
        return 2

    nproc = _nproc()
    threads = str(nproc)
    env = dict(os.environ, PYTHONPATH=str(SRC), OMP_NUM_THREADS=threads,
               OPENBLAS_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    environment = {
        "nproc": nproc, "cpu": _cpu_model(), "python": platform.python_version(),
        "git_commit": _git_commit(), "blas_omp_threads": nproc,
        "loadavg_start": list(os.getloadavg()),
    }
    work = STATE / "work"
    traces = STATE / "traces" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    if args.trace:
        shutil.rmtree(traces, ignore_errors=True)
        traces.mkdir(parents=True)

    rounds = []
    deadline = time.monotonic() + args.seconds
    r = 0
    try:
        while time.monotonic() < deadline:
            order = ((False, True) if r % 2 == 0 else (True, False)) if args.trace else (False,)
            for traced in order:
                rounds.append((r, traced, run_round(args, r, traced, work, traces, env)))
            r += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    results = [res for _, _, res in rounds if res]
    crashed = sum(1 for _, _, res in rounds if res is None)
    if not results:
        print("error: no round completed", file=sys.stderr)
        return 1
    environment["numpy"] = results[0]["numpy"]
    environment["loadavg_end"] = list(os.getloadavg())
    print("env " + json.dumps(environment))
    attempted, failed, correct = _op_counts(results, crashed)
    print("workload %s seed %d: %d workers, %d ops, %d failed (%.4f)"
          % (args.workload, args.seed, len(rounds), attempted, failed, failed / attempted))
    wall = [1e3 * op["wall_s"] for res in results for op in res["ops"] if op["primary"]]
    print("wall clock, not rescaled: op p50 %.6g ms, setup %.4g s; probe loop %.4g ms"
          % (statistics.median(wall), statistics.median(r["wall_setup_s"] for r in results),
             1e3 * statistics.median(r["probe_s"] for r in results)))

    if args.trace:
        values = per_layer(rounds)
        if values is None:
            print("error: no traced round completed", file=sys.stderr)
            return 1
    else:
        identity_defect_frac(results)
        values = end_to_end(results, failed, attempted)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, value in values.items():
        print("%-34s %14.6g %s" % (name, value, units[name]))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
