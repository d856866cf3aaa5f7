"""Record paired benchmark runs of one or more checkouts as BENCH_<workload>.json.

    python3 tools/bench_record.py --side parent=../parent --side change=. \
        [--workload reproduce ...]

Each side is a git checkout holding perfbench/run.py.  For every workload
and seed 1..10 the sides run `perfbench/run.py --trace 0` for the
run_seconds of BENCHMARK.json one after the other, the first side
alternating from seed to seed, so that the runs pair up; the files go to
the root of this repository.  A file holds, per side, the commit and the
host (nproc, CPU, Python, numpy) from the runs' `env` lines, the median
probe loop from their `wall clock` lines, the median and quartiles of every
end-to-end metric, and every run's values.  A run that fails, reports
"correct": false or names no git commit stops the recording.

After each file, one line per end-to-end metric gives the gain rule of the
last side against the first: each side's median [q1-q3], the pairs (runs of
one seed) the last side won by the metric's `better` and the ties, and
whether the gap between the medians, in the better direction, exceeds the
first side's quartile spread q3 - q1.  The next line gives the
no-regression verdict on that metric: how much worse the last side's median
is than the first side's, as a fraction of the first side's median, against
the metric's bound, "within bound" or "worse than bound"; or "unresolved"
when the first side's spread (q3 - q1) / median exceeds the bound, unless
every run of the last side beats every run of the first.
"""
from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROBE = re.compile(r"probe loop ([0-9.eE+-]+) ms")
COMMIT = re.compile(r"[0-9a-f]{40}")
HOST = ("nproc", "cpu", "python", "numpy")
SEEDS = 10  # alternating pairs a gain is judged on


def run_once(checkout, workload, seed, seconds):
    """One perfbench run: its env line, probe median (ms) and metrics."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"],
        cwd=str(checkout), capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("%s %s seed %d: exit %d\n%s"
                         % (checkout, workload, seed, proc.returncode, proc.stderr))
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit("%s %s seed %d: not correct" % (checkout, workload, seed))
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    if not COMMIT.fullmatch(env["git_commit"] or ""):
        raise SystemExit("%s: no git commit (%r); record from a git checkout"
                         % (checkout, env["git_commit"]))
    probe = float(PROBE.search(next(line for line in lines
                                    if line.startswith("wall clock"))).group(1))
    values = {name: m["value"] for name, m in result["metrics"].items()}
    return env, probe, values


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def gain(better, first, last):
    """The gain rule for one metric, from the values of two sides' runs
    paired by position: each side's quartiles, the pairs the last side won
    (lower or higher values, as better says) and the ties, the gap between
    the medians in the better direction, and whether it exceeds the first
    side's quartile spread."""
    if better not in ("lower", "higher") or len(first) != len(last):
        raise ValueError("need better lower or higher and paired runs")
    lower = better == "lower"
    a, b = quartiles(first), quartiles(last)
    gap = a["median"] - b["median"] if lower else b["median"] - a["median"]
    return {"first": a, "last": b, "pairs": len(first),
            "won": sum(x > y if lower else x < y for x, y in zip(first, last)),
            "ties": sum(x == y for x, y in zip(first, last)),
            "gap": gap, "clears_spread": gap > a["q3"] - a["q1"]}


def gain_line(name, labels, rule):
    """gain()'s verdict on one metric as one line of text."""
    first, last = labels
    return ("%s: %s %.6g [%.6g-%.6g] -> %s %.6g [%.6g-%.6g]; %s won %d of %d "
            "pairs, %d ties; median gap %.4g %s %s's spread %.4g"
            % (name, first, rule["first"]["median"], rule["first"]["q1"],
               rule["first"]["q3"], last, rule["last"]["median"],
               rule["last"]["q1"], rule["last"]["q3"], last, rule["won"],
               rule["pairs"], rule["ties"], rule["gap"],
               ">" if rule["clears_spread"] else "<=", first,
               rule["first"]["q3"] - rule["first"]["q1"]))


def regression(better, bound, first, last):
    """The no-regression verdict on one metric from two sides' paired runs:
    the change of the last side's median against the first side's, in the
    worse direction, and the first side's spread q3 - q1, both as fractions
    of the first side's median (of 1 when that is 0), and the verdict
    against bound."""
    rule = gain(better, first, last)
    a, b = rule["first"], rule["last"]
    scale = abs(a["median"]) or 1.0
    worse = (b["median"] - a["median"] if better == "lower"
             else a["median"] - b["median"]) / scale
    spread = (a["q3"] - a["q1"]) / scale
    beats = (max(last) < min(first) if better == "lower"
             else min(last) > max(first))
    if spread > bound and not beats:
        verdict = "unresolved"
    else:
        verdict = "worse than bound" if worse > bound else "within bound"
    return {"worse": worse, "spread": spread, "bound": bound,
            "beats": beats, "verdict": verdict}


def regression_line(name, labels, rule):
    """regression()'s verdict on one metric as one line of text."""
    first, last = labels
    return ("%s: %s %.2f%% %s than %s (bound %.0f%%, %s's spread "
            "%.2f%%%s): %s"
            % (name, last, 100.0 * abs(rule["worse"]),
               "better" if rule["worse"] < 0 else "worse", first,
               100.0 * rule["bound"], first, 100.0 * rule["spread"],
               ", every run beats every %s run" % first if rule["beats"]
               else "", rule["verdict"]))


def summarize(label, runs):
    """A side of a BENCH file from its runs [(seed, env, probe, values)]."""
    first = runs[0][1]
    if any(env[key] != first[key] for _, env, _, _ in runs
           for key in ("git_commit",) + HOST):
        raise SystemExit("%s: commit or host changed between runs" % label)
    names = list(runs[0][3])
    return {
        "label": label,
        "commit": first["git_commit"],
        "host": {key: first[key] for key in HOST},
        "probe_ms_median": statistics.median(probe for _, _, probe, _ in runs),
        "metrics": {name: quartiles([values[name] for _, _, _, values in runs])
                    for name in names},
        "runs": [{"seed": seed, "probe_ms": probe, "values": values}
                 for seed, _, probe, values in runs],
    }


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--side", action="append", required=True,
                        metavar="LABEL=CHECKOUT")
    parser.add_argument("--workload", action="append", choices=workloads)
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]
    sides = [tuple(side.split("=", 1)) for side in args.side]
    if any(len(side) != 2 for side in sides):
        parser.error("--side takes LABEL=CHECKOUT")
    for workload in args.workload or workloads:
        runs = {label: [] for label, _ in sides}
        for seed in range(1, SEEDS + 1):
            order = sides if seed % 2 else sides[::-1]
            for label, checkout in order:
                env, probe, values = run_once(checkout, workload, seed, seconds)
                runs[label].append((seed, env, probe, values))
                print("%s %s seed %d: op_p50_ms %.4g"
                      % (workload, label, seed, values["op_p50_ms"]), flush=True)
        path = ROOT / ("BENCH_%s.json" % workload)
        path.write_text(json.dumps({
            "workload": workload, "seconds": seconds,
            "sides": [summarize(label, runs[label]) for label, _ in sides],
        }, indent=2) + "\n")
        print("wrote %s" % path)
        if len(sides) > 1:
            labels = sides[0][0], sides[-1][0]
            for metric in spec["end_to_end"]:
                name = metric["name"]
                first, last = ([values[name] for _, _, _, values in runs[label]]
                               for label in labels)
                print(gain_line(name, labels, gain(metric["better"], first,
                                                   last)))
                print(regression_line(name, labels, regression(
                    metric["better"], metric["bound"], first, last)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
