"""Schema of the committed BENCH_<workload>.json files (tools/bench_record.py).

Their numbers depend on the host that recorded them, so only their shape
and their inner consistency are checked, never their values.
"""
import json
import math
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = {m["name"] for m in SPEC["end_to_end"]}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_bench_file_schema(workload):
    bench = json.loads((ROOT / ("BENCH_%s.json" % workload)).read_text())
    assert bench["workload"] == workload
    assert bench["seconds"] == SPEC["run_seconds"]
    sides = bench["sides"]
    assert len({side["label"] for side in sides}) == len(sides) >= 1
    for side in sides:
        assert len(side["commit"]) == 40 and int(side["commit"], 16) >= 0
        assert side["host"] == sides[0]["host"]  # one host for every side
        assert set(side["host"]) == {"nproc", "cpu", "python", "numpy"}
        assert isinstance(side["host"]["nproc"], int) and side["host"]["nproc"] >= 1
        runs = side["runs"]
        assert len(runs) >= 5
        assert len({run["seed"] for run in runs}) == len(runs)
        for run in runs:
            assert set(run["values"]) == METRICS
            assert all(math.isfinite(v) for v in run["values"].values())
        assert side["probe_ms_median"] == statistics.median(
            run["probe_ms"] for run in runs)
        assert set(side["metrics"]) == METRICS
        for name, summary in side["metrics"].items():
            q1, median, q3 = statistics.quantiles(
                [run["values"][name] for run in runs], n=4, method="inclusive")
            assert summary == {"median": median, "q1": q1, "q3": q3}
