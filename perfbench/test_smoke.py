"""Smoke test of the benchmark harness (not part of the tier-1 suite).

    python3 -m pytest perfbench/test_smoke.py -q

Runs one short round of each workload, checks the result line against
BENCHMARK.json, and checks that the harness refuses a directory without
the package.  Takes about half a minute.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd, workload, trace):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0.1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=str(cwd), capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload,trace",
                         [(w, 0) for w in WORKLOADS] + [("reproduce", 1)])
def test_result_line_matches_spec(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        # one reproduce run materializes the k_max = 14 lattice exactly once
        assert metrics["lattice.zeros_materialized"] == 2 ** 15 - 2
        assert metrics["cli.self_s"] > 0 and metrics["csvio.bytes"] > 0


def test_refuses_checkout_without_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run(tmp_path, "growth_scan", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
