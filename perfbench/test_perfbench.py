"""Smoke test of the benchmark itself: every workload once, every metric named.

    python3 -m pytest perfbench -q

Each workload makes two untraced runs and one traced run. The test checks
the output contract, that the output checks ran, and that the traced
pipeline stages cover at least 90% of the run; it has no timing thresholds.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
EXPECTED_CHECKS = {
    "readme-keep": {"subjects-present", "rerun-digest"},
    "large-edit": {"subjects-present", "rerun-digest"},
    "analyze-atlas": {"t0-descriptors", "rerun-digest"},
    "gradcheck": {"gradcheck-passed", "rerun-digest"},
}


def units(section):
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_workloads_match_benchmark_json():
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(EXPECTED_CHECKS)


@pytest.mark.parametrize("workload", sorted(EXPECTED_CHECKS))
def test_one_traced_run(workload):
    seed = 5
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert (result["attempted"], result["failed"]) == (3, 0)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == units("per_layer")
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if workload != "gradcheck":
        assert result["metrics"]["pipeline.coverage"]["value"] >= 0.9

    for name, unit in units("end_to_end").items():
        assert any(line.startswith(f"metric {name} = ") and f" {unit}" in line for line in lines)
    assert any(line.startswith("metric fail_ratio = 0 ") for line in lines)

    report = json.loads((ROOT / "perfbench" / "out" / f"{workload}-s{seed}-t1.json").read_text())
    assert set(report["end_to_end"]) == set(units("end_to_end"))
    assert set(report["checks"]) == EXPECTED_CHECKS[workload]
    assert report["env"]["seed"] == seed and report["env"]["why"]
