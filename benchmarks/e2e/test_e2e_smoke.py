"""Smoke test of the repo benchmark at ``--quick`` scale (about 1 % size).

Run it with ``PYTHONPATH=src python -m pytest benchmarks/e2e`` — the
tier-1 suite (``testpaths = ["tests"]``) does not collect it.  Every
workload runs untraced and traced in a fresh process, as the driver
runs it, and must emit exactly the metrics BENCHMARK.json declares.
"""

import json
import pathlib
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def run(workload: str, trace: int, tmp_path) -> dict:
    completed = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", "7", "--trace", str(trace), "--quick",
            "--out", str(tmp_path / "smoke.json"),
        ],
        capture_output=True, text=True, timeout=60, check=False,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_the_declared_end_to_end_metrics(workload, tmp_path):
    result = run(workload, 0, tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_the_declared_per_layer_metrics(workload, tmp_path):
    result = run(workload, 1, tmp_path)
    assert result["correct"]
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared


def test_pytest_does_not_collect_the_runner_modules():
    for path in HERE.glob("*.py"):
        if path.name != "test_e2e_smoke.py":
            assert not path.name.startswith(("bench_", "test_")), path.name
