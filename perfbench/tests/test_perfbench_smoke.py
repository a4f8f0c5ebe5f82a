"""Each workload runs end to end at tiny size and prints the contracted result."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace, cwd=ROOT, root=ROOT):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "5", "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_smoke(workload):
    proc = _run(workload, 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == [
        (m["name"], m["unit"]) for m in SPEC["end_to_end"]]
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_every_layer():
    proc = _run("rigidity", 1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["solver.gauss_newton.calls"] > 0
    assert metrics["solver.family_distance.builds_per_call"] > 200
    assert metrics["reports.render_report.bytes"] > 0


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("sweeps", 0, cwd=tmp_path, root=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
