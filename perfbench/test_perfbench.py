"""Smoke test of the benchmark itself, at tiny input sizes.

Run from the repository root::

    python -m pytest -q perfbench/test_perfbench.py

Every workload must run in both modes, report exactly the metrics that
``BENCHMARK.json`` declares (with their units), and fail no operation.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_declared_metrics(workload: str, trace: int) -> None:
    completed = _run(ROOT, workload, trace)
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in declared
    }
    if trace:
        assert result["metrics"]["failed_frac"]["value"] == 0.0
        shares = [entry["value"] for name, entry in result["metrics"].items()
                  if name.startswith("share.")]
        assert sum(shares) == pytest.approx(1.0, abs=0.01)  # medians of shares
    else:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_fails_without_program_sources(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    completed = _run(tmp_path, WORKLOADS[0], 0)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
