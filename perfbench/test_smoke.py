"""Smoke tests of the benchmark itself, at tiny input sizes.

Run with ``python3 -m pytest -q perfbench`` from the repository root.
Each workload runs with ``--smoke`` (a scaled-down inventory and a few
dozen requests), so the numbers measure nothing; what is checked is
that every declared metric is printed with its unit and that the
output checks pass.
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


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_and_the_checks_pass(workload, trace):
    done = _run(
        ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--smoke",
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == {metric["name"]: metric["unit"] for metric in declared}
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())
    assert not (ROOT / ".perfbench-work").exists()


def test_a_checkout_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = _run(
        tmp_path, "--workload", "ingest", "--seed", "1", "--seconds", "1",
        "--trace", "0",
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
