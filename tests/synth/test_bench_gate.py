"""The generator throughput gate of ``benchmarks/generator_gate.py``.

CI's bench-smoke job runs that script against the committed
``BENCH_generator.json``; these tests pin what the gate lets through.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from benchmarks.generator_gate import check_against_baseline, main, run_benchmark

BASELINE = Path(__file__).resolve().parents[2] / "BENCH_generator.json"


def _suite(speedup: float, records: int) -> dict:
    return {"records": records, "speedup_vectorized_vs_scalar": speedup}


def _report(seed=1, quick=(2.0, 8452), full=(1.8, 28835)) -> dict:
    report = {"seed": seed}
    if quick is not None:
        report["quick"] = _suite(*quick)
    if full is not None:
        report["full"] = _suite(*full)
    return report


class TestCheckAgainstBaseline:
    def test_equal_reports_pass(self):
        assert check_against_baseline(_report(), _report()) == []

    def test_ratio_below_the_floor_fails(self):
        baseline = _report(quick=(2.0, 8452))
        # The floor is 2.0 * (1 - 0.25) = 1.5.
        assert check_against_baseline(_report(quick=(1.5, 8452)), baseline) == []
        problems = check_against_baseline(_report(quick=(1.49, 8452)), baseline)
        assert len(problems) == 1
        assert problems[0].startswith("quick: speedup")
        assert "below 1.50x" in problems[0]

    def test_a_faster_run_passes(self):
        baseline = _report(quick=(2.0, 8452))
        assert check_against_baseline(_report(quick=(9.0, 8452)), baseline) == []

    def test_record_count_change_at_the_same_seed_fails(self):
        problems = check_against_baseline(
            _report(full=(1.8, 28836)), _report(full=(1.8, 28835))
        )
        assert len(problems) == 1
        assert "full: record count 28836 != baseline 28835" in problems[0]

    def test_another_seed_skips_the_record_count_check(self):
        current = _report(seed=2, quick=(2.0, 9000), full=(1.8, 30000))
        assert check_against_baseline(current, _report(seed=1)) == []

    def test_another_seed_still_checks_the_ratio(self):
        current = _report(seed=2, quick=(1.0, 9000))
        assert len(check_against_baseline(current, _report(seed=1))) == 1

    @pytest.mark.parametrize("side", ["current", "baseline"])
    def test_a_suite_missing_on_either_side_is_skipped(self, side):
        slow_full = _report(full=(0.1, 1))
        without_full = _report(full=None)
        current, baseline = (
            (without_full, slow_full) if side == "current"
            else (slow_full, without_full)
        )
        assert check_against_baseline(current, baseline) == []

    def test_negative_tolerance_raises(self):
        with pytest.raises(ValueError, match="tolerance"):
            check_against_baseline(_report(), _report(), tolerance=-0.01)

    def test_zero_tolerance_fails_any_drop(self):
        problems = check_against_baseline(
            _report(quick=(1.99, 8452)), _report(quick=(2.0, 8452)), tolerance=0.0
        )
        assert len(problems) == 1


class TestCommittedBaseline:
    def test_baseline_is_a_report_the_gate_reads(self):
        baseline = json.loads(BASELINE.read_text(encoding="utf-8"))
        assert check_against_baseline(baseline, copy.deepcopy(baseline)) == []
        assert baseline["quick"]["records"] == 8452
        assert baseline["full"]["records"] == 28835

    def test_quick_run_matches_the_baseline_layout(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        code = main(["--quick", "--out", str(out), "--check", str(BASELINE),
                     "--tolerance", "1.0"])
        assert code == 0, capsys.readouterr().out
        report = json.loads(out.read_text(encoding="utf-8"))
        baseline = json.loads(BASELINE.read_text(encoding="utf-8"))
        assert set(report) == set(baseline) - {"full"}
        assert set(report["quick"]) == set(baseline["quick"]) - {
            "parallel", "speedup_parallel_vs_scalar"
        }
        assert report["quick"]["records"] == 8452
        assert report["quick"]["scalar"]["records"] == 8452

    def test_parallel_suite_is_measured_on_request(self):
        report = run_benchmark(quick=True, workers=2)
        assert report["quick"]["parallel"]["workers"] == 2
        assert report["quick"]["parallel"]["records"] == 8452
