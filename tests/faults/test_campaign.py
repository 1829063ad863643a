"""Chaos-campaign engine: scenario drills, invariants, determinism."""

from __future__ import annotations

import json

import pytest

from repro.faults.campaign import (
    FAULT_KINDS,
    PRESETS,
    SCORECARD_NAME,
    TIMINGS_NAME,
    WORKFLOWS,
    CampaignResult,
    InvariantCheck,
    Scenario,
    ScenarioOutcome,
    run_campaign,
    run_scenario,
)


class TestScenarioValidation:
    def test_unknown_workflow_rejected(self):
        with pytest.raises(ValueError, match="workflow"):
            Scenario("bad", "compile")

    def test_unknown_fault_rejected(self):
        with pytest.raises(ValueError, match="fault"):
            Scenario("bad", "generate", fault="cosmic-rays")

    def test_active_fault_needs_operator(self):
        with pytest.raises(ValueError, match="operator"):
            Scenario("bad", "generate", fault="fs")


class TestPresets:
    def test_smoke_is_a_subset_of_full(self):
        smoke = {scenario.name for scenario in PRESETS["smoke"]}
        full = {scenario.name for scenario in PRESETS["full"]}
        assert smoke < full

    def test_scenario_names_unique_per_preset(self):
        for scenarios in PRESETS.values():
            names = [scenario.name for scenario in scenarios]
            assert len(names) == len(set(names))

    def test_presets_cover_the_fault_matrix(self):
        # Every fault kind and every workflow appears somewhere in the
        # full preset — the matrix claim of the campaign docstring.
        full = PRESETS["full"]
        assert {s.fault for s in full} == set(FAULT_KINDS)
        assert {s.workflow for s in full} == set(WORKFLOWS)

    def test_unknown_preset_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown preset"):
            run_campaign("warp-speed", root=tmp_path)


class TestScenarioDrills:
    def test_clean_baseline_passes(self, tmp_path):
        scenario = Scenario("baseline", "generate")
        from repro.faults.campaign import _reference_csv

        reference = _reference_csv(7, scenario.systems, {}, tmp_path)
        outcome = run_scenario(scenario, 7, tmp_path / "s", reference)
        assert outcome.ok
        assert outcome.injections == 0
        assert outcome.attempts == 1
        names = [check.name for check in outcome.invariants]
        assert "trace-identical" in names
        assert "journal-consistent" in names

    def test_enospc_generate_recovers_identically(self, tmp_path):
        scenario = Scenario(
            "enospc", "generate", fault="fs", operator="enospc",
            sites=("journal.append",),
        )
        from repro.faults.campaign import _reference_csv

        reference = _reference_csv(7, scenario.systems, {}, tmp_path)
        outcome = run_scenario(scenario, 7, tmp_path / "s", reference)
        assert outcome.ok, outcome.failed_invariants() or outcome.error
        assert outcome.injections >= 1
        assert outcome.attempts >= 2  # the fault cost at least one retry

    def test_write_drill_protects_original(self, tmp_path):
        scenario = Scenario(
            "torn-csv", "write-csv", fault="fs", operator="torn-write",
            sites=("atomic.text",),
        )
        from repro.faults.campaign import _reference_csv

        reference = _reference_csv(7, scenario.systems, {}, tmp_path)
        outcome = run_scenario(scenario, 7, tmp_path / "s", reference)
        assert outcome.ok, outcome.failed_invariants() or outcome.error
        checks = {check.name: check for check in outcome.invariants}
        assert checks["original-untouched"].passed
        assert checks["no-partial-artifacts"].passed

    def test_harness_error_is_contained(self, tmp_path, monkeypatch):
        # A bug in a drill must produce a failed outcome, not take down
        # the campaign.
        import repro.faults.campaign as campaign_mod

        def explode(*args, **kwargs):
            raise RuntimeError("drill bug")

        monkeypatch.setitem(
            campaign_mod._WORKFLOW_TABLE, "generate", campaign_mod._Workflow(explode)
        )
        outcome = run_scenario(Scenario("boom", "generate"), 7, tmp_path / "s")
        assert not outcome.ok
        assert "harness error" in outcome.error


class TestOutcomeSemantics:
    def test_ok_requires_completion_and_invariants(self):
        scenario = Scenario("x", "generate")
        good = InvariantCheck("a", True)
        bad = InvariantCheck("b", False, "broke")
        assert ScenarioOutcome(scenario, 1, True, 0, invariants=(good,)).ok
        assert not ScenarioOutcome(scenario, 1, False, 0, invariants=(good,)).ok
        outcome = ScenarioOutcome(scenario, 1, True, 0, invariants=(good, bad))
        assert not outcome.ok
        assert outcome.failed_invariants() == ["b"]

    def test_campaign_ok_rolls_up(self):
        scenario = Scenario("x", "generate")
        ok = ScenarioOutcome(scenario, 1, True, 0)
        failed = ScenarioOutcome(scenario, 1, False, 0, error="nope")
        assert CampaignResult("smoke", 7, (ok,)).ok
        assert not CampaignResult("smoke", 7, (ok, failed)).ok


class TestCampaignRun:
    @pytest.fixture(scope="class")
    def smoke(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("campaign")
        return root, run_campaign("smoke", seed=7, root=root)

    def test_smoke_all_invariants_hold(self, smoke):
        _, result = smoke
        assert result.ok, result.describe()

    def test_scorecard_written_atomically(self, smoke):
        root, result = smoke
        payload = json.loads((root / SCORECARD_NAME).read_text())
        assert payload == result.scorecard()
        assert payload["kind"] == "repro-robustness-scorecard"
        assert payload["summary"]["scenarios"] == len(PRESETS["smoke"])
        assert payload["summary"]["invariants_failed"] == 0
        assert payload["summary"]["total_injections"] >= 1

    def test_timings_sidecar_separate_from_scorecard(self, smoke):
        root, result = smoke
        timings = json.loads((root / TIMINGS_NAME).read_text())
        assert set(timings["wall_times_seconds"]) == {
            outcome.scenario.name for outcome in result.outcomes
        }
        # The deterministic artifact must not contain timings.
        assert "wall_times" not in json.loads((root / SCORECARD_NAME).read_text())

    def test_scorecard_contains_no_campaign_paths(self, smoke):
        root, _ = smoke
        text = (root / SCORECARD_NAME).read_text()
        assert str(root) not in text

    def test_describe_mentions_every_scenario(self, smoke):
        _, result = smoke
        text = result.describe()
        for outcome in result.outcomes:
            assert outcome.scenario.name in text
        assert "ALL INVARIANTS HOLD" in text


class TestDeterminism:
    def test_same_seed_byte_identical_scorecards(self, tmp_path):
        first = run_campaign("smoke", seed=7, root=tmp_path / "a")
        second = run_campaign("smoke", seed=7, root=tmp_path / "b")
        assert (tmp_path / "a" / SCORECARD_NAME).read_bytes() == (
            tmp_path / "b" / SCORECARD_NAME
        ).read_bytes()
        assert first.scorecard() == second.scorecard()
