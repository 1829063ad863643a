"""Filesystem-fault shim: spec validation, budgets, determinism, arming."""

from __future__ import annotations

import errno
import os

import pytest

from repro.faults import fsfaults
from repro.faults.fsfaults import (
    FS_FAULTS_ENV_VAR,
    FsFaultError,
    FsFaults,
    TornWriteError,
    fault_write,
    fsfaults_env,
    maybe_fault,
)


class TestSpecValidation:
    def test_unknown_operator_rejected(self):
        with pytest.raises(ValueError, match="operator"):
            FsFaults(operator="rm-rf", state_dir="/tmp/x")

    def test_state_dir_required_for_active_operators(self):
        with pytest.raises(ValueError, match="state_dir"):
            FsFaults(operator="enospc")

    def test_count_operator_needs_no_state_dir(self):
        FsFaults(operator="count")

    def test_nonpositive_times_rejected(self):
        with pytest.raises(ValueError, match="times"):
            FsFaults(operator="enospc", state_dir="/tmp/x", times=0)

    def test_negative_skip_rejected(self):
        with pytest.raises(ValueError, match="skip"):
            FsFaults(operator="enospc", state_dir="/tmp/x", skip=-1)

    def test_json_round_trip(self, tmp_path):
        spec = FsFaults(
            operator="torn-write", times=3, state_dir=str(tmp_path),
            sites=("journal.append",), path_contains=".pkl", skip=1, seed=9,
        )
        assert FsFaults.from_json(spec.to_json()) == spec


class TestBudgetAndTargeting:
    def test_budget_limits_injection_count(self, tmp_path):
        spec = FsFaults(
            operator="enospc", times=2, state_dir=str(tmp_path), seed=1
        )
        with fsfaults_env(spec):
            fired = 0
            for _ in range(5):
                try:
                    maybe_fault("atomic.text", "out.txt")
                except FsFaultError:
                    fired += 1
        assert fired == 2
        assert spec.injections() == 2

    def test_skip_lets_first_calls_pass(self, tmp_path):
        spec = FsFaults(
            operator="enospc", times=1, skip=2, state_dir=str(tmp_path)
        )
        with fsfaults_env(spec):
            maybe_fault("atomic.text", "out.txt")  # slot 0: pass
            maybe_fault("atomic.text", "out.txt")  # slot 1: pass
            with pytest.raises(FsFaultError):
                maybe_fault("atomic.text", "out.txt")  # slot 2: inject
        assert spec.injections() == 1

    def test_site_targeting(self, tmp_path):
        spec = FsFaults(
            operator="enospc", state_dir=str(tmp_path),
            sites=("journal.append",),
        )
        with fsfaults_env(spec):
            maybe_fault("atomic.text", "out.txt")  # untargeted: no-op
            with pytest.raises(FsFaultError):
                maybe_fault("journal.append", "journal.jsonl")

    def test_path_targeting(self, tmp_path):
        spec = FsFaults(
            operator="enospc", state_dir=str(tmp_path), path_contains=".pkl"
        )
        with fsfaults_env(spec):
            maybe_fault("atomic.bytes", "trace.csv")  # path mismatch
            with pytest.raises(FsFaultError):
                maybe_fault("atomic.bytes", "shards/system-2.pkl")

    def test_missing_state_dir_is_created_not_disarming(self, tmp_path):
        # Arming the environment directly (a subprocess drill, CI) must
        # work without pre-provisioning the state directory.
        state = tmp_path / "never-made"
        spec = FsFaults(operator="enospc", state_dir=str(state))
        with pytest.raises(FsFaultError):
            maybe_fault(
                "atomic.text", "out.txt",
                env={FS_FAULTS_ENV_VAR: spec.to_json()},
            )
        assert state.is_dir()

    def test_disarmed_environment_is_noop(self):
        maybe_fault("atomic.text", "out.txt", env={})


class TestOperators:
    def test_enospc_errno(self, tmp_path):
        spec = FsFaults(operator="enospc", state_dir=str(tmp_path))
        with fsfaults_env(spec), pytest.raises(FsFaultError) as err:
            maybe_fault("atomic.text", "out.txt")
        assert err.value.errno == errno.ENOSPC

    def test_fsync_fail_errno(self, tmp_path):
        spec = FsFaults(operator="fsync-fail", state_dir=str(tmp_path))
        with fsfaults_env(spec), pytest.raises(FsFaultError) as err:
            maybe_fault("atomic.fsync", "out.txt")
        assert err.value.errno == errno.EIO

    def test_torn_write_truncates_staged_tmp(self, tmp_path):
        staged = tmp_path / "staged.tmp"
        staged.write_bytes(b"x" * 1000)
        spec = FsFaults(
            operator="torn-write", state_dir=str(tmp_path / "state"), seed=7
        )
        with fsfaults_env(spec), pytest.raises(TornWriteError):
            maybe_fault("atomic.bytes", "out.bin", tmp=str(staged))
        torn = staged.stat().st_size
        assert torn == int(1000 * spec.torn_fraction("atomic.bytes"))
        assert 0 < torn < 1000

    def test_fault_write_leaves_torn_prefix(self, tmp_path):
        target = tmp_path / "journal.jsonl"
        spec = FsFaults(
            operator="torn-write", state_dir=str(tmp_path / "state"), seed=7
        )
        data = "0123456789" * 10
        with target.open("w") as handle, fsfaults_env(spec):
            with pytest.raises(TornWriteError):
                fault_write("journal.append", str(target), handle.write, data)
        expected = int(len(data) * spec.torn_fraction("journal.append"))
        assert target.read_text() == data[:expected]

    def test_fault_write_passes_through_when_disarmed(self, tmp_path):
        target = tmp_path / "out.txt"
        with target.open("w") as handle:
            fault_write("journal.append", str(target), handle.write, "ok\n",
                        env={})
        assert target.read_text() == "ok\n"

    def test_slow_io_delays_but_completes(self, tmp_path):
        target = tmp_path / "out.txt"
        spec = FsFaults(
            operator="slow-io", state_dir=str(tmp_path / "state"),
            slow_seconds=0.01,
        )
        with target.open("w") as handle, fsfaults_env(spec):
            fault_write("io.jsonl", str(target), handle.write, "payload\n")
        assert target.read_text() == "payload\n"

    def test_count_operator_counts_without_faulting(self):
        fsfaults.reset_counts()
        spec = FsFaults(operator="count")
        with fsfaults_env(spec):
            maybe_fault("atomic.text", "a.txt")
            maybe_fault("atomic.text", "b.txt")
            maybe_fault("io.csv", "c.csv")
        assert fsfaults.call_count() == 3
        fsfaults.reset_counts()
        assert fsfaults.call_count() == 0


class TestDeterminism:
    def test_torn_fraction_is_pure_in_seed_and_site(self):
        a = FsFaults(operator="count", seed=7)
        b = FsFaults(operator="count", seed=7)
        assert a.torn_fraction("atomic.bytes") == b.torn_fraction("atomic.bytes")
        assert a.torn_fraction("atomic.bytes") != a.torn_fraction("io.csv")
        assert a.torn_fraction("io.csv") != FsFaults(
            operator="count", seed=8
        ).torn_fraction("io.csv")

    def test_torn_fraction_bounds(self):
        spec = FsFaults(operator="count", seed=3)
        for site in fsfaults.FS_SITES:
            assert 0.25 <= spec.torn_fraction(site) < 0.75

    def test_fault_messages_name_sites_not_paths(self, tmp_path):
        spec = FsFaults(operator="enospc", state_dir=str(tmp_path))
        with fsfaults_env(spec), pytest.raises(FsFaultError) as err:
            maybe_fault("io.csv", str(tmp_path / "secret" / "trace.csv"))
        assert "io.csv" in str(err.value)
        assert str(tmp_path) not in str(err.value)


class TestEnvArming:
    def test_env_restored_after_block(self, tmp_path):
        assert FS_FAULTS_ENV_VAR not in os.environ
        spec = FsFaults(operator="enospc", state_dir=str(tmp_path))
        with fsfaults_env(spec):
            assert os.environ[FS_FAULTS_ENV_VAR] == spec.to_json()
        assert FS_FAULTS_ENV_VAR not in os.environ

    def test_env_restored_on_error(self, tmp_path):
        spec = FsFaults(operator="enospc", state_dir=str(tmp_path))
        with pytest.raises(RuntimeError):
            with fsfaults_env(spec):
                raise RuntimeError("boom")
        assert FS_FAULTS_ENV_VAR not in os.environ

    def test_none_spec_is_noop(self):
        with fsfaults_env(None) as armed:
            assert armed is None
            assert FS_FAULTS_ENV_VAR not in os.environ
