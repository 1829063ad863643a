"""Fault injection: chaos-testing the ingest and analysis pipeline.

Related log-analytics work (Park et al.; Sîrbu & Babaoglu) treats
noisy, partially corrupt logs as the normal case.  This subpackage
provides the offense for that defense:

* :mod:`~repro.faults.operators` — composable, seeded corruption
  operators (dropped/garbled fields, unknown vocabulary, clock skew,
  duplicates, reordering, truncation, negative durations, unknown
  node/system IDs);
* :class:`~repro.faults.injector.CorruptionInjector` — applies a mix
  of operators to a trace CSV at a configurable rate, deterministically
  per seed, with a manifest of what it damaged;
* :func:`~repro.faults.chaos.chaos_roundtrip` — the end-to-end drill:
  corrupt, ingest leniently, run the full paper report, report
  survival;
* :mod:`~repro.faults.process_ops` — *process-level* chaos (kill,
  hang, slow, fail worker processes) for drilling the supervised
  generation path in :mod:`repro.resilience`;
* :mod:`~repro.faults.fsfaults` — *filesystem/resource* faults
  (ENOSPC, torn writes, fsync failure, slow I/O) injected at the
  atomic-write, journal-append, and trace-writer sites;
* :mod:`~repro.faults.campaign` — the deterministic chaos-campaign
  engine composing all three fault classes over real workflows and
  verifying recovery invariants into a robustness scorecard.
"""

from repro.faults.campaign import (
    CampaignResult,
    PRESETS,
    Scenario,
    ScenarioOutcome,
    run_campaign,
)
from repro.faults.chaos import ChaosReport, chaos_roundtrip
from repro.faults.fsfaults import (
    FS_FAULTS_ENV_VAR,
    FS_OPERATORS,
    FS_SITES,
    FsFaultError,
    FsFaults,
    TornWriteError,
    fsfaults_env,
)
from repro.faults.injector import CorruptionInjector, CorruptionResult
from repro.faults.process_ops import (
    CHAOS_ENV_VAR,
    PROCESS_OPERATORS,
    ChaosError,
    ProcessChaos,
    chaos_env,
    make_chaos,
    maybe_inject,
)
from repro.faults.operators import (
    ALL_OPERATORS,
    DEFAULT_OPERATORS,
    ClockSkewer,
    CorruptionOperator,
    EnumUnknowner,
    FieldDropper,
    FieldGarbler,
    NegativeDurationer,
    RowDuplicator,
    RowShuffler,
    RowTruncator,
    UnknownNoder,
    UnknownSystemer,
)

__all__ = [
    "ChaosReport",
    "chaos_roundtrip",
    "CorruptionInjector",
    "CorruptionResult",
    "CorruptionOperator",
    "FieldDropper",
    "FieldGarbler",
    "EnumUnknowner",
    "ClockSkewer",
    "NegativeDurationer",
    "RowDuplicator",
    "RowShuffler",
    "RowTruncator",
    "UnknownSystemer",
    "UnknownNoder",
    "DEFAULT_OPERATORS",
    "ALL_OPERATORS",
    "CHAOS_ENV_VAR",
    "PROCESS_OPERATORS",
    "ChaosError",
    "ProcessChaos",
    "chaos_env",
    "make_chaos",
    "maybe_inject",
    "FS_FAULTS_ENV_VAR",
    "FS_OPERATORS",
    "FS_SITES",
    "FsFaultError",
    "FsFaults",
    "TornWriteError",
    "fsfaults_env",
    "CampaignResult",
    "PRESETS",
    "Scenario",
    "ScenarioOutcome",
    "run_campaign",
]
