"""Checkpoint/restart analysis and simulation.

The paper's introduction motivates failure characterization with the
design of checkpoint strategies [8, 21, 23]; LANL itself implements
fault tolerance by periodic checkpointing (Section 2.2).  This package
closes that loop:

* :mod:`~repro.checkpoint.models` — the classic Young/Daly optimal
  checkpoint intervals (derived under Poisson failures) and an exact
  renewal-reward efficiency model for *arbitrary* failure
  distributions, exposing how much the exponential assumption costs
  when failures are really Weibull with decreasing hazard.
* :mod:`~repro.checkpoint.strategies` — pluggable interval-selection
  strategies.
* :mod:`~repro.checkpoint.simulator` — a trace-driven checkpoint/
  restart simulator running jobs against a failure trace.
"""

from repro.checkpoint.models import (
    daly_interval,
    expected_efficiency,
    interval_vs_job_size,
    optimal_interval,
    time_to_first_failure,
    young_interval,
)
from repro.checkpoint.strategies import (
    CheckpointStrategy,
    DistributionAwareStrategy,
    FixedIntervalStrategy,
    YoungStrategy,
)
from repro.checkpoint.simulator import CheckpointSimulation, SimulationResult
from repro.checkpoint.twolevel import TwoLevelCheckpointSimulation, TwoLevelResult

__all__ = [
    "young_interval",
    "daly_interval",
    "expected_efficiency",
    "optimal_interval",
    "time_to_first_failure",
    "interval_vs_job_size",
    "CheckpointStrategy",
    "FixedIntervalStrategy",
    "YoungStrategy",
    "DistributionAwareStrategy",
    "CheckpointSimulation",
    "SimulationResult",
    "TwoLevelCheckpointSimulation",
    "TwoLevelResult",
]
