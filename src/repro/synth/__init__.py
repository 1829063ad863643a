"""Synthetic LANL failure-trace generator.

This package is the substitution for the real LANL/CFDR trace (see
DESIGN.md section 2).  It generates a full 9-year failure trace for the
22 systems of Table 1, built from the statistical laws the paper
measures so every downstream analysis reproduces the paper's shapes:

* per-hardware-type failure rates per processor (Figure 2),
* Weibull renewal interarrivals with shape < 1 (Figure 6),
* lifecycle rate shapes — infant-mortality decay for types E/F,
  ramp-to-peak for types D/G (Figure 4),
* diurnal and weekly rate modulation (Figure 5),
* heterogeneous per-node rates with graphics/front-end boosts
  (Figure 3),
* per-type root-cause mixtures with low-level detail (Figure 1,
  Section 4),
* lognormal repair times per root cause with heavy tails (Table 2,
  Figure 7),
* correlated simultaneous failures early in the NUMA era
  (Figure 6(c)).

Entry point: :class:`~repro.synth.generator.TraceGenerator`.
"""

from repro.synth.config import GeneratorConfig
from repro.synth.generator import SupervisionConfig, TraceGenerator
from repro.synth.lifecycle import LifecycleShape, lifecycle_multiplier, lifecycle_shape_for
from repro.synth.diurnal import WeeklyProfile, diurnal_multiplier, weekly_multiplier
from repro.synth.nodes import assign_workloads
from repro.synth.rootcause import CauseModel
from repro.synth.repair import RepairModel
from repro.synth.correlated import inject_bursts
from repro.synth.jitter import MonthlyJitter
from repro.synth.scenario import ClusterScenario, ScenarioSystem

__all__ = [
    "GeneratorConfig",
    "SupervisionConfig",
    "TraceGenerator",
    "LifecycleShape",
    "lifecycle_multiplier",
    "lifecycle_shape_for",
    "WeeklyProfile",
    "diurnal_multiplier",
    "weekly_multiplier",
    "assign_workloads",
    "CauseModel",
    "RepairModel",
    "inject_bursts",
    "MonthlyJitter",
    "ClusterScenario",
    "ScenarioSystem",
]
