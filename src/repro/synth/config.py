"""Calibration constants for the synthetic trace generator.

Every constant here is tied to a specific statement or figure of the
paper; the comments cite which.  The defaults target the paper's
*shapes* — rankings, ratios, fit parameters — rather than exact counts,
which depended on LANL specifics no model can recover.

All rates are failures per processor per (average) year unless noted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Tuple

from repro.records.record import LowLevelCause, RootCause
from repro.records.system import HardwareType

__all__ = ["GeneratorConfig"]

# ---------------------------------------------------------------------------
# Failure rates (Figure 2(b): failures/year/processor, roughly constant
# within a hardware type; system 2 ~ 17/year, system 7 ~ 1159/year).
# ---------------------------------------------------------------------------
DEFAULT_RATE_PER_PROC_YEAR: Dict[HardwareType, float] = {
    HardwareType.A: 0.40,
    HardwareType.B: 0.55,   # system 2: 0.55 * 32 procs = 17.6 failures/year
    HardwareType.C: 2.20,   # small single node => large normalized rate
    HardwareType.D: 0.75,
    HardwareType.E: 0.28,   # system 7: 0.28 * 4096 = 1147 failures/year
    HardwareType.F: 0.25,
    HardwareType.G: 0.10,
    HardwareType.H: 0.12,
}

#: Per-system rate multipliers on top of the hardware-type base rate.
#: Footnote 3: systems 5-6 were the first type-E systems and saw higher
#: rates.  System 7 — the tallest bar of Figure 2(a) at ~1159
#: failures/year — ran measurably hotter than its twin, system 8.
DEFAULT_EARLY_SYSTEM_BOOST: Dict[int, float] = {5: 1.5, 6: 1.7, 7: 1.25}

# ---------------------------------------------------------------------------
# Interarrival process (Figure 6: Weibull with decreasing hazard).
# ---------------------------------------------------------------------------
#: Weibull shape of the per-node renewal process in *operational time*.
#: Lifecycle, diurnal and monthly-jitter modulation add variability on
#: top, so the shape fitted to the resulting wall-clock interarrivals is
#: lower: base 0.85 yields fitted shapes ~0.67 at node level and ~0.80
#: system-wide — the paper's 0.7 / 0.78.
DEFAULT_TBF_SHAPE = 0.85

# ---------------------------------------------------------------------------
# Monthly rate turbulence.  Real monthly failure counts (Figure 4) are
# far noisier than a smooth lifecycle curve, and the 1996-99 node-level
# interarrivals have C^2 ~ 3.9 with a lognormal best fit (Figure 6(a))
# — a doubly-stochastic signature.  Each (system, month) gets a shared
# lognormal rate multiplier with unit mean; the early production era of
# the ramp systems is the most turbulent.
# ---------------------------------------------------------------------------
DEFAULT_JITTER_SIGMA_EARLY_RAMP = 1.30
DEFAULT_JITTER_SIGMA_EARLY_DECAY = 0.35
DEFAULT_JITTER_SIGMA_LATE = 0.18
DEFAULT_JITTER_ERA_MONTHS = 40.0

# ---------------------------------------------------------------------------
# Diurnal / weekly modulation (Figure 5: failure rate ~2x higher during
# peak hours than at night, weekdays ~2x weekends).
# ---------------------------------------------------------------------------
#: Relative amplitude of the daily sinusoid; peak/trough = (1+a)/(1-a).
DEFAULT_DIURNAL_AMPLITUDE = 1.0 / 3.0
#: Hour of day (0-24) at which the daily rate peaks.
DEFAULT_DIURNAL_PEAK_HOUR = 14.0
#: Weekend multiplier before normalization; weekday/weekend ~ 1/0.55.
DEFAULT_WEEKEND_FACTOR = 0.55

# ---------------------------------------------------------------------------
# Node heterogeneity (Figure 3: per-node failure counts overdispersed
# vs Poisson; graphics nodes 21-23 of system 20 = 6% of nodes but 20%
# of failures; front-end nodes of E/F systems markedly worse).
# ---------------------------------------------------------------------------
#: Sigma of the lognormal per-node rate multiplier (mean fixed at 1).
DEFAULT_NODE_SIGMA = 0.35
#: Rate multiplier for graphics (visualization) nodes.
DEFAULT_GRAPHICS_MULTIPLIER = 3.8
#: Rate multiplier for front-end nodes.
DEFAULT_FRONTEND_MULTIPLIER = 2.5

# ---------------------------------------------------------------------------
# Root-cause mixtures (Figure 1(a): hardware 30-60%, software 5-24%,
# unknown 20-30% except type E < 5%; type D hardware ~ software).
# ---------------------------------------------------------------------------
_HW, _SW, _NET, _ENV, _HUM, _UNK = (
    RootCause.HARDWARE,
    RootCause.SOFTWARE,
    RootCause.NETWORK,
    RootCause.ENVIRONMENT,
    RootCause.HUMAN,
    RootCause.UNKNOWN,
)

DEFAULT_CAUSE_MIX: Dict[HardwareType, Dict[RootCause, float]] = {
    HardwareType.A: {_HW: 0.45, _SW: 0.20, _NET: 0.05, _ENV: 0.05, _HUM: 0.03, _UNK: 0.22},
    HardwareType.B: {_HW: 0.45, _SW: 0.20, _NET: 0.05, _ENV: 0.05, _HUM: 0.03, _UNK: 0.22},
    HardwareType.C: {_HW: 0.45, _SW: 0.20, _NET: 0.05, _ENV: 0.05, _HUM: 0.03, _UNK: 0.22},
    # Type D: hardware and software almost equally frequent (Section 4),
    # with enough of a margin that hardware stays the modal cause at
    # realistic sample sizes (~1k failures => ~2% noise on the gap).
    # The base unknown share is lower than the observed 20-30% because
    # the unknown-era effect (early diagnoses lost) tops it up.
    HardwareType.D: {_HW: 0.37, _SW: 0.325, _NET: 0.06, _ENV: 0.02, _HUM: 0.02, _UNK: 0.21},
    # Type E: < 5% unknown, dominated by the CPU design flaw.
    HardwareType.E: {_HW: 0.64, _SW: 0.18, _NET: 0.06, _ENV: 0.05, _HUM: 0.03, _UNK: 0.04},
    HardwareType.F: {_HW: 0.55, _SW: 0.15, _NET: 0.04, _ENV: 0.03, _HUM: 0.02, _UNK: 0.21},
    HardwareType.G: {_HW: 0.48, _SW: 0.20, _NET: 0.05, _ENV: 0.02, _HUM: 0.03, _UNK: 0.22},
    HardwareType.H: {_HW: 0.40, _SW: 0.24, _NET: 0.08, _ENV: 0.04, _HUM: 0.02, _UNK: 0.22},
}

# Low-level hardware causes (Section 4: memory > 10% of ALL failures on
# every system, > 25% on F and H; > 50% CPU on type E; memory the most
# common low-level cause everywhere except E).
_MEM, _CPU, _IC, _DISK = (
    LowLevelCause.MEMORY,
    LowLevelCause.CPU,
    LowLevelCause.NODE_INTERCONNECT,
    LowLevelCause.DISK,
)
_PS, _FAN, _NB, _OHW = (
    LowLevelCause.POWER_SUPPLY,
    LowLevelCause.FAN,
    LowLevelCause.NODE_BOARD,
    LowLevelCause.OTHER_HARDWARE,
)

DEFAULT_HARDWARE_DETAIL: Dict[HardwareType, Dict[LowLevelCause, float]] = {
    HardwareType.A: {_MEM: 0.35, _CPU: 0.15, _DISK: 0.12, _NB: 0.10, _PS: 0.08, _FAN: 0.05, _IC: 0.05, _OHW: 0.10},
    HardwareType.B: {_MEM: 0.35, _CPU: 0.15, _DISK: 0.12, _NB: 0.10, _PS: 0.08, _FAN: 0.05, _IC: 0.05, _OHW: 0.10},
    HardwareType.C: {_MEM: 0.35, _CPU: 0.15, _DISK: 0.12, _NB: 0.10, _PS: 0.08, _FAN: 0.05, _IC: 0.05, _OHW: 0.10},
    HardwareType.D: {_MEM: 0.40, _CPU: 0.10, _DISK: 0.15, _NB: 0.10, _PS: 0.08, _FAN: 0.05, _IC: 0.05, _OHW: 0.07},
    # Type E CPU design flaw: cpu ~ 0.82 * 0.64 = 52% of all failures.
    HardwareType.E: {_CPU: 0.82, _MEM: 0.16, _OHW: 0.02},
    # Type F: memory 0.50 * 0.55 = 27.5% of all failures.
    HardwareType.F: {_MEM: 0.50, _CPU: 0.10, _DISK: 0.10, _NB: 0.08, _PS: 0.07, _FAN: 0.05, _IC: 0.05, _OHW: 0.05},
    HardwareType.G: {_MEM: 0.30, _IC: 0.20, _CPU: 0.12, _DISK: 0.10, _NB: 0.08, _PS: 0.08, _FAN: 0.05, _OHW: 0.07},
    # Type H: memory 0.65 * 0.40 = 26% of all failures.
    HardwareType.H: {_MEM: 0.65, _CPU: 0.10, _IC: 0.10, _DISK: 0.05, _NB: 0.04, _PS: 0.03, _OHW: 0.03},
}

# Low-level software causes (Section 4: parallel FS dominant on F,
# scheduler on H, OS on E, unspecified on D and G).
_PFS, _SCH, _OS, _USR, _USW = (
    LowLevelCause.PARALLEL_FILESYSTEM,
    LowLevelCause.SCHEDULER_SOFTWARE,
    LowLevelCause.OPERATING_SYSTEM,
    LowLevelCause.USER_CODE,
    LowLevelCause.UNSPECIFIED_SOFTWARE,
)

DEFAULT_SOFTWARE_DETAIL: Dict[HardwareType, Dict[LowLevelCause, float]] = {
    HardwareType.A: {_OS: 0.40, _SCH: 0.20, _USR: 0.20, _USW: 0.20},
    HardwareType.B: {_OS: 0.40, _SCH: 0.20, _USR: 0.20, _USW: 0.20},
    HardwareType.C: {_OS: 0.40, _SCH: 0.20, _USR: 0.20, _USW: 0.20},
    HardwareType.D: {_USW: 0.35, _OS: 0.20, _PFS: 0.15, _SCH: 0.15, _USR: 0.15},
    HardwareType.E: {_OS: 0.45, _PFS: 0.20, _SCH: 0.15, _USR: 0.10, _USW: 0.10},
    HardwareType.F: {_PFS: 0.45, _OS: 0.20, _SCH: 0.15, _USR: 0.10, _USW: 0.10},
    HardwareType.G: {_USW: 0.40, _OS: 0.25, _PFS: 0.15, _SCH: 0.10, _USR: 0.10},
    HardwareType.H: {_SCH: 0.40, _OS: 0.20, _PFS: 0.15, _USR: 0.10, _USW: 0.15},
}

DEFAULT_NETWORK_DETAIL: Dict[LowLevelCause, float] = {
    LowLevelCause.SWITCH: 0.50,
    LowLevelCause.CABLE: 0.25,
    LowLevelCause.NIC: 0.25,
}

#: Section 6: environment has only two detailed categories.
DEFAULT_ENVIRONMENT_DETAIL: Dict[LowLevelCause, float] = {
    LowLevelCause.POWER_OUTAGE: 0.60,
    LowLevelCause.AC_FAILURE: 0.40,
}

DEFAULT_HUMAN_DETAIL: Dict[LowLevelCause, float] = {
    LowLevelCause.CONFIGURATION: 0.60,
    LowLevelCause.PROCEDURE: 0.40,
}

# Section 4: for types D and G the unknown fraction started > 90% and
# dropped below 10% within ~2 years as administrators learned the
# systems.  Modeled as an age-dependent chance to lose the diagnosis.
DEFAULT_UNKNOWN_ERA_TYPES = (HardwareType.D, HardwareType.G)
DEFAULT_UNKNOWN_ERA_INITIAL = 0.90
DEFAULT_UNKNOWN_ERA_DECAY_MONTHS = 8.0

# ---------------------------------------------------------------------------
# Repair-time model (Table 2, in minutes, reference scale = type E).
# (mean, median) pairs parameterize the lognormal body; the tail
# mixture reproduces the extreme C^2 values.
# ---------------------------------------------------------------------------
DEFAULT_REPAIR_MEAN_MEDIAN_MIN: Dict[RootCause, Tuple[float, float]] = {
    RootCause.UNKNOWN: (398.0, 32.0),
    RootCause.HUMAN: (163.0, 44.0),
    RootCause.ENVIRONMENT: (572.0, 269.0),
    RootCause.NETWORK: (247.0, 70.0),
    RootCause.SOFTWARE: (369.0, 33.0),
    RootCause.HARDWARE: (342.0, 64.0),
}

#: Probability that a repair lands in the heavy-tail mixture component.
DEFAULT_REPAIR_TAIL_PROB = 0.010
#: Log-space offsets of the tail component relative to the body.
DEFAULT_REPAIR_TAIL_MU_SHIFT = 2.0
DEFAULT_REPAIR_TAIL_SIGMA_EXTRA = 1.0
#: Environment repairs show C^2 ~ 2 (only two detailed causes): no tail.
DEFAULT_REPAIR_NO_TAIL_CAUSES = (RootCause.ENVIRONMENT,)
#: Floor on generated repair durations, in minutes.
DEFAULT_REPAIR_FLOOR_MIN = 1.0
#: Ceiling on generated repair durations, in minutes (8 weeks).  The
#: unbounded tail mixture can otherwise emit year-long repairs; the
#: paper's longest observed repairs are on the order of weeks, and a
#: single freak draw would dominate a per-cause Table 2 mean.
DEFAULT_REPAIR_CEILING_MIN = 80640.0

#: Figure 1(b): unknown-cause failures account for < 5% of downtime on
#: most systems despite a 20-30% count share — their repairs are short
#: (a reboot fixes what nobody can diagnose).  Only types D and G, the
#: learning-era systems, have long unknown repairs, which also keeps
#: the aggregate Table 2 "Unknown" column high (their unknowns dominate
#: the aggregate count).  Factor applied outside the unknown-era types.
DEFAULT_REPAIR_UNKNOWN_SHORT_FACTOR = 0.15

#: Figure 7(b,c): repair time depends strongly on hardware type ("from
#: less than an hour to more than a day") and not on system size.
#: Multiplier on the reference repair scale; reference is type E, and
#: the long-repair types (the one-off early machines A/B and big NUMA
#: nodes) contribute few failures, so the aggregate Table 2 statistics
#: stay near the reference values.
DEFAULT_REPAIR_TYPE_FACTOR: Dict[HardwareType, float] = {
    HardwareType.A: 8.0,
    HardwareType.B: 12.0,
    HardwareType.C: 2.5,
    HardwareType.D: 0.8,
    HardwareType.E: 1.0,
    HardwareType.F: 0.35,
    HardwareType.G: 1.5,
    HardwareType.H: 2.0,
}

# ---------------------------------------------------------------------------
# Lifecycle shapes (Figure 4) — parameters live in synth.lifecycle;
# the mapping of hardware type to shape is configured here.
# ---------------------------------------------------------------------------
#: Systems whose lifecycle ramps to a peak ~20 months in (types D, G).
DEFAULT_RAMP_TYPES = (HardwareType.D, HardwareType.G)
#: System 21 was introduced two years into the NUMA era and behaves
#: like Figure 4(a) despite being type G (Section 5.2).
DEFAULT_RAMP_EXEMPT_SYSTEMS = (21,)

# ---------------------------------------------------------------------------
# Correlated failures (Figure 6(c): > 30% of system-wide interarrivals
# are zero for system 20 before 2000).
# ---------------------------------------------------------------------------
#: Systems subject to early-era correlated bursts.
DEFAULT_BURST_SYSTEMS = (19, 20)
#: Bursts only before this many months of system age (systems 19-20
#: start 12/96-01/97, so 36 months keeps bursts inside the paper's
#: 1996-1999 "early production" era).
DEFAULT_BURST_ERA_MONTHS = 36.0
#: Probability that an early-era failure spawns simultaneous clones.
DEFAULT_BURST_PROB = 0.32
#: Mean number of clones per burst (geometric, >= 1).
DEFAULT_BURST_MEAN_EXTRA = 1.8


def _normalized(mix: Mapping, context: str) -> Dict:
    total = float(sum(mix.values()))
    if total <= 0:
        raise ValueError(f"{context}: probabilities sum to {total}")
    return {key: value / total for key, value in mix.items()}


@dataclass
class GeneratorConfig:
    """All tunable knobs of the synthetic trace generator.

    The defaults reproduce the paper; ablation benches flip individual
    features (``diurnal_enabled``, ``bursts_enabled``,
    ``node_sigma`` ...) to quantify what each contributes.
    """

    # Rates
    rate_per_proc_year: Dict[HardwareType, float] = field(
        default_factory=lambda: dict(DEFAULT_RATE_PER_PROC_YEAR)
    )
    early_system_boost: Dict[int, float] = field(
        default_factory=lambda: dict(DEFAULT_EARLY_SYSTEM_BOOST)
    )
    # Interarrival process
    tbf_shape: float = DEFAULT_TBF_SHAPE
    # Monthly rate turbulence
    jitter_enabled: bool = True
    jitter_sigma_early_ramp: float = DEFAULT_JITTER_SIGMA_EARLY_RAMP
    jitter_sigma_early_decay: float = DEFAULT_JITTER_SIGMA_EARLY_DECAY
    jitter_sigma_late: float = DEFAULT_JITTER_SIGMA_LATE
    jitter_era_months: float = DEFAULT_JITTER_ERA_MONTHS
    # Diurnal / weekly modulation
    diurnal_enabled: bool = True
    diurnal_amplitude: float = DEFAULT_DIURNAL_AMPLITUDE
    diurnal_peak_hour: float = DEFAULT_DIURNAL_PEAK_HOUR
    weekend_factor: float = DEFAULT_WEEKEND_FACTOR
    # Node heterogeneity
    node_sigma: float = DEFAULT_NODE_SIGMA
    graphics_multiplier: float = DEFAULT_GRAPHICS_MULTIPLIER
    frontend_multiplier: float = DEFAULT_FRONTEND_MULTIPLIER
    # Root causes
    cause_mix: Dict[HardwareType, Dict[RootCause, float]] = field(
        default_factory=lambda: {hw: dict(mix) for hw, mix in DEFAULT_CAUSE_MIX.items()}
    )
    hardware_detail: Dict[HardwareType, Dict[LowLevelCause, float]] = field(
        default_factory=lambda: {hw: dict(mix) for hw, mix in DEFAULT_HARDWARE_DETAIL.items()}
    )
    software_detail: Dict[HardwareType, Dict[LowLevelCause, float]] = field(
        default_factory=lambda: {hw: dict(mix) for hw, mix in DEFAULT_SOFTWARE_DETAIL.items()}
    )
    network_detail: Dict[LowLevelCause, float] = field(
        default_factory=lambda: dict(DEFAULT_NETWORK_DETAIL)
    )
    environment_detail: Dict[LowLevelCause, float] = field(
        default_factory=lambda: dict(DEFAULT_ENVIRONMENT_DETAIL)
    )
    human_detail: Dict[LowLevelCause, float] = field(
        default_factory=lambda: dict(DEFAULT_HUMAN_DETAIL)
    )
    unknown_era_types: Tuple[HardwareType, ...] = DEFAULT_UNKNOWN_ERA_TYPES
    unknown_era_initial: float = DEFAULT_UNKNOWN_ERA_INITIAL
    unknown_era_decay_months: float = DEFAULT_UNKNOWN_ERA_DECAY_MONTHS
    # Repair model
    repair_mean_median_min: Dict[RootCause, Tuple[float, float]] = field(
        default_factory=lambda: dict(DEFAULT_REPAIR_MEAN_MEDIAN_MIN)
    )
    repair_tail_prob: float = DEFAULT_REPAIR_TAIL_PROB
    repair_tail_mu_shift: float = DEFAULT_REPAIR_TAIL_MU_SHIFT
    repair_tail_sigma_extra: float = DEFAULT_REPAIR_TAIL_SIGMA_EXTRA
    repair_no_tail_causes: Tuple[RootCause, ...] = DEFAULT_REPAIR_NO_TAIL_CAUSES
    repair_floor_min: float = DEFAULT_REPAIR_FLOOR_MIN
    repair_ceiling_min: float = DEFAULT_REPAIR_CEILING_MIN
    repair_unknown_short_factor: float = DEFAULT_REPAIR_UNKNOWN_SHORT_FACTOR
    repair_type_factor: Dict[HardwareType, float] = field(
        default_factory=lambda: dict(DEFAULT_REPAIR_TYPE_FACTOR)
    )
    # Lifecycle
    ramp_types: Tuple[HardwareType, ...] = DEFAULT_RAMP_TYPES
    ramp_exempt_systems: Tuple[int, ...] = DEFAULT_RAMP_EXEMPT_SYSTEMS
    # Correlated bursts
    bursts_enabled: bool = True
    burst_systems: Tuple[int, ...] = DEFAULT_BURST_SYSTEMS
    burst_era_months: float = DEFAULT_BURST_ERA_MONTHS
    burst_prob: float = DEFAULT_BURST_PROB
    burst_mean_extra: float = DEFAULT_BURST_MEAN_EXTRA

    def __post_init__(self) -> None:
        if not 0 < self.tbf_shape <= 2:
            raise ValueError(f"tbf_shape must be in (0, 2], got {self.tbf_shape}")
        if not 0 <= self.diurnal_amplitude < 1:
            raise ValueError(
                f"diurnal_amplitude must be in [0, 1), got {self.diurnal_amplitude}"
            )
        if not 0 < self.weekend_factor <= 1:
            raise ValueError(
                f"weekend_factor must be in (0, 1], got {self.weekend_factor}"
            )
        if self.node_sigma < 0:
            raise ValueError(f"node_sigma must be >= 0, got {self.node_sigma}")
        if not 0 <= self.burst_prob < 1:
            raise ValueError(f"burst_prob must be in [0, 1), got {self.burst_prob}")
        if self.repair_ceiling_min < self.repair_floor_min:
            raise ValueError(
                f"repair_ceiling_min {self.repair_ceiling_min} must be >= "
                f"repair_floor_min {self.repair_floor_min}"
            )
        # Normalize all mixture tables so callers can pass raw weights.
        self.cause_mix = {
            hw: _normalized(mix, f"cause_mix[{hw}]") for hw, mix in self.cause_mix.items()
        }
        self.hardware_detail = {
            hw: _normalized(mix, f"hardware_detail[{hw}]")
            for hw, mix in self.hardware_detail.items()
        }
        self.software_detail = {
            hw: _normalized(mix, f"software_detail[{hw}]")
            for hw, mix in self.software_detail.items()
        }
        self.network_detail = _normalized(self.network_detail, "network_detail")
        self.environment_detail = _normalized(self.environment_detail, "environment_detail")
        self.human_detail = _normalized(self.human_detail, "human_detail")
