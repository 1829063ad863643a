"""Root-cause sampling (Figure 1, Section 4).

Each failure gets a high-level cause drawn from the hardware type's
mixture, then a low-level detail drawn from the cause's detail mixture.
Two refinements match the paper:

* **Unknown-cause era** (Section 4): for types D and G — the first
  large SMP cluster and the first NUMA clusters — the fraction of
  failures with unknown root cause started above 90% and dropped below
  10% within ~2 years as administrators learned the systems.  Modeled
  as an age-dependent probability that a failure's diagnosis is lost
  (cause replaced by UNKNOWN).
* **Burst causes**: correlated simultaneous failures share their
  parent's cause (a power outage hits many nodes at once); handled in
  :mod:`repro.synth.correlated`.
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

import numpy as np

from repro.records.codes import CAUSE_CODE, DETAIL_CODE, NO_DETAIL
from repro.records.record import LowLevelCause, RootCause
from repro.records.system import HardwareType
from repro.records.timeutils import SECONDS_PER_MONTH
from repro.synth.config import GeneratorConfig

__all__ = ["CauseModel"]


class CauseModel:
    """Resolves (root cause, low-level cause) pairs for one system."""

    def __init__(self, config: GeneratorConfig, hardware_type: HardwareType) -> None:
        self._config = config
        self._hardware_type = hardware_type
        mix = config.cause_mix[hardware_type]
        self._causes = tuple(mix.keys())
        self._cause_probs = np.array([mix[cause] for cause in self._causes])
        self._detail_tables: Dict[RootCause, Tuple[Tuple[LowLevelCause, ...], np.ndarray]] = {}
        for cause, table in (
            (RootCause.HARDWARE, config.hardware_detail[hardware_type]),
            (RootCause.SOFTWARE, config.software_detail[hardware_type]),
            (RootCause.NETWORK, config.network_detail),
            (RootCause.ENVIRONMENT, config.environment_detail),
            (RootCause.HUMAN, config.human_detail),
        ):
            details = tuple(table.keys())
            self._detail_tables[cause] = (
                details,
                np.array([table[detail] for detail in details]),
            )
        self._unknown_era = hardware_type in config.unknown_era_types
        self._cause_cdf = np.cumsum(self._cause_probs)
        self._unknown_index = (
            self._causes.index(RootCause.UNKNOWN)
            if RootCause.UNKNOWN in self._causes
            else -1
        )
        self._detail_cdfs: Dict[int, np.ndarray] = {
            self._causes.index(cause): np.cumsum(probs)
            for cause, (details, probs) in self._detail_tables.items()
            if cause in self._causes
        }
        # Canonical-code alphabets: map this model's *internal* batch
        # indices (mixture order) to the stable codes of
        # :mod:`repro.records.codes` (enum definition order).
        self._cause_code_alphabet = np.array(
            [CAUSE_CODE[cause] for cause in self._causes], dtype=np.int8
        )
        self._detail_code_tables: Dict[int, np.ndarray] = {}
        for index in self._detail_cdfs:
            details, _probs = self._detail_tables[self._causes[index]]
            self._detail_code_tables[index] = np.array(
                [DETAIL_CODE[detail] for detail in details], dtype=np.int8
            )

    @property
    def causes(self) -> Tuple[RootCause, ...]:
        """The cause alphabet, in the order batch indices refer to."""
        return self._causes

    def unknown_probability(self, age_seconds: float) -> float:
        """Extra probability that a failure's diagnosis is lost at ``age``.

        Zero for types outside the unknown era; otherwise decays
        exponentially from ``unknown_era_initial`` so the *total*
        unknown fraction starts above 90% and falls under 10% within
        about two years.
        """
        if not self._unknown_era:
            return 0.0
        tau = self._config.unknown_era_decay_months * SECONDS_PER_MONTH
        return self._config.unknown_era_initial * math.exp(-max(age_seconds, 0.0) / tau)

    # ------------------------------------------------------------------
    # Batched resolution (the trace generator's path)
    #
    # The generator draws each node's "marks" stream in a fixed block
    # order — u_cause, u_lost, u_detail — and resolves a whole system's
    # uniforms here at once.  The reference engine of the equivalence
    # suite resolves the same uniforms one event at a time with the same
    # IEEE-754 operations, and gets identical index arrays.
    # ------------------------------------------------------------------

    def _unknown_probability_array(self, ages: np.ndarray) -> np.ndarray:
        if not self._unknown_era:
            return np.zeros(len(ages))
        tau = self._config.unknown_era_decay_months * SECONDS_PER_MONTH
        return self._config.unknown_era_initial * np.exp(
            -np.maximum(ages, 0.0) / tau
        )

    def resolve_batch(
        self,
        u_cause: np.ndarray,
        u_lost: np.ndarray,
        u_detail: np.ndarray,
        ages: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Resolve pre-drawn mark uniforms to (cause_idx, detail_idx).

        Parameters
        ----------
        u_cause / u_lost / u_detail:
            The marks stream's uniform blocks, one value per failure.
        ages:
            System age at each failure time (drives the unknown era).

        Returns
        -------
        (cause_idx, detail_idx):
            Integer arrays indexing :attr:`causes` and the cause's
            detail table; ``detail_idx`` is -1 where the cause is
            UNKNOWN (no low-level detail).
        """
        n = len(ages)
        cause_idx = np.minimum(
            np.searchsorted(self._cause_cdf, u_cause, side="right"),
            len(self._causes) - 1,
        )
        if self._unknown_era and self._unknown_index >= 0:
            lost = self._unknown_probability_array(ages)
            cause_idx = np.where(u_lost < lost, self._unknown_index, cause_idx)
        detail_idx = np.full(n, -1, dtype=np.int64)
        for index, detail_cdf in self._detail_cdfs.items():
            mask = cause_idx == index
            if mask.any():
                detail_idx[mask] = np.minimum(
                    np.searchsorted(detail_cdf, u_detail[mask], side="right"),
                    len(detail_cdf) - 1,
                )
        return cause_idx, detail_idx

    def resolve_cause_codes(self, cause_idx: np.ndarray) -> np.ndarray:
        """Map a cause-index array to canonical int8 cause codes."""
        return self._cause_code_alphabet[cause_idx]

    def resolve_detail_codes(
        self, cause_idx: np.ndarray, detail_idx: np.ndarray
    ) -> np.ndarray:
        """Map (cause, detail) index arrays to canonical int8 detail codes.

        ``NO_DETAIL`` (-1) where the cause carries no low-level detail.
        """
        out = np.full(len(cause_idx), NO_DETAIL, dtype=np.int8)
        for index, table in self._detail_code_tables.items():
            mask = (cause_idx == index) & (detail_idx >= 0)
            if mask.any():
                out[mask] = table[detail_idx[mask]]
        return out
