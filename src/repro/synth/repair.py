"""Repair-time sampling (Table 2, Figure 7).

Repair times are lognormal — the paper's best fit — with a small
heavy-tail mixture component (the same lognormal shifted up in log
space) modeling the rare week-long repairs that drive Table 2's extreme
C^2 values (up to ~300), which a pure lognormal cannot reach.

The *mixture* is calibrated so that, at the reference hardware type,
its mean and median match Table 2's (mean, median) per root cause:

* median: the tail probability is small, so the mixture median is the
  body median up to a sub-percent correction => mu = ln(median).
* mean: the tail multiplies the body mean by a known factor
  ``exp(dmu + sigma*dsig + dsig^2/2)``, so the body mean that yields
  the target mixture mean is found by a fast fixed-point iteration
  (sigma depends on the body mean, which depends on sigma).

Environment repairs (only two detailed causes: power outage, A/C
failure) have C^2 ~ 2 and get no tail.

Per Figure 7(b,c), repair scale depends strongly on the *hardware
type* and not on system size: a per-type multiplier scales the whole
distribution.  The reference type is E (multiplier 1.0); since types E
and F dominate the failure counts, the aggregate Table 2 statistics
land near the reference values.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.records.record import RootCause
from repro.records.system import HardwareType
from repro.synth.config import GeneratorConfig

__all__ = ["RepairModel", "BatchRepairSampler"]

SECONDS_PER_MINUTE = 60.0


def _calibrate_body(
    target_mean: float,
    target_median: float,
    tail_prob: float,
    tail_mu_shift: float,
    tail_sigma_extra: float,
    iterations: int = 50,
) -> Tuple[float, float]:
    """Body (mu, sigma) such that the mixture matches (mean, median).

    Fixed-point iteration on the body mean; converges in a handful of
    steps because the tail factor varies slowly with sigma.
    """
    if target_mean < target_median:
        raise ValueError(
            f"mean {target_mean} < median {target_median} "
            "(lognormal requires mean >= median)"
        )
    mu = math.log(target_median)
    body_mean = target_mean
    sigma = math.sqrt(2.0 * math.log(max(body_mean / target_median, 1.0 + 1e-9)))
    for _ in range(iterations):
        tail_factor = math.exp(
            tail_mu_shift + sigma * tail_sigma_extra + 0.5 * tail_sigma_extra**2
        )
        denominator = (1.0 - tail_prob) + tail_prob * tail_factor
        new_body_mean = target_mean / denominator
        new_sigma = math.sqrt(
            2.0 * math.log(max(new_body_mean / target_median, 1.0 + 1e-9))
        )
        if abs(new_sigma - sigma) < 1e-12:
            sigma = new_sigma
            break
        sigma = new_sigma
        body_mean = new_body_mean
    if sigma <= 0:
        raise ValueError("degenerate repair distribution (mean ~ median with a tail)")
    return mu, sigma


class RepairModel:
    """Samples repair durations (seconds) by root cause and type."""

    def __init__(self, config: GeneratorConfig) -> None:
        self._config = config
        self._params: Dict[RootCause, Tuple[float, float]] = {}
        for cause, (mean_min, median_min) in config.repair_mean_median_min.items():
            tail_prob = (
                0.0 if cause in config.repair_no_tail_causes else config.repair_tail_prob
            )
            self._params[cause] = _calibrate_body(
                mean_min,
                median_min,
                tail_prob,
                config.repair_tail_mu_shift,
                config.repair_tail_sigma_extra,
            )
        # Per (cause, type): body mu and sigma, whether the tail
        # applies, the type factor and the short-unknown factor (1.0
        # where it does not apply, which leaves a product unchanged).
        self._rules: Dict[
            Tuple[RootCause, HardwareType], Tuple[float, float, bool, float, float]
        ] = {
            (cause, hardware_type): (
                mu,
                sigma,
                cause not in config.repair_no_tail_causes,
                type_factor,
                config.repair_unknown_short_factor
                if cause is RootCause.UNKNOWN
                and hardware_type not in config.unknown_era_types
                else 1.0,
            )
            for cause, (mu, sigma) in self._params.items()
            for hardware_type, type_factor in config.repair_type_factor.items()
        }

    def parameters(self, cause: RootCause) -> Tuple[float, float]:
        """The body lognormal (mu, sigma) in log-minutes for a cause."""
        return self._params[cause]

    def mixture_mean_minutes(self, cause: RootCause) -> float:
        """Analytic mean of the mixture at the reference type (minutes)."""
        mu, sigma = self._params[cause]
        config = self._config
        tail_prob = (
            0.0 if cause in config.repair_no_tail_causes else config.repair_tail_prob
        )
        body_mean = math.exp(mu + 0.5 * sigma**2)
        tail_factor = math.exp(
            config.repair_tail_mu_shift
            + sigma * config.repair_tail_sigma_extra
            + 0.5 * config.repair_tail_sigma_extra**2
        )
        return body_mean * ((1.0 - tail_prob) + tail_prob * tail_factor)

    def sample_minutes(
        self,
        generator: np.random.Generator,
        cause: RootCause,
        hardware_type: HardwareType,
    ) -> float:
        """One repair duration in minutes."""
        mu, sigma, tailable, type_factor, short_factor = self._rules[
            cause, hardware_type
        ]
        config = self._config
        if tailable and generator.random() < config.repair_tail_prob:
            mu = mu + config.repair_tail_mu_shift
            sigma = sigma + config.repair_tail_sigma_extra
        minutes = float(generator.lognormal(mu, sigma))
        # Figure 1(b): short unknown repairs outside types D/G.
        minutes = minutes * type_factor * short_factor
        return min(max(minutes, config.repair_floor_min), config.repair_ceiling_min)

    def sample_seconds(
        self,
        generator: np.random.Generator,
        cause: RootCause,
        hardware_type: HardwareType,
    ) -> float:
        """One repair duration in seconds (the record unit)."""
        return self.sample_minutes(generator, cause, hardware_type) * SECONDS_PER_MINUTE

    def batch_sampler(
        self, causes: Sequence[RootCause], hardware_type: HardwareType
    ) -> "BatchRepairSampler":
        """A batched sampler over a fixed cause alphabet.

        ``causes`` is the alphabet that batched cause indices refer to
        (``CauseModel.causes``); all per-cause parameters are gathered
        into lookup arrays once per (system, node loop).
        """
        return BatchRepairSampler(self, causes, hardware_type)


class BatchRepairSampler:
    """Vectorized repair durations over a fixed cause alphabet.

    Resolves the node's marks-stream blocks ``u_tail`` then ``z``
    (drawn immediately after the cause blocks).  Unlike the per-record
    :meth:`RepairModel.sample_seconds` this computes the lognormal body
    explicitly as ``np.exp(mu + sigma * z)`` — NumPy's
    ``Generator.lognormal`` uses the C library ``exp``, whose rounding
    can differ from ``np.exp``'s, and the reference engine of the
    equivalence suite must repeat every float op bit for bit.
    """

    def __init__(
        self,
        model: RepairModel,
        causes: Sequence[RootCause],
        hardware_type: HardwareType,
    ) -> None:
        config = model._config
        self._mu = np.array([model._params[cause][0] for cause in causes])
        self._sigma = np.array([model._params[cause][1] for cause in causes])
        self._tailable = np.array(
            [cause not in config.repair_no_tail_causes for cause in causes]
        )
        unknown_short = hardware_type not in config.unknown_era_types
        self._post_factor = np.array(
            [
                config.repair_type_factor[hardware_type]
                * (
                    config.repair_unknown_short_factor
                    if (cause is RootCause.UNKNOWN and unknown_short)
                    else 1.0
                )
                for cause in causes
            ]
        )
        self._tail_prob = config.repair_tail_prob
        self._mu_shift = config.repair_tail_mu_shift
        self._sigma_extra = config.repair_tail_sigma_extra
        self._floor = config.repair_floor_min
        self._ceiling = config.repair_ceiling_min

    def resolve_seconds(
        self, u_tail: np.ndarray, z: np.ndarray, cause_idx: np.ndarray
    ) -> np.ndarray:
        """Repair seconds for pre-drawn mark variates, one per cause index.

        The trace generator draws per-node mark blocks and resolves a
        whole system at once.
        """
        mu = self._mu[cause_idx]
        sigma = self._sigma[cause_idx]
        tail = self._tailable[cause_idx] & (u_tail < self._tail_prob)
        mu = np.where(tail, mu + self._mu_shift, mu)
        sigma = np.where(tail, sigma + self._sigma_extra, sigma)
        minutes = np.exp(mu + sigma * z)
        minutes = minutes * self._post_factor[cause_idx]
        minutes = np.minimum(np.maximum(minutes, self._floor), self._ceiling)
        return minutes * SECONDS_PER_MINUTE
