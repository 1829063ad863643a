"""Maximum-likelihood fitting, implemented from scratch.

Closed forms where they exist (exponential, lognormal, normal, Poisson)
and profile-likelihood Newton iterations for the Weibull and gamma
shapes.  :func:`fit_all` fits the paper's four continuous candidates
and ranks them by negative log-likelihood — exactly the methodology of
Section 3.

Variance convention
-------------------
Every standard deviation in this package is the **population / MLE
form** (``np.std`` with its default ``ddof=0``), never the
Bessel-corrected ``ddof=1`` sample form.  MLE scale estimates divide
by n, and :class:`~repro.stats.empirical.EmpiricalDistribution`
matches so empirical-vs-fitted comparisons are apples to apples.
``tests/stats/test_ddof_consistency.py`` scans the package source to
keep this from drifting.

Zero handling
-------------
The Weibull, gamma and lognormal likelihoods require strictly positive
observations, but real interarrival data contains exact zeros
(simultaneous failures, Figure 6(c)).  :func:`prepare_positive` makes
the caller's policy explicit: ``"error"`` (default), ``"drop"``, or
``"clamp"`` to a small positive epsilon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Literal, Sequence, Tuple, Union

import numpy as np
from scipy import special

from repro.stats.errors import DegenerateSampleError
from repro.stats.distributions import (
    Distribution,
    Exponential,
    Gamma,
    LogNormal,
    Normal,
    Poisson,
    Weibull,
)
from repro.stats.gof import aic, bic, ks_statistic

__all__ = [
    "FitError",
    "DegenerateFitError",
    "FitResult",
    "prepare_positive",
    "fit_exponential",
    "fit_weibull",
    "fit_gamma",
    "fit_lognormal",
    "fit_normal",
    "fit_poisson",
    "fit_all",
    "fit_all_discrete",
]

ArrayLike = Union[Sequence[float], np.ndarray]
ZeroPolicy = Literal["error", "drop", "clamp"]


class FitError(ValueError):
    """Raised when a sample cannot be fitted."""


class DegenerateFitError(FitError, DegenerateSampleError):
    """The sample is too thin or flat to fit — a data condition, not a bug.

    Raised for too-few observations, all-equal values (zero spread),
    and non-positive sample means.  Being both a :class:`FitError` and
    a :class:`~repro.stats.errors.DegenerateSampleError`, it is caught
    by existing ``except FitError`` handlers while letting the report
    layer and robustness scorecards classify the failure as *degraded*
    (thin data) rather than *failed* (bug).
    """


@dataclass(frozen=True)
class FitResult:
    """A fitted distribution with its goodness-of-fit measures.

    Attributes
    ----------
    distribution:
        The fitted parametric distribution.
    nll:
        Negative log-likelihood of the data (lower is better; the
        paper's ranking criterion).
    aic / bic:
        Information criteria penalizing parameter count.
    ks:
        Kolmogorov-Smirnov statistic, max |ECDF - CDF|.
    n:
        Sample size the fit used.
    """

    distribution: Distribution
    nll: float
    aic: float
    bic: float
    ks: float
    n: int

    @property
    def name(self) -> str:
        """The distribution's short name."""
        return self.distribution.name

    def describe(self) -> str:
        """One-line rendering for fit-comparison tables."""
        return (
            f"{self.distribution.describe():<42} nll={self.nll:12.2f}  "
            f"AIC={self.aic:12.2f}  KS={self.ks:.4f}"
        )


def _as_clean_array(data: ArrayLike, minimum_size: int = 2) -> np.ndarray:
    values = np.asarray(data, dtype=float)
    if values.ndim != 1:
        values = values.ravel()
    if values.size < minimum_size:
        raise DegenerateFitError(
            f"need at least {minimum_size} observations, got {values.size}"
        )
    if not np.all(np.isfinite(values)):
        raise FitError("sample contains non-finite values")
    return values


def prepare_positive(
    data: ArrayLike,
    zero_policy: ZeroPolicy = "error",
    epsilon: float = 1.0,
) -> np.ndarray:
    """Return a strictly positive sample according to ``zero_policy``.

    Parameters
    ----------
    data:
        Raw observations, must be non-negative.
    zero_policy:
        ``"error"`` — raise on any non-positive value;
        ``"drop"`` — remove non-positive values;
        ``"clamp"`` — replace non-positive values with ``epsilon``.
    epsilon:
        The clamp value (default 1.0 — one second, well below the
        decades-of-seconds scale of interarrival data).
    """
    if zero_policy not in ("error", "drop", "clamp"):
        raise FitError(f"unknown zero_policy {zero_policy!r}")
    values = _as_clean_array(data)
    if np.any(values < 0):
        raise FitError("sample contains negative values")
    nonpositive = values <= 0
    if not np.any(nonpositive):
        return values
    if zero_policy == "error":
        raise FitError(
            f"sample contains {int(np.sum(nonpositive))} non-positive values; "
            'pass zero_policy="drop" or "clamp"'
        )
    if zero_policy == "drop":
        remaining = values[~nonpositive]
        if remaining.size < 2:
            raise DegenerateFitError(
                "fewer than 2 positive observations after dropping zeros"
            )
        return remaining
    if zero_policy == "clamp":
        if epsilon <= 0:
            raise FitError(f"epsilon must be positive, got {epsilon}")
        clamped = values.copy()
        clamped[nonpositive] = epsilon
        return clamped
    raise FitError(f"unknown zero_policy {zero_policy!r}")


def _make_result(distribution: Distribution, values: np.ndarray) -> FitResult:
    nll = distribution.nll(values)
    return FitResult(
        distribution=distribution,
        nll=nll,
        aic=aic(nll, distribution.n_params),
        bic=bic(nll, distribution.n_params, values.size),
        ks=ks_statistic(values, distribution),
        n=int(values.size),
    )


# Closed-form fitters ------------------------------------------------------------


def fit_exponential(data: ArrayLike) -> FitResult:
    """MLE exponential fit: scale = sample mean."""
    values = _as_clean_array(data)
    if np.any(values < 0):
        raise FitError("exponential requires non-negative data")
    mean = float(np.mean(values))
    if mean <= 0:
        raise DegenerateFitError("exponential requires positive sample mean")
    return _make_result(Exponential(scale=mean), values)


def fit_lognormal(data: ArrayLike) -> FitResult:
    """MLE lognormal fit: mu, sigma are the mean/std of log data.

    sigma is the population standard deviation (``ddof=0``) — the
    maximum-likelihood estimator, not the Bessel-corrected sample form.
    Every fitter in :mod:`repro.stats` uses this convention.
    """
    values = _as_clean_array(data)
    if np.any(values <= 0):
        raise FitError("lognormal requires strictly positive data (see prepare_positive)")
    logs = np.log(values)
    mu = float(np.mean(logs))
    sigma = float(np.std(logs))  # ddof=0: MLE convention
    if sigma <= 0:
        raise DegenerateFitError("degenerate sample (all values equal)")
    return _make_result(LogNormal(mu=mu, sigma=sigma), values)


def fit_normal(data: ArrayLike) -> FitResult:
    """MLE normal fit: sample mean and population std (``ddof=0``)."""
    values = _as_clean_array(data)
    sigma = float(np.std(values))  # ddof=0: MLE convention
    if sigma <= 0:
        raise DegenerateFitError("degenerate sample (all values equal)")
    return _make_result(Normal(mu=float(np.mean(values)), sigma=sigma), values)


def fit_poisson(data: ArrayLike) -> FitResult:
    """MLE Poisson fit on integer counts: rate = sample mean."""
    values = _as_clean_array(data)
    if np.any(values < 0) or not np.allclose(values, np.round(values)):
        raise FitError("Poisson requires non-negative integer counts")
    rate = float(np.mean(values))
    if rate <= 0:
        raise DegenerateFitError("Poisson requires a positive sample mean")
    return _make_result(Poisson(rate=rate), values)


# Newton fitters ------------------------------------------------------------------


def _weibull_shape_equation(k: float, values: np.ndarray, mean_log: float) -> Tuple[float, float]:
    """Value and derivative of the Weibull profile-likelihood equation.

    The MLE shape k solves  sum(x^k ln x)/sum(x^k) - 1/k - mean(ln x) = 0.
    Computed in a numerically stable way by factoring out max(x)^k.
    """
    logs = np.log(values)
    # Stabilize x^k by shifting in log space.
    shifted = np.exp(k * (logs - np.max(logs)))
    s0 = float(np.sum(shifted))
    s1 = float(np.sum(shifted * logs))
    s2 = float(np.sum(shifted * logs**2))
    g = s1 / s0 - 1.0 / k - mean_log
    g_prime = (s2 * s0 - s1**2) / s0**2 + 1.0 / k**2
    return g, g_prime


def fit_weibull(
    data: ArrayLike, tolerance: float = 1e-10, max_iterations: int = 200
) -> FitResult:
    """MLE Weibull fit via Newton iteration on the profile likelihood.

    Starts from the standard moment-style initial guess
    k0 = 1.2 / std(ln x) and falls back to bisection if Newton leaves
    the bracket.  With the shape known, the scale has the closed form
    scale = (mean(x^k))^(1/k).
    """
    values = prepare_positive(data)
    logs = np.log(values)
    mean_log = float(np.mean(logs))
    std_log = float(np.std(logs))  # ddof=0: MLE convention
    if std_log <= 0:
        raise DegenerateFitError("degenerate sample (all values equal)")
    k = 1.2 / std_log

    low, high = 1e-3, 1e3
    for _ in range(max_iterations):
        g, g_prime = _weibull_shape_equation(k, values, mean_log)
        if g == 0.0:
            # k is the root.  Below, it would become the bracket's open
            # end, and bisection would walk back to it from the midpoint.
            break
        # Maintain the bisection bracket: g is increasing in -1/k term...
        # empirically g(k) is monotone increasing in k for positive data.
        if g > 0:
            high = min(high, k)
        else:
            low = max(low, k)
        step = g / g_prime
        k_next = k - step
        if not (low < k_next < high):
            k_next = 0.5 * (low + high)
        if abs(k_next - k) < tolerance * max(1.0, k):
            k = k_next
            break
        k = k_next
    shape = float(k)
    # Stable scale computation: mean(x^k) via log-space shift.
    max_log = float(np.max(logs))
    mean_pow = float(np.mean(np.exp(shape * (logs - max_log))))
    scale = math.exp(max_log + math.log(mean_pow) / shape)
    return _make_result(Weibull(shape=shape, scale=scale), values)


def fit_gamma(
    data: ArrayLike, tolerance: float = 1e-10, max_iterations: int = 200
) -> FitResult:
    """MLE gamma fit via Newton iteration on the shape equation.

    The MLE shape k solves  ln(k) - digamma(k) = ln(mean x) - mean(ln x),
    started from the Minka/Greenwood-Durand approximation; the scale is
    then mean(x) / k.
    """
    values = prepare_positive(data)
    mean = float(np.mean(values))
    mean_log = float(np.mean(np.log(values)))
    s = math.log(mean) - mean_log
    # s = log E[x] - E[log x] >= 0, zero iff the sample is constant.
    # A near-constant sample leaves s a rounding-noise positive, which
    # sends Minka's initialization to k ~ 1/(2s) and underflows the
    # Newton derivative — treat it as degenerate too.
    if s <= 1e-12:
        raise DegenerateFitError("degenerate sample (zero log-spread)")
    # Minka's initialization.
    k = (3.0 - s + math.sqrt((s - 3.0) ** 2 + 24.0 * s)) / (12.0 * s)
    for _ in range(max_iterations):
        g = math.log(k) - float(special.digamma(k)) - s
        g_prime = 1.0 / k - float(special.polygamma(1, k))
        if g_prime == 0.0 or not math.isfinite(g_prime):
            break
        step = g / g_prime
        k_next = k - step
        if k_next <= 0:
            k_next = k / 2.0
        if abs(k_next - k) < tolerance * max(1.0, k):
            k = k_next
            break
        k = k_next
    shape = float(k)
    return _make_result(Gamma(shape=shape, scale=mean / shape), values)


# Ranked fitting ------------------------------------------------------------------

#: The paper's four candidate distributions for durations.
CONTINUOUS_FITTERS = {
    "exponential": fit_exponential,
    "weibull": fit_weibull,
    "gamma": fit_gamma,
    "lognormal": fit_lognormal,
}

#: Candidates for the per-node failure-count analysis (Figure 3(b)).
COUNT_FITTERS = {
    "poisson": fit_poisson,
    "normal": fit_normal,
    "lognormal": fit_lognormal,
}


def _raise_no_candidate(errors: List[FitError]) -> None:
    """Raise the right "no candidate" error for the collected failures.

    Degenerate only when *every* candidate failed on a degenerate
    sample: one non-degenerate failure means something other than thin
    data went wrong, and that must not be reported as "data too thin".
    """
    if errors and all(
        isinstance(error, DegenerateSampleError) for error in errors
    ):
        raise DegenerateFitError("no candidate distribution could be fitted")
    raise FitError("no candidate distribution could be fitted")


def _fit_ranked(
    fitters: Dict[str, object], values: np.ndarray
) -> List[FitResult]:
    results = []
    errors: List[FitError] = []
    for name, fitter in fitters.items():
        try:
            results.append(fitter(values))
        except FitError as exc:
            # A candidate that cannot be fitted (e.g. lognormal on data
            # with zeros) is simply excluded from the ranking.
            errors.append(exc)
            continue
    if not results:
        _raise_no_candidate(errors)
    results.sort(key=lambda result: result.nll)
    return results


def fit_all(
    data: ArrayLike,
    zero_policy: ZeroPolicy = "error",
    epsilon: float = 1.0,
) -> List[FitResult]:
    """Fit exponential, Weibull, gamma and lognormal; rank by NLL.

    This is the paper's Section 3 methodology in one call.  The best
    fit is ``fit_all(data)[0]``.
    """
    values = prepare_positive(data, zero_policy=zero_policy, epsilon=epsilon)
    return _fit_ranked(CONTINUOUS_FITTERS, values)


def fit_all_discrete(data: ArrayLike) -> List[FitResult]:
    """Fit Poisson, normal and lognormal to counts; rank by NLL.

    The candidate set of Figure 3(b).  Lognormal drops zero counts if
    present (it cannot support them), which matches the figure's use of
    nodes with at least one failure.
    """
    values = _as_clean_array(data)
    results = []
    errors: List[FitError] = []
    for name, fitter in COUNT_FITTERS.items():
        try:
            if name == "lognormal":
                results.append(fitter(prepare_positive(values, zero_policy="drop")))
            else:
                results.append(fitter(values))
        except FitError as exc:
            errors.append(exc)
            continue
    if not results:
        _raise_no_candidate(errors)
    results.sort(key=lambda result: result.nll)
    return results
