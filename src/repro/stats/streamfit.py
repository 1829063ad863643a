"""Maximum-likelihood fitting from sketches.

The streaming counterpart of :mod:`repro.stats.fitting`: every fitter
here consumes a :class:`~repro.stats.sketch.SampleSketch` (bounded
memory, built chunk-by-chunk over a columnar store) instead of a
materialized sample, and returns the same :class:`FitResult` objects so
report code is agnostic about which path produced a fit.

While the sketch still holds its values (at most
:data:`~repro.stats.sketch.EXACT_LIMIT` of them),
:func:`sketch_empirical` and :func:`sketch_fit_all` hand those values
to :meth:`EmpiricalDistribution.from_data` and to the ranking of
:func:`~repro.stats.fitting.fit_all`, the code an in-memory analysis
runs, so the results are the in-memory results; the fits take their
order from the sketch's sorted copy.  The rest of this module is what
they fall back to past the limit.

Exactness
---------
The exponential, lognormal and gamma MLEs depend on the sample only
through ``n``, ``sum(x)`` and ``sum(log x)`` — which the sketch sums
over every value once it has passed the limit — so their parameters
and negative log-likelihoods match the materialized fits to
floating-point noise.  Closed forms used (with
``n`` the count, ``S`` = sum(x), ``L`` = sum(log x), all over the
clamped sample, mirroring ``fit_all``'s ``prepare_positive`` step):

* exponential, scale = mean:  nll = n (log mean + 1)
* lognormal, mu = mean(log x), sigma = std(log x):
  nll = L + n log sigma + n log sqrt(2 pi) + n/2
  (the z² sum collapses to n at the MLE)
* gamma, Newton on log k - digamma(k) = log(mean) - mean(log x):
  nll = -(k-1) L + S/theta + n lgamma(k) + n k log theta

The Weibull profile likelihood needs ``sum(x^k)`` for varying k, which
no fixed-size exact summary provides; its Newton iteration runs over
the log-bucket histogram's weighted representatives instead, making the
shape/scale accurate to the histogram's relative-error bound
(:data:`~repro.stats.sketch.QUANTILE_RELATIVE_ERROR`).  The KS
statistic is likewise computed against the histogram's weighted ECDF
for every candidate.

Degenerate-sample behaviour mirrors :mod:`repro.stats.fitting` exactly:
the same :class:`DegenerateFitError` conditions and messages, and the
same "degenerate only if every candidate was degenerate" ranking
semantics.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List

import numpy as np
from scipy import special

from repro.stats.empirical import EmpiricalDistribution
from repro.stats.distributions import (
    Distribution,
    Exponential,
    Gamma,
    LogNormal,
    Weibull,
)
from repro.stats.fitting import (
    CONTINUOUS_ESTIMATORS,
    DegenerateFitError,
    FitError,
    FitResult,
    _clamped_order,
    _fit_ranked,
    _gamma_shape,
    _raise_no_candidate,
    _weibull_shape,
    _weibull_shape_equation,
    prepare_positive,
)
from repro.stats.gof import aic, bic
from repro.stats.sketch import LogBucketSketch, SampleSketch

__all__ = [
    "sketch_ks",
    "sketch_empirical",
    "sketch_fit_exponential",
    "sketch_fit_weibull",
    "sketch_fit_gamma",
    "sketch_fit_lognormal",
    "sketch_fit_all",
    "SKETCH_FITTERS",
]

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def sketch_ks(histogram: LogBucketSketch, distribution: Distribution) -> float:
    """KS statistic of a histogram's weighted ECDF against a CDF.

    The sketched analogue of :func:`repro.stats.gof.ks_statistic`:
    evaluated at the occupied buckets' representative values using both
    limits of the weighted empirical step function.
    """
    values, counts = histogram.representatives()
    if values.size == 0:
        raise ValueError("ks_statistic requires at least one observation")
    n = float(histogram.count)
    cumulative = np.cumsum(counts).astype(float)
    upper = cumulative / n
    lower = (cumulative - counts) / n
    cdf = np.asarray(distribution.cdf(values), dtype=float)
    return float(np.max(np.maximum(np.abs(upper - cdf), np.abs(cdf - lower))))


def sketch_empirical(sketch: SampleSketch) -> EmpiricalDistribution:
    """An :class:`EmpiricalDistribution` summary of a sketched sample.

    :meth:`EmpiricalDistribution.from_data` of the held values when the
    sketch has them.  Otherwise count, mean, std, min and max come from
    the *raw* moment sketch and are exact; the median comes from the
    log-bucket histogram and is accurate to its relative-error bound.
    When the median rank falls inside the sample's exact-zero block the
    median is reported as 0.0 (the histogram only sees the clamped
    values).
    """
    values = sketch.values
    if values is not None:
        return EmpiricalDistribution.from_data(values)
    raw = sketch.raw
    if raw.count == 0:
        raise ValueError("cannot summarize an empty sample")
    if 0.5 * (raw.count - 1) < sketch.nonpositive:
        median = 0.0
    else:
        median = sketch.histogram.median
    return EmpiricalDistribution(
        count=raw.count,
        mean=raw.mean,
        median=median,
        std=raw.std,
        minimum=raw.minimum,
        maximum=raw.maximum,
    )


def _require_sample(sketch: SampleSketch) -> int:
    n = sketch.clamped.count
    if n < 2:
        raise DegenerateFitError(
            f"need at least 2 observations, got {n}"
        )
    return n


def _sketch_result(
    distribution: Distribution, nll: float, sketch: SampleSketch
) -> FitResult:
    n = sketch.clamped.count
    return FitResult(
        distribution=distribution,
        nll=nll,
        aic=aic(nll, distribution.n_params),
        bic=bic(nll, distribution.n_params, n),
        ks=sketch_ks(sketch.histogram, distribution),
        n=n,
    )


def sketch_fit_exponential(sketch: SampleSketch) -> FitResult:
    """Streaming MLE exponential fit: scale = clamped sample mean."""
    n = _require_sample(sketch)
    mean = sketch.clamped.mean
    if mean <= 0:
        raise DegenerateFitError("exponential requires positive sample mean")
    nll = n * (math.log(mean) + 1.0)
    return _sketch_result(Exponential(scale=mean), nll, sketch)


def sketch_fit_lognormal(sketch: SampleSketch) -> FitResult:
    """Streaming MLE lognormal fit from the log-moment sketch."""
    n = _require_sample(sketch)
    mu = sketch.log_clamped.mean
    sigma = sketch.log_clamped.std  # ddof=0: MLE convention
    if sigma <= 0:
        raise DegenerateFitError("degenerate sample (all values equal)")
    nll = (
        sketch.log_clamped.total
        + n * math.log(sigma)
        + n * _LOG_SQRT_2PI
        + 0.5 * n
    )
    return _sketch_result(LogNormal(mu=mu, sigma=sigma), nll, sketch)


def sketch_fit_gamma(
    sketch: SampleSketch, tolerance: float = 1e-10, max_iterations: int = 200
) -> FitResult:
    """Streaming MLE gamma fit — exact, the shape equation needs only
    ``log(mean)`` and ``mean(log x)``."""
    n = _require_sample(sketch)
    mean = sketch.clamped.mean
    mean_log = sketch.log_clamped.mean
    shape = _gamma_shape(math.log(mean) - mean_log, tolerance, max_iterations)
    scale = mean / shape
    nll = (
        -(shape - 1.0) * sketch.log_clamped.total
        + sketch.clamped.total / scale
        + n * float(special.gammaln(shape))
        + n * shape * math.log(scale)
    )
    return _sketch_result(Gamma(shape=shape, scale=scale), nll, sketch)


def sketch_fit_weibull(
    sketch: SampleSketch, tolerance: float = 1e-10, max_iterations: int = 200
) -> FitResult:
    """Streaming Weibull fit: Newton over histogram representatives.

    The profile-likelihood sums ``sum(x^k ...)`` are evaluated over the
    weighted bucket representatives (the one approximate step), while
    ``mean(log x)`` and ``std(log x)`` come exactly from the log-moment
    sketch.  Same bracketed Newton and stabilized scale computation as
    :func:`repro.stats.fitting.fit_weibull`.
    """
    n = _require_sample(sketch)
    mean_log = sketch.log_clamped.mean
    std_log = sketch.log_clamped.std  # ddof=0: MLE convention
    if std_log <= 0:
        raise DegenerateFitError("degenerate sample (all values equal)")
    values, counts = sketch.histogram.representatives()
    logs = np.log(values)
    weights = counts.astype(float)
    equation = _weibull_shape_equation(logs, mean_log, weights)
    shape = _weibull_shape(equation, 1.2 / std_log, tolerance, max_iterations)
    max_log = float(np.max(logs))
    mean_pow = float(np.sum(weights * np.exp(shape * (logs - max_log)))) / n
    scale = math.exp(max_log + math.log(mean_pow) / shape)
    # At the fitted scale, sum over the weighted sample of (x/scale)^k
    # is exactly n, so the likelihood's power-sum term collapses.
    nll = (
        -n * math.log(shape)
        + shape * n * math.log(scale)
        - (shape - 1.0) * sketch.log_clamped.total
        + n
    )
    return _sketch_result(Weibull(shape=shape, scale=scale), nll, sketch)


#: Streaming counterparts of fitting.CONTINUOUS_ESTIMATORS, same order.
SKETCH_FITTERS: Dict[str, Callable[[SampleSketch], FitResult]] = {
    "exponential": sketch_fit_exponential,
    "weibull": sketch_fit_weibull,
    "gamma": sketch_fit_gamma,
    "lognormal": sketch_fit_lognormal,
}


def sketch_fit_all(sketch: SampleSketch) -> List[FitResult]:
    """Fit the paper's four continuous candidates from a sketch.

    :func:`repro.stats.fitting.fit_all` of the held values, with the
    sketch's clamp, when the sketch has them; otherwise its streaming
    mirror — zero handling is already encoded in the sketch's clamp, so
    there is no ``zero_policy`` argument.  Results are ranked by NLL.
    """
    values = sketch.values
    if values is not None:
        epsilon = sketch.clamp_epsilon
        clamped = prepare_positive(values, zero_policy="clamp", epsilon=epsilon)
        ordered = _clamped_order(sketch.ordered, epsilon)
        return _fit_ranked(CONTINUOUS_ESTIMATORS, lambda name: (clamped, ordered))
    results: List[FitResult] = []
    errors: List[FitError] = []
    for _name, fitter in SKETCH_FITTERS.items():
        try:
            results.append(fitter(sketch))
        except FitError as exc:
            errors.append(exc)
            continue
    if not results:
        _raise_no_candidate(errors)
    results.sort(key=lambda result: result.nll)
    return results

