"""Statistics substrate: the paper's methodology (Section 3).

The paper characterizes empirical distributions by mean, median and the
squared coefficient of variation (C²), and fits four standard
distributions — exponential, Weibull, gamma, lognormal — by maximum
likelihood, ranking fits by negative log-likelihood.  This subpackage
implements all of that from scratch on numpy, using scipy only for
special functions (``gammaln``, ``digamma``, ``erf`` and inverses):

* :class:`~repro.stats.empirical.EmpiricalDistribution` — mean,
  median and C².
* :mod:`~repro.stats.distributions` — parametric distributions with
  pdf/cdf/hazard/sampling.
* :mod:`~repro.stats.fitting` — MLE fitters and the
  :func:`~repro.stats.fitting.fit_all` ranking API.
* :mod:`~repro.stats.gof` — AIC/BIC and the KS statistic.
* :mod:`~repro.stats.hazard` — the hazard direction of a fitted
  distribution (the decreasing-hazard finding is one of the paper's
  headline results).
* :mod:`~repro.stats.sketch` — bounded-memory accumulators (moments,
  log-bucket quantile histogram, and samples kept exactly up to a
  fixed size) for out-of-core analysis.
* :mod:`~repro.stats.streamfit` — the same MLE fits computed from
  sketches instead of materialized samples.
"""

from repro.stats.empirical import EmpiricalDistribution
from repro.stats.distributions import (
    Distribution,
    Exponential,
    Gamma,
    LogNormal,
    Normal,
    Poisson,
    Weibull,
)
from repro.stats.errors import DegenerateSampleError, DegenerateStatisticError
from repro.stats.fitting import (
    DegenerateFitError,
    FitError,
    FitResult,
    fit_all,
    fit_all_discrete,
    fit_exponential,
    fit_gamma,
    fit_lognormal,
    fit_normal,
    fit_poisson,
    fit_weibull,
    prepare_positive,
)
from repro.stats.gof import aic, bic, ks_statistic
from repro.stats.sketch import (
    LogBucketSketch,
    MomentSketch,
    QUANTILE_RELATIVE_ERROR,
    SampleSketch,
)
from repro.stats.streamfit import (
    sketch_empirical,
    sketch_fit_all,
    sketch_fit_exponential,
    sketch_fit_gamma,
    sketch_fit_lognormal,
    sketch_fit_weibull,
    sketch_ks,
)
from repro.stats.hazard import HazardDirection, hazard_direction

__all__ = [
    "EmpiricalDistribution",
    "Distribution",
    "Exponential",
    "Weibull",
    "Gamma",
    "LogNormal",
    "Normal",
    "Poisson",
    "DegenerateFitError",
    "DegenerateSampleError",
    "DegenerateStatisticError",
    "FitError",
    "FitResult",
    "fit_exponential",
    "fit_weibull",
    "fit_gamma",
    "fit_lognormal",
    "fit_normal",
    "fit_poisson",
    "fit_all",
    "fit_all_discrete",
    "prepare_positive",
    "aic",
    "bic",
    "ks_statistic",
    "HazardDirection",
    "hazard_direction",
    "MomentSketch",
    "LogBucketSketch",
    "SampleSketch",
    "QUANTILE_RELATIVE_ERROR",
    "sketch_empirical",
    "sketch_ks",
    "sketch_fit_exponential",
    "sketch_fit_weibull",
    "sketch_fit_gamma",
    "sketch_fit_lognormal",
    "sketch_fit_all",
]
