"""Statistics substrate: the paper's methodology (Section 3).

The paper characterizes empirical distributions by mean, median and the
squared coefficient of variation (C²), and fits four standard
distributions — exponential, Weibull, gamma, lognormal — by maximum
likelihood, ranking fits by negative log-likelihood.  This subpackage
implements all of that from scratch on numpy, using scipy only for
special functions (``gammaln``, ``digamma``, ``erf`` and inverses):

* :class:`~repro.stats.empirical.EmpiricalDistribution` — summary
  statistics and the empirical CDF.
* :mod:`~repro.stats.distributions` — parametric distributions with
  pdf/cdf/hazard/sampling.
* :mod:`~repro.stats.fitting` — MLE fitters and the
  :func:`~repro.stats.fitting.fit_all` ranking API.
* :mod:`~repro.stats.gof` — negative log-likelihood, AIC/BIC, KS.
* :mod:`~repro.stats.hazard` — hazard-rate analysis (the decreasing-
  hazard finding is one of the paper's headline results).
* :mod:`~repro.stats.bootstrap` — nonparametric bootstrap CIs.
* :mod:`~repro.stats.sketch` — mergeable bounded-memory accumulators
  (moments, log-bucket quantile histogram, grouped counts/sums, and
  samples kept exactly up to a fixed size) for out-of-core analysis.
* :mod:`~repro.stats.streamfit` — the same MLE fits computed from
  sketches instead of materialized samples.
"""

from repro.stats.empirical import EmpiricalDistribution, empirical_cdf
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
    FitOutcome,
    FitResult,
    describe_fits,
    fit_all,
    fit_all_discrete,
    fit_all_discrete_safe,
    fit_all_safe,
    fit_exponential,
    fit_gamma,
    fit_lognormal,
    fit_normal,
    fit_poisson,
    fit_weibull,
    prepare_positive,
)
from repro.stats.censoring import (
    censored_nll,
    fit_all_censored,
    fit_exponential_censored,
    fit_gamma_censored,
    fit_lognormal_censored,
    fit_weibull_censored,
)
from repro.stats.gof import (
    aic,
    aic_weights,
    bic,
    ks_statistic,
    likelihood_ratio_pvalue,
    log_likelihood,
)
from repro.stats.sketch import (
    GroupedCounts,
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
from repro.stats.hazard import HazardDirection, empirical_hazard, hazard_direction
from repro.stats.kaplan_meier import KaplanMeier, kaplan_meier
from repro.stats.trend import TrendResult, mann_kendall
from repro.stats.bootstrap import bootstrap_ci

__all__ = [
    "EmpiricalDistribution",
    "empirical_cdf",
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
    "FitOutcome",
    "FitResult",
    "describe_fits",
    "fit_exponential",
    "fit_weibull",
    "fit_gamma",
    "fit_lognormal",
    "fit_normal",
    "fit_poisson",
    "fit_all",
    "fit_all_discrete",
    "fit_all_safe",
    "fit_all_discrete_safe",
    "prepare_positive",
    "censored_nll",
    "fit_exponential_censored",
    "fit_weibull_censored",
    "fit_gamma_censored",
    "fit_lognormal_censored",
    "fit_all_censored",
    "log_likelihood",
    "aic",
    "aic_weights",
    "bic",
    "ks_statistic",
    "likelihood_ratio_pvalue",
    "KaplanMeier",
    "kaplan_meier",
    "TrendResult",
    "mann_kendall",
    "HazardDirection",
    "empirical_hazard",
    "hazard_direction",
    "bootstrap_ci",
    "MomentSketch",
    "LogBucketSketch",
    "GroupedCounts",
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
