"""ddof=0 (population/MLE) variance convention across repro.stats.

Every standard deviation in the stats package is the population form:
``np.std`` with its default ``ddof=0``, matching the maximum-likelihood
scale estimators.  Mixing in a Bessel-corrected ``ddof=1`` anywhere
would silently skew empirical-vs-fitted comparisons, so these tests
pin the convention numerically and scan the package source so a future
edit cannot drift one call site without tripping CI.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import pytest

from repro.stats.empirical import EmpiricalDistribution
from repro.stats.fitting import fit_lognormal, fit_normal

STATS_DIR = Path(__file__).resolve().parents[2] / "src" / "repro" / "stats"

SAMPLE = np.array([1.0, 2.0, 2.5, 4.0, 7.5, 11.0, 30.0])


class TestNumericalConvention:
    def test_empirical_std_is_population_form(self):
        summary = EmpiricalDistribution.from_data(SAMPLE)
        assert summary.std == pytest.approx(np.std(SAMPLE, ddof=0))
        assert summary.std != pytest.approx(np.std(SAMPLE, ddof=1))
        assert summary.variance == pytest.approx(np.var(SAMPLE, ddof=0))

    def test_fit_normal_sigma_is_mle(self):
        result = fit_normal(SAMPLE)
        assert result.distribution.sigma == pytest.approx(
            np.std(SAMPLE, ddof=0)
        )

    def test_fit_lognormal_sigma_is_mle(self):
        result = fit_lognormal(SAMPLE)
        assert result.distribution.sigma == pytest.approx(
            np.std(np.log(SAMPLE), ddof=0)
        )

    def test_empirical_matches_fitted_normal_exactly(self):
        # The apples-to-apples contract: empirical std equals the MLE
        # sigma for the same data with no correction-factor mismatch.
        summary = EmpiricalDistribution.from_data(SAMPLE)
        fitted = fit_normal(SAMPLE)
        assert summary.std == pytest.approx(fitted.distribution.sigma)


class TestSourceDriftCatcher:
    _CALL = re.compile(r"\bnp\.(?:std|var)\s*\(")

    def _call_sites(self):
        for path in sorted(STATS_DIR.glob("*.py")):
            source = path.read_text(encoding="utf-8")
            for match in self._CALL.finditer(source):
                # Capture the full call's argument text (to the
                # matching close paren) so multi-line calls scan too.
                depth, end = 1, match.end()
                while depth and end < len(source):
                    if source[end] == "(":
                        depth += 1
                    elif source[end] == ")":
                        depth -= 1
                    end += 1
                yield path.name, source[match.start():end]

    def test_stats_package_has_std_call_sites(self):
        # The scan must actually be scanning something.
        names = {name for name, _ in self._call_sites()}
        assert {"empirical.py", "fitting.py"} <= names

    def test_no_call_site_overrides_ddof(self):
        offenders = [
            (name, call)
            for name, call in self._call_sites()
            if "ddof" in call and "ddof=0" not in call.replace(" ", "")
        ]
        assert not offenders, (
            "repro.stats uses the population (ddof=0) convention "
            f"everywhere; these call sites drifted: {offenders}"
        )
