"""Degenerate-sample regression tests: typed errors, not NaN/crash.

A single-failure system, an all-zero window, a node that never fails —
these used to surface as bare ``ValueError`` or a ``ZeroDivisionError``
depending on the code path.  They must now raise
:class:`~repro.analysis.errors.DegenerateSampleError` (a ``ValueError``
subclass, so existing handlers keep working) with a message naming the
requirement that failed.
"""

from __future__ import annotations

import pytest

from repro.analysis import DegenerateSampleError
from repro.analysis.rates import (
    _coefficient_of_variation,
    normalized_variability,
    rate_size_correlation,
)
from repro.records.record import FailureRecord, RootCause
from repro.records.trace import FailureTrace


def record(start, node=0, system=20):
    return FailureRecord(
        start_time=start, end_time=start + 60.0, system_id=system,
        node_id=node, root_cause=RootCause.HARDWARE,
    )


@pytest.fixture()
def single_failure_trace():
    """A trace where exactly one system has exactly one failure."""
    return FailureTrace([record(1.6e8, node=1, system=20)])


class TestErrorType:
    def test_subclasses_value_error(self):
        assert issubclass(DegenerateSampleError, ValueError)

    def test_catchable_as_value_error(self, single_failure_trace):
        with pytest.raises(ValueError):
            normalized_variability(single_failure_trace)


class TestRates:
    def test_cv_rejects_single_observation(self):
        import numpy as np

        with pytest.raises(DegenerateSampleError, match=">= 2 observations"):
            _coefficient_of_variation(np.array([1.0]))

    def test_cv_rejects_zero_mean(self):
        import numpy as np

        with pytest.raises(DegenerateSampleError, match="zero-mean"):
            _coefficient_of_variation(np.array([0.0, 0.0]))

    def test_variability_needs_two_failing_systems(self, single_failure_trace):
        with pytest.raises(DegenerateSampleError, match="at least 2 systems"):
            normalized_variability(single_failure_trace)

    def test_correlation_needs_three_failing_systems(self, single_failure_trace):
        with pytest.raises(DegenerateSampleError, match="at least 3 systems"):
            rate_size_correlation(single_failure_trace)

    def test_healthy_trace_unaffected(self, small_trace, full_trace):
        result = normalized_variability(small_trace)
        assert result["raw"] > 0
        assert -1.0 <= rate_size_correlation(full_trace) <= 1.0
