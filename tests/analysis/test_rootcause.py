"""Tests for root-cause breakdowns (Figure 1, Section 4)."""

from collections import Counter

import pytest

from repro.analysis.rootcause import (
    breakdown_by_hardware_type,
    downtime_breakdown_by_hardware_type,
)
from repro.records.record import (
    FailureRecord,
    LowLevelCause,
    RootCause,
)
from repro.records.system import HardwareType
from repro.records.trace import FailureTrace


def record(start, system=20, cause=RootCause.HARDWARE, detail=None, duration=600.0):
    return FailureRecord(
        start_time=start, end_time=start + duration, system_id=system, node_id=0,
        root_cause=cause, low_level_cause=detail,
    )


class TestBreakdownSmall:
    def make_trace(self):
        return FailureTrace(
            [
                record(1e8, cause=RootCause.HARDWARE, detail=LowLevelCause.MEMORY),
                record(1.1e8, cause=RootCause.HARDWARE, detail=LowLevelCause.CPU),
                record(1.2e8, cause=RootCause.SOFTWARE,
                       detail=LowLevelCause.OPERATING_SYSTEM, duration=6000.0),
                record(1.3e8, cause=RootCause.UNKNOWN),
            ]
        )

    def test_count_percentages(self):
        result = breakdown_by_hardware_type(self.make_trace())
        overall = result["All systems"]
        assert overall.percent(RootCause.HARDWARE) == pytest.approx(50.0)
        assert overall.percent(RootCause.SOFTWARE) == pytest.approx(25.0)
        assert overall.percent(RootCause.UNKNOWN) == pytest.approx(25.0)
        assert overall.percent(RootCause.HUMAN) == 0.0

    def test_percentages_sum_to_100(self):
        for breakdown in breakdown_by_hardware_type(self.make_trace()).values():
            assert sum(breakdown.percentages.values()) == pytest.approx(100.0)

    def test_downtime_weights_by_duration(self):
        result = downtime_breakdown_by_hardware_type(self.make_trace())
        overall = result["All systems"]
        # Software: 6000 of 7800 total seconds.
        assert overall.percent(RootCause.SOFTWARE) == pytest.approx(100 * 6000 / 7800)

    def test_only_types_with_records_present(self):
        result = breakdown_by_hardware_type(self.make_trace())
        assert "G" in result  # system 20 is type G
        assert "E" not in result

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            breakdown_by_hardware_type(FailureTrace([]))


def low_level_shares(trace, hardware_type, cause=None):
    """Share of a type's failures (of one cause, if given) per low-level cause.

    Records without a low-level cause count in the denominator only,
    matching Section 4's "X% of all failures were due to memory".
    """
    sub = trace.filter_hardware(hardware_type)
    if cause is not None:
        sub = sub.filter_cause(cause)
    counts = Counter(r.low_level_cause for r in sub if r.low_level_cause is not None)
    return {detail: count / len(sub) for detail, count in counts.most_common()}


class TestOnSyntheticTrace:
    """Section 4's claims hold on the full synthetic trace."""

    def test_hardware_largest_everywhere(self, full_trace):
        for label, breakdown in breakdown_by_hardware_type(full_trace).items():
            assert breakdown.percent(RootCause.HARDWARE) == max(
                breakdown.percentages.values()
            )

    def test_hardware_range_30_to_65(self, full_trace):
        for breakdown in breakdown_by_hardware_type(full_trace).values():
            assert 25.0 <= breakdown.percent(RootCause.HARDWARE) <= 70.0

    def test_type_e_unknown_under_5(self, full_trace):
        result = breakdown_by_hardware_type(full_trace)
        assert result["E"].percent(RootCause.UNKNOWN) < 6.0

    def test_memory_over_10_percent_everywhere(self, full_trace):
        # Section 4: > 10% of all failures due to memory in all systems
        # (except type E which the CPU design flaw dominates).
        for hardware_type in (HardwareType.D, HardwareType.F, HardwareType.G, HardwareType.H):
            shares = low_level_shares(full_trace, hardware_type)
            assert shares[LowLevelCause.MEMORY] > 0.08

    def test_memory_over_25_percent_f_and_h(self, full_trace):
        for hardware_type in (HardwareType.F, HardwareType.H):
            shares = low_level_shares(full_trace, hardware_type)
            assert shares[LowLevelCause.MEMORY] > 0.2

    def test_type_e_cpu_over_50_percent(self, full_trace):
        shares = low_level_shares(full_trace, HardwareType.E)
        assert shares[LowLevelCause.CPU] > 0.45

    def test_dominant_software_causes(self, full_trace):
        def top(hardware_type):
            shares = low_level_shares(full_trace, hardware_type, RootCause.SOFTWARE)
            return next(iter(shares))

        assert top(HardwareType.F) is LowLevelCause.PARALLEL_FILESYSTEM
        assert top(HardwareType.E) is LowLevelCause.OPERATING_SYSTEM

    def test_unknown_downtime_share_below_count_share(self, full_trace):
        # Figure 1(b) vs 1(a): unknown causes contribute less downtime
        # than their failure-count share (they skew short).
        counts = breakdown_by_hardware_type(full_trace)["All systems"]
        downtime = downtime_breakdown_by_hardware_type(full_trace)["All systems"]
        assert downtime.percent(RootCause.UNKNOWN) <= counts.percent(RootCause.UNKNOWN) * 1.5
