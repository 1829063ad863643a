"""Tests for burst extraction."""

import pytest

from repro.analysis.burstiness import burst_size_distribution, extract_bursts
from repro.records.record import FailureRecord, RootCause
from repro.records.trace import FailureTrace


def record(start, node=0, system=20):
    return FailureRecord(
        start_time=start, end_time=start + 60.0, system_id=system,
        node_id=node, root_cause=RootCause.HARDWARE,
    )


class TestExtractBursts:
    def test_simultaneous_events_group(self):
        trace = FailureTrace([
            record(1e8, node=1), record(1e8, node=2), record(1e8, node=3),
            record(1.1e8, node=4),
        ])
        bursts = extract_bursts(trace)
        assert len(bursts) == 2
        assert bursts[0].size == 3
        assert bursts[0].node_ids == (1, 2, 3)
        assert bursts[0].is_multi_node
        assert not bursts[1].is_multi_node

    def test_window_coalesces_near_events(self):
        trace = FailureTrace([record(1e8, node=1), record(1e8 + 30.0, node=2)])
        assert len(extract_bursts(trace, window=0.0)) == 2
        assert len(extract_bursts(trace, window=60.0)) == 1

    def test_empty_trace(self):
        assert extract_bursts(FailureTrace([])) == []

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError):
            extract_bursts(FailureTrace([record(1e8)]), window=-1.0)

    def test_size_counts_records_not_nodes(self):
        # Same node twice in a burst: size 2, one distinct node.
        trace = FailureTrace([record(1e8, node=5), record(1e8, node=5)])
        bursts = extract_bursts(trace)
        assert bursts[0].size == 2
        assert bursts[0].node_ids == (5,)


class TestBurstStatistics:
    def test_size_distribution(self):
        trace = FailureTrace([
            record(1e8, node=1), record(1e8, node=2),
            record(1.1e8, node=3),
            record(1.2e8, node=4),
        ])
        assert burst_size_distribution(trace) == {2: 1, 1: 2}
