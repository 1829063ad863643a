"""Metrics registry: counters, gauges, deterministic histograms."""

from __future__ import annotations

import pytest

from repro.obs.registry import BUCKET_EDGES, Histogram, MetricsRegistry


class TestCounter:
    def test_accumulates(self):
        registry = MetricsRegistry()
        registry.counter("rows").add(3)
        registry.counter("rows").add()
        assert registry.counter("rows").value == 4

    def test_rejects_negative(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="cannot decrease"):
            registry.counter("rows").add(-1)


class TestGauge:
    def test_last_write_wins(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("workers")
        assert gauge.to_value() is None
        gauge.set(4)
        gauge.set(2)
        assert gauge.to_value() == 2


class TestHistogram:
    def test_moments_and_buckets(self):
        histogram = Histogram("wall")
        for value in (0.001, 0.002, 5.0, 1e12):
            histogram.observe(value)
        value = histogram.to_value()
        assert value["count"] == 4
        assert value["sum"] == pytest.approx(5.003 + 1e12)
        assert value["min"] == 0.001
        assert value["max"] == 1e12
        assert sum(value["buckets"].values()) == 4

    def test_underflow_and_overflow(self):
        histogram = Histogram("wall")
        histogram.observe(0.0)       # below the table
        histogram.observe(-3.0)      # below the table
        histogram.observe(1e10)      # above the table
        buckets = histogram.to_value()["buckets"]
        labels = list(buckets)
        assert any(label.startswith("..") for label in labels)
        assert any(label.endswith("..") for label in labels)
        assert sum(buckets.values()) == 3

    def test_bucket_table_is_fixed_log_scale(self):
        # 4 buckets per decade over [1e-6, 1e9): data-independent,
        # which is what makes histogram output deterministic.
        assert BUCKET_EDGES[0] == pytest.approx(1e-6)
        assert BUCKET_EDGES[-1] == pytest.approx(1e9)
        ratios = [
            BUCKET_EDGES[i + 1] / BUCKET_EDGES[i]
            for i in range(len(BUCKET_EDGES) - 1)
        ]
        assert all(ratio == pytest.approx(10 ** 0.25) for ratio in ratios)

    def test_identical_observations_identical_output(self):
        first, second = Histogram("a"), Histogram("a")
        for histogram in (first, second):
            for value in (0.5, 2.0, 300.0, 0.5):
                histogram.observe(value)
        assert first.to_value() == second.to_value()


class TestRegistry:
    def test_kind_collision_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError, match="is a Counter"):
            registry.gauge("x")

    def test_iteration_and_events_sorted_by_name(self):
        registry = MetricsRegistry()
        registry.counter("z.last").add(1)
        registry.gauge("a.first").set(2)
        registry.histogram("m.middle").observe(1.0)
        names = [event["name"] for event in registry.to_events()]
        assert names == sorted(names) == ["a.first", "m.middle", "z.last"]
        kinds = [event["kind"] for event in registry.to_events()]
        assert kinds == ["gauge", "histogram", "counter"]

    def test_to_dict_groups_by_kind(self):
        registry = MetricsRegistry()
        registry.counter("rows").add(10)
        registry.gauge("workers").set(2)
        payload = registry.to_dict()
        assert payload["counter"] == {"rows": 10}
        assert payload["gauge"] == {"workers": 2}

    def test_describe_is_deterministic(self):
        registry = MetricsRegistry()
        registry.counter("rows").add(10)
        registry.histogram("wall").observe(0.5)
        assert registry.describe() == registry.describe()
        assert "rows (counter): 10" in registry.describe()

    def test_empty_registry_describes_cleanly(self):
        assert "none recorded" in MetricsRegistry().describe()
        assert len(MetricsRegistry()) == 0


def test_registry_module_imports_with_as():
    # The module's name differs from obs.metrics(), the accessor for the
    # active registry, so neither shadows the other.
    import repro.obs.registry as registry_module
    from repro import obs

    assert registry_module.MetricsRegistry is MetricsRegistry
    assert isinstance(obs.metrics(), MetricsRegistry)
