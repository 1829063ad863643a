"""Sketch laws: chunked == single pass, for every sketch type.

The out-of-core report's correctness rests on one property: folding a
sample chunk by chunk, at any split, must equal accumulating the whole
sample at once.  Hypothesis drives arbitrary samples and split points
through each sketch; integer-state sketches must agree exactly, float
moments to rounding.  A :class:`SampleSketch` within :data:`EXACT_LIMIT` must also
hold exactly the values observed, and its readers must return what the
array functions return for them; it builds moments and a histogram only
past the limit, and they must equal, bit for bit, those built as each
chunk arrived.
"""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.stats.sketch as sketch_module
from repro.report import run_paper_report
from repro.stats.empirical import EmpiricalDistribution
from repro.stats.errors import DegenerateSampleError
from repro.stats.fitting import fit_all
from repro.stats.sketch import (
    QUANTILE_RELATIVE_ERROR,
    HeldValues,
    LogBucketSketch,
    MomentSketch,
    SampleSketch,
)
from repro.stats.streamfit import sketch_empirical, sketch_fit_all

finite = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)
nonnegative = st.floats(
    min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False
)
samples = st.lists(finite, min_size=0, max_size=60)
nonneg_samples = st.lists(nonnegative, min_size=0, max_size=60)


def _split(values, fraction):
    cut = int(len(values) * fraction)
    return values[:cut], values[cut:]


def _moment_fields(sketch: MomentSketch) -> tuple:
    return tuple(getattr(sketch, name) for name in MomentSketch.__slots__)


def _assert_moments_equal(a: MomentSketch, b: MomentSketch) -> None:
    assert a.count == b.count
    assert a.minimum == b.minimum
    assert a.maximum == b.maximum
    assert math.isclose(a.total, b.total, rel_tol=1e-9, abs_tol=1e-6)
    assert math.isclose(a.mean, b.mean, rel_tol=1e-9, abs_tol=1e-9)
    assert math.isclose(a.m2, b.m2, rel_tol=1e-6, abs_tol=1e-3)


class TestMomentSketch:
    @settings(max_examples=100, deadline=None)
    @given(values=samples, fraction=st.floats(0.0, 1.0))
    def test_merge_equals_single_pass(self, values, fraction):
        left, right = _split(values, fraction)
        chunked = MomentSketch()
        chunked.observe(np.asarray(left))
        chunked.observe(np.asarray(right))
        whole = MomentSketch()
        whole.observe(np.asarray(values))
        _assert_moments_equal(chunked, whole)

    @settings(max_examples=50, deadline=None)
    @given(values=st.lists(finite, min_size=1, max_size=40), seed=st.integers(0, 2**16))
    def test_order_invariance(self, values, seed):
        shuffled = list(values)
        np.random.Generator(np.random.PCG64(seed)).shuffle(shuffled)
        a = MomentSketch()
        a.observe(np.asarray(values))
        b = MomentSketch()
        b.observe(np.asarray(shuffled))
        _assert_moments_equal(a, b)

    @settings(max_examples=50, deadline=None)
    @given(values=st.lists(finite, min_size=2, max_size=60))
    def test_matches_numpy_population_moments(self, values):
        sketch = MomentSketch()
        sketch.observe(np.asarray(values))
        data = np.asarray(values)
        assert math.isclose(
            sketch.mean, float(data.mean()), rel_tol=1e-9, abs_tol=1e-9
        )
        assert math.isclose(
            sketch.variance, float(data.var(ddof=0)),
            rel_tol=1e-6, abs_tol=1e-3,
        )

    def test_round_trips(self):
        sketch = MomentSketch()
        sketch.observe(np.asarray([1.0, 2.0, 5.0]))
        clone = pickle.loads(pickle.dumps(sketch))
        assert _moment_fields(clone) == _moment_fields(sketch)


class TestLogBucketSketch:
    @settings(max_examples=100, deadline=None)
    @given(values=nonneg_samples, fraction=st.floats(0.0, 1.0))
    def test_merge_equals_single_pass_exactly(self, values, fraction):
        left, right = _split(values, fraction)
        chunked = LogBucketSketch()
        chunked.observe(np.asarray(left))
        chunked.observe(np.asarray(right))
        whole = LogBucketSketch()
        whole.observe(np.asarray(values))
        assert np.array_equal(chunked.counts, whole.counts)
        assert chunked.minimum == whole.minimum
        assert chunked.maximum == whole.maximum

    @settings(max_examples=50, deadline=None)
    @given(values=st.lists(
        st.floats(min_value=1e-3, max_value=1e6,
                  allow_nan=False, allow_infinity=False),
        min_size=2, max_size=60,
    ), q=st.floats(0.0, 1.0))
    def test_quantile_within_pinned_relative_error(self, values, q):
        sketch = LogBucketSketch()
        sketch.observe(np.asarray(values))
        exact = float(np.percentile(np.asarray(values), 100.0 * q))
        got = sketch.quantile(q)
        assert got == pytest.approx(exact, rel=QUANTILE_RELATIVE_ERROR * 2 + 1e-12)

    def test_empty_quantile_raises(self):
        with pytest.raises(DegenerateSampleError):
            LogBucketSketch().median

    def test_rejects_negative_values_and_mixed_resolutions(self):
        sketch = LogBucketSketch()
        with pytest.raises(ValueError):
            sketch.observe(np.asarray([-1.0]))


class TestSampleSketch:
    @settings(max_examples=100, deadline=None)
    @given(values=nonneg_samples, fraction=st.floats(0.0, 1.0))
    def test_merge_equals_single_pass(self, values, fraction):
        left, right = _split(values, fraction)
        chunked = SampleSketch(clamp_epsilon=0.1)
        chunked.observe(np.asarray(left))
        chunked.observe(np.asarray(right))
        whole = SampleSketch(clamp_epsilon=0.1)
        whole.observe(np.asarray(values))
        assert chunked.count == whole.count == len(values)
        assert chunked.nonpositive == whole.nonpositive
        assert np.array_equal(chunked.histogram.counts, whole.histogram.counts)
        _assert_moments_equal(chunked.raw, whole.raw)
        _assert_moments_equal(chunked.log_clamped, whole.log_clamped)

    @settings(max_examples=50, deadline=None)
    @given(values=nonneg_samples)
    def test_zero_fraction_counts_nonpositive(self, values):
        sketch = SampleSketch(clamp_epsilon=1.0)
        sketch.observe(np.asarray(values))
        if not values:
            with pytest.raises(DegenerateSampleError):
                sketch.zero_fraction
        else:
            expected = sum(1 for v in values if v <= 0) / len(values)
            assert sketch.zero_fraction == expected

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError, match="non-negative"):
            SampleSketch(clamp_epsilon=0.1).observe(np.asarray([-1.0]))

    def test_round_trips(self):
        sketch = SampleSketch(clamp_epsilon=0.1)
        sketch.observe(np.asarray([0.0, 1.0, 250.0]))
        clone = pickle.loads(pickle.dumps(sketch))
        assert clone.clamp_epsilon == sketch.clamp_epsilon
        assert clone.nonpositive == sketch.nonpositive
        for name in ("raw", "clamped", "log_clamped"):
            assert _moment_fields(getattr(clone, name)) == _moment_fields(
                getattr(sketch, name)
            )
        assert np.array_equal(clone.histogram.counts, sketch.histogram.counts)
        assert np.array_equal(clone.values, sketch.values)


class TestExactSample:
    """Within EXACT_LIMIT a sample sketch holds its values and its
    readers are the array functions; past it they fall back."""

    @pytest.fixture(autouse=True)
    def small_limit(self, monkeypatch):
        monkeypatch.setattr(sketch_module, "EXACT_LIMIT", 40)

    @settings(max_examples=50, deadline=None)
    @given(values=nonneg_samples, fraction=st.floats(0.0, 1.0))
    def test_holds_values_in_order_up_to_the_limit(self, values, fraction):
        left, right = _split(values, fraction)
        halves = SampleSketch(clamp_epsilon=0.1)
        halves.observe(np.asarray(left))
        halves.observe(np.asarray(right))
        singles = SampleSketch(clamp_epsilon=0.1)
        for value in values:
            singles.observe(np.asarray([value]))
        for sketch in (halves, singles):
            if len(values) <= 40:
                assert sketch.values.tolist() == values
            else:
                assert sketch.values is None

    def test_readers_use_the_held_values(self):
        values = np.random.Generator(np.random.PCG64(3)).lognormal(3.0, 2.0, 40)
        values[:4] = 0.0
        sketch = SampleSketch(clamp_epsilon=0.1)
        sketch.observe(values)
        assert sketch_empirical(sketch) == EmpiricalDistribution.from_data(values)
        assert sketch_fit_all(sketch) == fit_all(
            values, zero_policy="clamp", epsilon=0.1
        )
        sketch.observe(np.asarray([1.0]))
        assert sketch.values is None
        summary = sketch_empirical(sketch)
        assert summary.count == 41
        assert summary.median == pytest.approx(
            float(np.median(np.append(values, 1.0))),
            rel=QUANTILE_RELATIVE_ERROR * 2,
        )

    @settings(max_examples=150, deadline=None)
    @given(
        values=st.lists(
            st.sampled_from((0.0, 0.01, 0.05, 0.1, 0.25)) | st.floats(0.0, 50.0),
            min_size=1,
            max_size=40,
        )
    )
    def test_fits_take_the_clamped_order_from_the_sorted_copy(self, values):
        # Positive values below the clamp epsilon sort before the
        # clamped zeros: the fits' order is not the sorted copy floored.
        values = np.asarray(values)
        sketch = SampleSketch(clamp_epsilon=0.1)
        sketch.observe(values)

        def outcome(fit):
            try:
                return repr(fit())
            except ValueError as exc:
                return f"{type(exc).__name__}: {exc}"

        assert outcome(lambda: sketch_fit_all(sketch)) == outcome(
            lambda: fit_all(values, zero_policy="clamp", epsilon=0.1)
        )
        assert np.array_equal(sketch.ordered, np.sort(values))


def _fields(moments, histogram) -> tuple:
    return tuple(_moment_fields(sketch) for sketch in moments) + (
        histogram.counts.tolist(), histogram.minimum, histogram.maximum,
    )


class _Eager:
    """A sample sketch's moments and histogram built as each chunk
    arrives: the raw values, then the clamped values and their logs."""

    def __init__(self, chunks):
        self.moments = (MomentSketch(), MomentSketch(), MomentSketch())
        self.histogram = LogBucketSketch()
        for chunk in chunks:
            self.observe(chunk)

    def observe(self, chunk):
        raw, clamped, log_clamped = self.moments
        raw.observe(chunk)
        floored = np.where(chunk <= 0, 0.1, chunk)
        clamped.observe(floored)
        log_clamped.observe(np.log(floored))
        self.histogram.observe(floored)

    def fields(self) -> tuple:
        return _fields(self.moments, self.histogram)


def _sketched(chunks) -> SampleSketch:
    sketch = SampleSketch(clamp_epsilon=0.1)
    for chunk in chunks:
        sketch.observe(chunk)
    return sketch


def _read(sketch: SampleSketch) -> tuple:
    return _fields(
        (sketch.raw, sketch.clamped, sketch.log_clamped), sketch.histogram
    )


chunk_lists = st.lists(
    nonneg_samples.map(lambda values: np.asarray(values, dtype=float)),
    max_size=6,
)


class TestSummarizedPastTheLimit:
    """A sample sketch builds moments and a histogram only for values it
    no longer keeps, and its reads are the floats that building them as
    each chunk arrived gives, bit for bit — also when a read between
    chunks summarizes the ones observed so far."""

    @settings(max_examples=100, deadline=None)
    @given(left=chunk_lists, right=chunk_lists, later=chunk_lists,
           limit=st.integers(0, 80))
    def test_reads_equal_the_eager_sketches(self, left, right, later, limit):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sketch_module, "EXACT_LIMIT", limit)
            sketch = _sketched(left)
            expected = _Eager(left)
            assert _read(sketch) == expected.fields()
            for chunk in right:
                sketch.observe(chunk)
                expected.observe(chunk)
            assert _read(sketch) == expected.fields()
            for chunk in later:
                sketch.observe(chunk)
                expected.observe(chunk)
            assert _read(sketch) == expected.fields()
            total = sum(chunk.size for chunk in left + right + later)
            assert sketch.count == total
            assert sketch.exact == (total <= limit)

    def test_a_below_limit_report_builds_none(self, full_trace, monkeypatch):
        calls = []
        for cls in (MomentSketch, LogBucketSketch):

            def counting(self, values, _real=cls.observe):
                calls.append(type(self).__name__)
                return _real(self, values)

            monkeypatch.setattr(cls, "observe", counting)
        report = run_paper_report(full_trace)
        assert report.ok, report.diagnostics()
        assert calls == []

    @pytest.mark.parametrize("bad", [-1.0, -np.inf, np.nan, np.inf])
    def test_observe_checks_before_it_keeps(self, bad):
        sketch = SampleSketch(clamp_epsilon=0.1)
        sketch.observe(np.asarray([0.0, 2.0]))
        match = "non-negative" if bad < 0 else "non-finite"
        with pytest.raises(ValueError, match=match):
            sketch.observe(np.asarray([3.0, bad]))
        assert (sketch.count, sketch.nonpositive) == (2, 1)
        assert sketch.values.tolist() == [0.0, 2.0]


class TestHeldValues:
    """The one keep-up-to-the-limit policy: what it stops keeping, it
    hands back in order."""

    @pytest.fixture(autouse=True)
    def small_limit(self, monkeypatch):
        monkeypatch.setattr(sketch_module, "EXACT_LIMIT", 5)

    @staticmethod
    def _lists(chunks):
        return [chunk.tolist() for chunk in chunks]

    def test_add_returns_what_it_stops_keeping(self):
        held = HeldValues()
        first = np.arange(3.0)
        assert held.add(first) == []
        first[0] = 99.0  # the kept values are a copy
        assert held.add(np.arange(3.0, 5.0)) == []
        assert held.values.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
        released = held.add(np.arange(5.0, 7.0))
        assert self._lists(released) == [[0.0, 1.0, 2.0, 3.0, 4.0], [5.0, 6.0]]
        assert held.values is None and not held.held
        assert self._lists(held.add(np.arange(2.0))) == [[0.0, 1.0]]
        assert held.count == 9
