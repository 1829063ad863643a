"""Bounded-memory statistics ("sketches").

The full paper report needs means, C², medians, ECDFs, per-key counts
and per-month rates over traces that never fit in memory.  Each class
here is an *accumulator*: it observes column chunks (NumPy arrays, as
yielded by :meth:`repro.store.reader.ColumnarStore.iter_batches`) in
O(chunk) time and bounded state.  One law makes the out-of-core report
work: observing a sample's chunks in order equals observing their
concatenation once, whatever the chunk sizes — exactly for counts,
extrema, histograms and held values, and to float summation order for
the moments.

Exact vs approximate
--------------------
* :class:`MomentSketch` — count, sum, mean, M2 (population variance),
  min, max.  Counts/min/max are exact; the float moments use Chan's
  parallel-update formulas chunk by chunk, so they equal a single-pass
  NumPy result up to last-ulp summation-order differences.
* :class:`LogBucketSketch` — a fixed-log-bucket histogram reusing the
  ``repro.obs`` metrics convention (edges at ``10**(k/bpd)``), at
  :data:`BUCKETS_PER_DECADE` buckets per decade instead of 4.
  Quantiles read from it carry a *pinned* relative error bound,
  :data:`QUANTILE_RELATIVE_ERROR` — the half-bucket geometric width.
* :class:`SampleSketch` — the composite a duration study needs: raw
  moments, exact non-positive count, and clamped value/log moments
  plus the histogram (mirroring ``prepare_positive(zero_policy=
  "clamp")``).  While it has observed at most :data:`EXACT_LIMIT`
  values it keeps them, in observation order, and its readers
  (:mod:`repro.stats.streamfit`, the report's CDF plots) use that
  exact sample; past the limit it drops them and the readers fall back
  to the moments and the histogram.  It builds those only once it
  passes the limit, or when they are read, chunk by chunk in
  observation order, so they hold the floats an eager build would.

The sorted copy: :attr:`SampleSketch.ordered` is sorted on its first
read and kept until the sketch next observes, so a fit's KS
statistics and the CDF plot share one sort.  It is at most one more
array the size of the held values (2 MiB at :data:`EXACT_LIMIT`), and
none past the limit.  A summary sorts for itself and keeps nothing, so
a sample that is only summarized (Table 2's per-cause repairs, Figure
7's per-system ones) never holds a second copy.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from repro.stats.errors import DegenerateSampleError, DegenerateStatisticError

__all__ = [
    "BUCKETS_PER_DECADE",
    "QUANTILE_RELATIVE_ERROR",
    "MomentSketch",
    "LogBucketSketch",
    "SampleSketch",
    "HeldValues",
    "EXACT_LIMIT",
]

#: Bucket resolution of :class:`LogBucketSketch`.  The obs metrics
#: histograms use 4 buckets per decade; quantile reads need finer
#: resolution, so the sketch uses 64 (a ~1.8% relative error bound)
#: while keeping the same edge convention.
BUCKETS_PER_DECADE = 64

#: Decade span of the bucket grid: 1e-6 .. 1e9 covers
#: sub-second interarrivals through multi-decade spans of seconds.
_MIN_DECADE = -6
_MAX_DECADE = 9

#: Pinned relative error of a quantile read from the sketch: a value is
#: off by at most half a bucket geometrically, i.e. a factor of
#: ``10**(1/(2*bpd))``.
QUANTILE_RELATIVE_ERROR = 10.0 ** (1.0 / (2.0 * BUCKETS_PER_DECADE)) - 1.0

#: Largest count at which a :class:`HeldValues` keeps the values it was
#: given (2 MiB of float64 each).  A :class:`SampleSketch` holds its
#: values in one, so up to this count every reader of the sketch is
#: exact; the report's Figure 6 gap segments hold their start times in
#: one too.
EXACT_LIMIT = 1 << 18

#: Bucket edges ``10**(k/bpd)`` (read-only), mirroring
#: ``repro.obs.registry``: the metrics registry uses ``[10.0 ** (k /
#: 4.0) for k in range(-24, 37)]``, and this is the same grid at
#: :data:`BUCKETS_PER_DECADE` and a wider decade span.
_EDGES = 10.0 ** (
    np.arange(
        _MIN_DECADE * BUCKETS_PER_DECADE,
        _MAX_DECADE * BUCKETS_PER_DECADE + 1,
        dtype=float,
    )
    / BUCKETS_PER_DECADE
)
_EDGES.flags.writeable = False


class MomentSketch:
    """Count / sum / mean / M2 / min / max accumulator.

    Means and variances follow the package-wide population (``ddof=0``)
    convention.  Each chunk joins the state by Chan's parallel
    combination of the central second moments, so a chunked fold agrees
    with a single-pass accumulation up to float summation order.
    """

    __slots__ = ("count", "total", "mean", "m2", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.mean = 0.0
        self.m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def observe(self, values: np.ndarray) -> None:
        """Fold a chunk of observations into the sketch (vectorized)."""
        values = np.asarray(values, dtype=float)
        if values.size == 0:
            return
        if not np.all(np.isfinite(values)):
            raise ValueError("sketch observed non-finite values")
        n = int(values.size)
        chunk_mean = float(np.mean(values))
        chunk_m2 = float(np.var(values)) * n  # ddof=0: MLE convention
        self._combine(n, float(np.sum(values)), chunk_mean, chunk_m2,
                      float(np.min(values)), float(np.max(values)))

    def _combine(self, n: int, total: float, mean: float, m2: float,
                 minimum: float, maximum: float) -> None:
        if self.count == 0:
            self.count, self.total, self.mean, self.m2 = n, total, mean, m2
            self.minimum, self.maximum = minimum, maximum
            return
        merged = self.count + n
        delta = mean - self.mean
        self.m2 += m2 + delta * delta * self.count * n / merged
        self.mean += delta * n / merged
        self.count = merged
        self.total += total
        self.minimum = min(self.minimum, minimum)
        self.maximum = max(self.maximum, maximum)

    @property
    def variance(self) -> float:
        """Population variance (``ddof=0``)."""
        if self.count == 0:
            raise DegenerateSampleError("variance of an empty sketch")
        return max(self.m2 / self.count, 0.0)

    @property
    def std(self) -> float:
        """Population standard deviation."""
        return math.sqrt(self.variance)

    @property
    def squared_cv(self) -> float:
        """Squared coefficient of variation, variance / mean²."""
        if self.mean == 0:
            raise DegenerateStatisticError(
                "C^2 undefined for zero-mean sample"
            )
        return self.variance / self.mean**2

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MomentSketch(n={self.count}, mean={self.mean:.4g})"


class LogBucketSketch:
    """Fixed-log-bucket histogram with quantile/ECDF reads.

    Buckets follow the ``repro.obs`` convention (``bisect_right`` over
    the edge table): bucket *i* (for ``1 <= i <= len(edges)``) holds
    values in ``[edges[i-1], edges[i])``; index 0 is the underflow
    bucket (values below ``edges[0]``, including zeros) and index
    ``len(edges)`` the overflow bucket.  Exact sample min/max are
    tracked alongside, so quantile reads clip into the observed range.
    """

    __slots__ = ("counts", "minimum", "maximum")

    def __init__(self) -> None:
        self.counts = np.zeros(_EDGES.size + 1, dtype=np.int64)
        self.minimum = math.inf
        self.maximum = -math.inf

    @property
    def count(self) -> int:
        """Total observations."""
        return int(self.counts.sum())

    def observe(self, values: np.ndarray) -> None:
        """Fold a chunk of non-negative observations into the sketch."""
        values = np.asarray(values, dtype=float)
        if values.size == 0:
            return
        if not np.all(np.isfinite(values)):
            raise ValueError("sketch observed non-finite values")
        if np.any(values < 0):
            raise ValueError("log-bucket sketch requires non-negative values")
        # side="right" is bisect_right — the obs histogram bucketing:
        # [edges[i-1], edges[i]) maps to index i.
        indices = np.searchsorted(_EDGES, values, side="right")
        self.counts += np.bincount(indices, minlength=self.counts.size)
        self.minimum = min(self.minimum, float(np.min(values)))
        self.maximum = max(self.maximum, float(np.max(values)))

    def _bucket_values(self) -> np.ndarray:
        """Representative value per bucket (geometric midpoints)."""
        values = np.empty(self.counts.size, dtype=float)
        values[0] = _EDGES[0]
        values[1:-1] = np.sqrt(_EDGES[:-1] * _EDGES[1:])
        values[-1] = _EDGES[-1]
        if math.isfinite(self.minimum):
            np.clip(values, self.minimum, self.maximum, out=values)
        return values

    def representatives(self) -> Tuple[np.ndarray, np.ndarray]:
        """(values, counts) of the non-empty buckets, ascending.

        The weighted sample these pairs describe stands in for the
        original data in ECDF/KS computations: each original value is
        represented within :data:`QUANTILE_RELATIVE_ERROR`.
        """
        occupied = np.nonzero(self.counts)[0]
        return self._bucket_values()[occupied], self.counts[occupied]

    def value_at_rank(self, rank: float) -> float:
        """The value at a (possibly fractional) order-statistic rank.

        Mirrors NumPy's linear quantile interpolation over the bucket
        representatives; ``rank`` runs from 0 to ``count - 1``.
        """
        total = self.count
        if total == 0:
            raise DegenerateSampleError("quantile of an empty sketch")
        rank = min(max(rank, 0.0), total - 1.0)
        values, counts = self.representatives()
        cumulative = np.cumsum(counts)
        lower = int(math.floor(rank))
        upper = int(math.ceil(rank))
        lo_value = float(values[np.searchsorted(cumulative, lower, side="right")])
        if upper == lower:
            return lo_value
        hi_value = float(values[np.searchsorted(cumulative, upper, side="right")])
        fraction = rank - lower
        return lo_value + (hi_value - lo_value) * fraction

    def quantile(self, q: float) -> float:
        """The ``q``-quantile (NumPy ``linear`` interpolation semantics)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must lie in [0, 1], got {q}")
        return self.value_at_rank(q * (self.count - 1))

    @property
    def median(self) -> float:
        """The sketched median (within :data:`QUANTILE_RELATIVE_ERROR`)."""
        return self.quantile(0.5)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LogBucketSketch(n={self.count})"


class HeldValues:
    """A stream's values in observation order, kept up to the limit.

    Once their count passes :data:`EXACT_LIMIT` the values are dropped
    for good.  :meth:`add` returns the chunks it did not keep, in order,
    so a caller that must see every value can go on without them.
    """

    __slots__ = ("count", "_chunks")

    def __init__(self) -> None:
        self.count = 0
        self._chunks: Optional[List[np.ndarray]] = []

    @property
    def held(self) -> bool:
        """True while every value added is kept."""
        return self._chunks is not None

    @property
    def values(self) -> Optional[np.ndarray]:
        """Every value added, in order, or ``None`` past the limit."""
        chunks = self._chunks
        if chunks is None:
            return None
        if len(chunks) != 1:
            chunks[:] = [np.concatenate(chunks) if chunks else np.empty(0)]
        return chunks[0]

    def add(self, values: np.ndarray) -> List[np.ndarray]:
        """Count ``values``, keeping a copy while within the limit."""
        self.count += int(values.size)
        if self._chunks is None:
            return [values]
        if self.count <= EXACT_LIMIT:
            self._chunks.append(values.copy())
            return []
        dropped, self._chunks = self._chunks, None
        return dropped + [values]


class SampleSketch:
    """The composite sketch a duration study consumes.

    Holds, for one stream of non-negative durations:

    * ``raw`` — moments of the values as observed (zeros included);
    * ``nonpositive`` — exact count of values ``<= 0``;
    * ``clamped`` — moments after ``prepare_positive(zero_policy=
      "clamp", epsilon=...)`` clamping;
    * ``log_clamped`` — moments of ``log`` of the clamped values
      (the lognormal/gamma/Weibull sufficient statistics);
    * ``histogram`` — the clamped values' log-bucket histogram
      (quantiles, ECDF, Weibull profile sums).

    While :attr:`count` is at most :data:`EXACT_LIMIT` it also keeps
    the observed values in observation order (:attr:`values`).

    Every reader uses the kept values while there are any, so the
    moments and the histogram are built only from the chunks
    :class:`HeldValues` hands back past the limit.  Reading them first
    summarizes the kept chunks not yet summarized, one at a time in
    observation order, so every float equals the one an eager build
    gives.

    ``clamp_epsilon`` matches the analysis that consumes the sketch:
    1.0 s for interarrival gaps, 0.1 min for repair times.
    """

    __slots__ = ("clamp_epsilon", "nonpositive", "_raw", "_clamped",
                 "_log_clamped", "_histogram", "_held", "_pending",
                 "_ordered")

    def __init__(self, clamp_epsilon: float = 1.0) -> None:
        if clamp_epsilon <= 0:
            raise ValueError(
                f"clamp_epsilon must be positive, got {clamp_epsilon}"
            )
        self.clamp_epsilon = float(clamp_epsilon)
        self.nonpositive = 0
        self._raw = MomentSketch()
        self._clamped = MomentSketch()
        self._log_clamped = MomentSketch()
        self._histogram = LogBucketSketch()
        self._held = HeldValues()
        #: Sizes of the last kept chunks, in order, not yet summarized.
        self._pending: List[int] = []
        self._ordered: Optional[np.ndarray] = None

    @property
    def raw(self) -> MomentSketch:
        self._summarize_pending()
        return self._raw

    @property
    def clamped(self) -> MomentSketch:
        self._summarize_pending()
        return self._clamped

    @property
    def log_clamped(self) -> MomentSketch:
        self._summarize_pending()
        return self._log_clamped

    @property
    def histogram(self) -> LogBucketSketch:
        self._summarize_pending()
        return self._histogram

    @property
    def count(self) -> int:
        return self._held.count

    @property
    def values(self) -> Optional[np.ndarray]:
        """Every observed value in observation order, or ``None`` once
        more than :data:`EXACT_LIMIT` were observed."""
        return self._held.values

    @property
    def ordered(self) -> Optional[np.ndarray]:
        """The held values in ascending order (``None`` past the
        limit), kept until the sketch next observes."""
        if self._ordered is None:
            values = self.values
            if values is not None:
                self._ordered = np.sort(values)
        return self._ordered

    @property
    def exact(self) -> bool:
        """True while the sketch holds every value it observed."""
        return self._held.held

    @property
    def zero_fraction(self) -> float:
        """Exact fraction of non-positive observations."""
        if self.count == 0:
            raise DegenerateSampleError("zero fraction of an empty sketch")
        return self.nonpositive / self.count

    def observe(self, values: np.ndarray) -> None:
        """Fold a chunk of non-negative durations into the sketch."""
        values = np.asarray(values, dtype=float)
        if values.size == 0:
            return
        if np.any(values < 0):
            raise ValueError("sample sketch requires non-negative values")
        if not np.all(np.isfinite(values)):
            raise ValueError("sketch observed non-finite values")
        self._add(values)

    def _add(self, values: np.ndarray) -> None:
        """:meth:`observe` of a non-empty float chunk already checked."""
        self.nonpositive += int(np.count_nonzero(values <= 0))
        self._pending.append(values.size)
        self._ordered = None
        self._summarize(self._held.add(values))

    def _summarize_pending(self) -> None:
        if self._pending:
            self._summarize([self._held.values])

    def _summarize(self, chunks: List[np.ndarray]) -> None:
        """Fold the pending chunks into the moments and the histogram.

        ``chunks`` hold, in order, values ending with the pending ones:
        every kept value, or what :class:`HeldValues` handed back.
        """
        if not chunks:
            return
        values = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
        start = values.size - sum(self._pending)
        for size in self._pending:
            chunk = values[start:start + size]
            start += size
            self._raw.observe(chunk)
            clamped = np.where(chunk <= 0, self.clamp_epsilon, chunk)
            self._clamped.observe(clamped)
            self._log_clamped.observe(np.log(clamped))
            self._histogram.observe(clamped)
        self._pending = []

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SampleSketch(n={self.count}, "
            f"eps={self.clamp_epsilon})"
        )
