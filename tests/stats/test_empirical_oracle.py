"""``EmpiricalDistribution.from_data`` against its ``np.median`` form.

The oracle below is the summary as ``np.mean``, ``np.median``,
``np.std``, ``np.min`` and ``np.max`` compute it.  ``from_data`` must
give the same six fields, floats compared as ``float.hex``, on ties,
n = 1, even and odd n, signed zeros, and 2-D input (which
``np.median`` flattens).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.stats.empirical import EmpiricalDistribution


def reference_summary(data) -> EmpiricalDistribution:
    values = np.asarray(data, dtype=float)
    if values.size == 0:
        raise ValueError("cannot summarize an empty sample")
    if not np.all(np.isfinite(values)):
        raise ValueError("sample contains non-finite values")
    return EmpiricalDistribution(
        count=int(values.size),
        mean=float(np.mean(values)),
        median=float(np.median(values)),
        std=float(np.std(values)),
        minimum=float(np.min(values)),
        maximum=float(np.max(values)),
    )


def _fields(summary: EmpiricalDistribution) -> tuple:
    return (summary.count,) + tuple(
        float(value).hex()
        for value in (
            summary.mean,
            summary.median,
            summary.std,
            summary.minimum,
            summary.maximum,
        )
    )


def _assert_same(data) -> None:
    assert _fields(EmpiricalDistribution.from_data(data)) == _fields(
        reference_summary(data)
    )


values = st.one_of(
    st.sampled_from((0.0, -0.0, 1.0, 2.5)),
    st.floats(-1e9, 1e9, allow_nan=False),
)


@settings(max_examples=300, deadline=None)
@given(sample=st.lists(values, min_size=1, max_size=40))
def test_random_samples(sample):
    _assert_same(sample)


@settings(max_examples=100, deadline=None)
@given(
    sample=st.lists(values, min_size=1, max_size=12),
    rows=st.integers(1, 4),
)
def test_two_dimensional_input(sample, rows):
    _assert_same(np.tile(np.asarray(sample), (rows, 1)))


@pytest.mark.parametrize(
    "sample",
    [
        [3.0],
        [-0.0],
        [0.0, -0.0],
        [-0.0, 0.0],
        [-0.0, -0.0, 0.0],
        [2.0, 2.0, 2.0, 2.0],
        [1.0, 2.0, 2.0, 3.0],
        [5.0, 1.0, 4.0],
        [[4.0, 1.0], [3.0, 2.0]],
        [[9.0, 1.0, 5.0]],
    ],
)
def test_edge_samples(sample):
    _assert_same(sample)


@pytest.mark.parametrize("size", [10, 11, 75_000, 75_001])
def test_large_even_and_odd_samples(size):
    _assert_same(np.random.default_rng(size).lognormal(3.0, 2.0, size))


@pytest.mark.parametrize("bad", [[], [1.0, np.nan], [np.inf], [-np.inf, 1.0]])
def test_rejections(bad):
    with pytest.raises(ValueError) as want:
        reference_summary(bad)
    with pytest.raises(ValueError) as got:
        EmpiricalDistribution.from_data(bad)
    assert str(got.value) == str(want.value)
