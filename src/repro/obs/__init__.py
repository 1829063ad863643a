"""repro.obs — zero-dependency observability: spans, metrics, profiling.

The subsystem is **off by default**.  Instrumentation sites scattered
through the toolkit call the module-level helpers here:

``obs.span("synth.arrivals", system=2)``
    Returns a real :class:`~repro.obs.tracer.Span` bound to the active
    tracer, or the shared no-op :data:`~repro.obs.tracer.NULL_SPAN`
    when tracing is disabled — one module-global read, no allocation
    beyond the call's kwargs.  This is the fast path the bench guard
    (``repro bench --obs-guard``) holds to <= 2% overhead.

``obs.metrics()``
    The active :class:`~repro.obs.metrics.MetricsRegistry`, or a
    throwaway registry when disabled so call sites never branch.

Activation is scoped with context managers:

``observing(tracer, metrics, spool=...)``
    Installs a tracer/registry for the duration (the CLI wraps a whole
    ``repro generate`` in this).  Passing ``spool`` arms worker-process
    tracing by exporting :data:`~repro.obs.tracer.SPOOL_ENV_VAR`, which
    pool workers inherit.

``worker_tracing(key)``
    Used inside a worker process around one shard's work.  No-op unless
    the spool env var is armed; otherwise traces into a stream named
    after the shard key and atomically spools the events on exit —
    including on failure, so error spans from crashed attempts survive
    for the supervisor to merge.

Nothing in here may alter generated records: instrumentation never
touches RNG streams, and the PR 2 equivalence suite is the contract.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Any, Iterator, Optional, Union

from repro.obs.metrics import (
    BUCKET_EDGES,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.tracer import (
    NULL_SPAN,
    SCHEMA_VERSION,
    SPOOL_ENV_VAR,
    TRACE_KIND,
    Span,
    Tracer,
    load_spool_events,
    spool_dir,
    spool_path,
    write_spool,
)
from repro.obs.tracer import _NullSpan

__all__ = [
    "BUCKET_EDGES",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_SPAN",
    "SCHEMA_VERSION",
    "SPOOL_ENV_VAR",
    "TRACE_KIND",
    "Span",
    "Tracer",
    "active_tracer",
    "enabled",
    "load_spool_events",
    "metrics",
    "observing",
    "span",
    "spool_dir",
    "spool_path",
    "worker_tracing",
    "write_spool",
]

# The globals the fast path reads.  None means disabled.
_ACTIVE_TRACER: Optional[Tracer] = None
_ACTIVE_METRICS: Optional[MetricsRegistry] = None


def span(name: str, **attrs: Any) -> Union[Span, _NullSpan]:
    """A span on the active tracer, or the shared no-op when disabled."""
    tracer = _ACTIVE_TRACER
    if tracer is None:
        return NULL_SPAN
    return tracer.span(name, **attrs)


def metrics() -> MetricsRegistry:
    """The active registry, or a throwaway one when disabled.

    The throwaway keeps call sites branch-free; its contents are
    simply discarded.
    """
    registry = _ACTIVE_METRICS
    if registry is None:
        return MetricsRegistry()
    return registry


def enabled() -> bool:
    """True when a tracer or metrics registry is currently installed."""
    return _ACTIVE_TRACER is not None or _ACTIVE_METRICS is not None


def active_tracer() -> Optional[Tracer]:
    return _ACTIVE_TRACER


@contextmanager
def observing(
    tracer: Optional[Tracer] = None,
    metrics_registry: Optional[MetricsRegistry] = None,
    spool: Optional[os.PathLike] = None,
) -> Iterator[None]:
    """Install a tracer/metrics registry for the duration of the block.

    ``spool`` additionally arms worker-process tracing by exporting
    :data:`SPOOL_ENV_VAR`; the previous value (usually unset) is
    restored on exit.  Re-entrant: the previous tracer/registry are
    restored too.
    """
    global _ACTIVE_TRACER, _ACTIVE_METRICS
    previous_tracer = _ACTIVE_TRACER
    previous_metrics = _ACTIVE_METRICS
    previous_spool = os.environ.get(SPOOL_ENV_VAR)
    _ACTIVE_TRACER = tracer
    _ACTIVE_METRICS = metrics_registry
    if spool is not None:
        os.environ[SPOOL_ENV_VAR] = str(spool)
    try:
        yield
    finally:
        _ACTIVE_TRACER = previous_tracer
        _ACTIVE_METRICS = previous_metrics
        if spool is not None:
            if previous_spool is None:
                os.environ.pop(SPOOL_ENV_VAR, None)
            else:
                os.environ[SPOOL_ENV_VAR] = previous_spool


@contextmanager
def worker_tracing(key: str) -> Iterator[Optional[Tracer]]:
    """Trace one shard's work inside a worker process.

    No-op (yields None) unless the parent armed the spool directory.
    Otherwise installs a fresh tracer whose stream is the shard key and
    spools its events on exit — even when the shard raises, so the
    supervisor can still merge the error spans; the exception always
    propagates to the supervision machinery.
    """
    global _ACTIVE_TRACER
    if spool_dir() is None:
        yield None
        return
    tracer = Tracer(stream=key)
    previous = _ACTIVE_TRACER
    _ACTIVE_TRACER = tracer
    try:
        yield tracer
    finally:
        _ACTIVE_TRACER = previous
        write_spool(tracer, key)
