"""The always-on analytics service: stdlib asyncio HTTP over a store.

``repro serve <store-dir>`` answers the core out-of-core analytics as
versioned JSON endpoints: ``/v1/summary`` and ``/v1/analyze`` project
the fold core of a store scan, and ``/v1/report`` renders the paper
report from the same fold.  The design goal is robustness: *a slow or
damaged store degrades responses, it never hangs or crashes the
service.*

- **Admission control** (:mod:`repro.serve.admission`): bounded
  concurrency plus a capped wait queue; beyond that, HTTP 429 with
  ``Retry-After`` — load is shed, not queued to death.  While
  draining, sheds carry no retry hint (the instance is going away).
- **Deadlines**: every query carries a
  :class:`~repro.resilience.deadline.Deadline` (default budget, per
  request override via ``?deadline_ms=``, hard cap) that the store
  scan checks at chunk boundaries; a blown budget yields a ``partial``
  answer covering the scanned prefix.
- **Degraded serving** (:mod:`repro.serve.gateway`): primary strict
  read → circuit breaker → skip-read with coverage → last-good stale
  result.  Every response carries explicit ``degraded`` / ``stale`` /
  ``coverage`` metadata.
- **Graceful drain**: SIGTERM stops accepting connections, lets
  in-flight requests finish (bounded by ``drain_grace``), flushes
  metrics, exits 0.

The HTTP layer is deliberately minimal: GET only, ``Connection:
close``, JSON bodies.  It is an analytics sidecar, not a web server.

Observability: request counters and latency histograms always flow to
``obs.metrics()``.  Spans fire too when a tracer is installed, but the
span stack is single-threaded by design — enable tracing only with
``max_concurrency=1`` and sequential traffic (debugging), as the
concurrent path would interleave span open/close across requests.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional

from repro import obs
from repro.resilience.atomic import atomic_write_json
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.deadline import Deadline
from repro.serve.admission import AdmissionController, AdmissionShed
from repro.serve.cache import ResultCache
from repro.serve.gateway import Query, QueryResult, StoreGateway, StoreUnavailable
from repro.serve.router import ROUTES, BadRequest, Route, resolve
from repro.store.manifest import StoreError
from repro.store.reader import DEFAULT_BATCH_ROWS

__all__ = ["ServeConfig", "AnalyticsServer", "ServerThread"]

_JSON_HEADERS = "Content-Type: application/json; charset=utf-8"
_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}
#: Endpoints that execute store scans and therefore pass admission.
_QUERY_ROUTES = ("/v1/systems", "/v1/summary", "/v1/analyze", "/v1/report")


@dataclass
class ServeConfig:
    """Knobs for :class:`AnalyticsServer` (CLI flags map 1:1)."""

    host: str = "127.0.0.1"
    port: int = 8080
    max_concurrency: int = 4
    max_queue: int = 16
    #: Default per-request scan budget (seconds); ``?deadline_ms=``
    #: overrides per request, capped at ``max_deadline_seconds``.
    deadline_seconds: float = 5.0
    max_deadline_seconds: float = 60.0
    #: Budget for reading the request line + headers.
    header_timeout: float = 5.0
    #: How long a drain waits for in-flight requests before giving up.
    drain_grace: float = 10.0
    cache_entries: int = 256
    breaker_threshold: int = 3
    #: Open-breaker cooldown before a half-open probe re-tries the
    #: primary read path.
    breaker_cooldown: float = 5.0
    batch_rows: int = DEFAULT_BATCH_ROWS
    #: When set, the final metrics snapshot is written here on drain.
    metrics_path: Optional[Path] = None

    def __post_init__(self) -> None:
        if self.deadline_seconds <= 0:
            raise ValueError(
                f"deadline_seconds must be > 0, got {self.deadline_seconds}"
            )
        if self.max_deadline_seconds < self.deadline_seconds:
            raise ValueError(
                "max_deadline_seconds must be >= deadline_seconds "
                f"({self.max_deadline_seconds} < {self.deadline_seconds})"
            )


class AnalyticsServer:
    """One store directory served over HTTP until drained."""

    def __init__(self, root, config: Optional[ServeConfig] = None) -> None:
        self.root = Path(root)
        self.config = config or ServeConfig()
        self.gateway = StoreGateway(
            root=self.root,
            breaker=CircuitBreaker(
                failure_threshold=self.config.breaker_threshold,
                cooldown_seconds=self.config.breaker_cooldown,
            ),
            cache=ResultCache(max_entries=self.config.cache_entries),
            batch_rows=self.config.batch_rows,
        )
        self.admission = AdmissionController(
            max_concurrency=self.config.max_concurrency,
            max_queue=self.config.max_queue,
        )
        self.port: Optional[int] = None
        self.requests = 0
        self.responses: Dict[str, int] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._executor = None
        self._inflight: set = set()
        self._drain: Optional[asyncio.Event] = None
        self._started = time.monotonic()

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> int:
        """Bind and listen; returns the bound port (real one for port 0)."""
        from concurrent.futures import ThreadPoolExecutor

        self._drain = asyncio.Event()
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.max_concurrency,
            thread_name_prefix="repro-serve",
        )
        self._server = await asyncio.start_server(
            self._handle, host=self.config.host, port=self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started = time.monotonic()
        return self.port

    def request_drain(self) -> None:
        """Begin graceful shutdown (signal handlers / ServerThread call this)."""
        if self._drain is not None:
            self._drain.set()

    @property
    def draining(self) -> bool:
        return self._drain is not None and self._drain.is_set()

    async def serve_until_drained(self) -> None:
        """Serve until :meth:`request_drain`, then finish in-flight work."""
        assert self._server is not None and self._drain is not None
        await self._drain.wait()
        # Stop accepting: new connections are refused from here on.
        self._server.close()
        await self._server.wait_closed()
        pending = [task for task in self._inflight if not task.done()]
        if pending:
            await asyncio.wait(pending, timeout=self.config.drain_grace)
        self._executor.shutdown(wait=True)
        self._flush_metrics()

    async def run_async(self) -> None:
        await self.start()
        await self.serve_until_drained()

    def run(self) -> int:
        """Blocking CLI entry: serve until SIGTERM/SIGINT, drain, exit 0."""

        async def _main() -> None:
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(signum, self.request_drain)
                except NotImplementedError:  # pragma: no cover - non-POSIX
                    pass
            port = await self.start()
            print(
                f"repro serve: listening on http://{self.config.host}:{port} "
                f"(store {self.root}, concurrency "
                f"{self.config.max_concurrency}+{self.config.max_queue} queued)",
                flush=True,
            )
            await self.serve_until_drained()

        asyncio.run(_main())
        print(
            f"repro serve: drained cleanly after {self.requests} request(s)",
            flush=True,
        )
        return 0

    def _flush_metrics(self) -> None:
        registry = obs.metrics()
        registry.gauge("serve.requests_total").set(self.requests)
        if self.config.metrics_path is not None and obs.enabled():
            atomic_write_json(Path(self.config.metrics_path), registry.to_dict())

    # -- request handling --------------------------------------------------

    async def _handle(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._inflight.add(task)
        try:
            await self._handle_request(reader, writer)
        except (ConnectionError, asyncio.TimeoutError):
            pass  # client went away or stalled; nothing to answer
        except Exception as error:  # pragma: no cover - defensive boundary
            self._count("error")
            obs.metrics().counter("serve.internal_errors").add(1)
            try:
                await self._respond(
                    writer, 500, {"error": f"internal error: {error}"}
                )
            except ConnectionError:
                pass
        finally:
            self._inflight.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _handle_request(self, reader, writer) -> None:
        request_line = await asyncio.wait_for(
            reader.readline(), timeout=self.config.header_timeout
        )
        if not request_line.strip():
            return
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            await self._respond(writer, 400, {"error": "malformed request line"})
            self._count("client_error")
            return
        method, target = parts[0], parts[1]
        # Drain the (ignored) headers so the socket is read cleanly.
        for _ in range(100):
            line = await asyncio.wait_for(
                reader.readline(), timeout=self.config.header_timeout
            )
            if not line.strip():
                break
        self.requests += 1
        obs.metrics().counter("serve.requests").add(1)
        start = time.monotonic()
        try:
            route = resolve(method, target)
        except KeyError:
            self._count("not_found")
            await self._respond(
                writer, 404,
                {"error": f"no such endpoint: {target}", "routes": list(ROUTES)},
            )
            return
        except BadRequest as error:
            self._count("client_error")
            status = 405 if "not allowed" in str(error) else 400
            await self._respond(writer, status, {"error": str(error)})
            return
        with obs.span("serve.request", endpoint=route.name):
            status, payload = await self._dispatch(route, start)
        obs.metrics().histogram("serve.latency_ms").observe(
            (time.monotonic() - start) * 1000.0
        )
        await self._respond(writer, status, payload)

    async def _dispatch(self, route: Route, start: float):
        if route.name == "/healthz":
            return 200, {
                "status": "draining" if self.draining else "ok",
                "inflight": len(self._inflight),
            }
        if route.name == "/readyz":
            return await self._readyz()
        if route.name == "/v1/stats":
            return 200, self.stats()
        return await self._query(route, start)

    async def _readyz(self):
        loop = asyncio.get_running_loop()
        try:
            healing = await loop.run_in_executor(
                self._executor, self.gateway.readiness
            )
        except (StoreError, OSError) as error:
            self._count("unavailable")
            return 503, {"status": "unavailable", "error": str(error)}
        status = "degraded" if healing["quarantined_shards"] else "ok"
        self._count(status if status == "degraded" else "ok")
        return 200, {"status": status, "healing": healing}

    def _deadline_for(self, route: Route) -> Deadline:
        budget = route.deadline_seconds
        if budget is None:
            budget = self.config.deadline_seconds
        budget = min(budget, self.config.max_deadline_seconds)
        return Deadline(budget)

    async def _query(self, route: Route, start: float):
        loop = asyncio.get_running_loop()
        try:
            async with self.admission.slot():
                deadline = self._deadline_for(route)
                if route.name == "/v1/systems":
                    try:
                        data = await loop.run_in_executor(
                            self._executor, self.gateway.systems
                        )
                    except (StoreError, OSError) as error:
                        self._count("unavailable")
                        return 503, {
                            "error": f"store unavailable: {error}",
                            "meta": self._meta(route, None, start),
                        }
                    self._count("ok")
                    result = QueryResult(data=data, cache="none")
                    result.breaker = self.gateway.breaker_state()
                    return 200, {
                        "data": data,
                        "meta": self._meta(route, result, start),
                    }
                try:
                    result = await loop.run_in_executor(
                        self._executor, self.gateway.query,
                        route.query, deadline,
                    )
                except StoreUnavailable as error:
                    self._count("unavailable")
                    obs.metrics().counter("serve.unavailable").add(1)
                    return 503, {
                        "error": str(error),
                        "meta": self._meta(route, None, start),
                    }
        except AdmissionShed:
            self._count("shed")
            obs.metrics().counter("serve.shed").add(1)
            if self.draining:
                # No retry hint while draining: this instance is going
                # away, so "come back in a second" would steer clients
                # straight into a dead endpoint.  The body says why.
                return 429, {
                    "error": "overloaded: request shed at admission",
                    "draining": True,
                }
            return 429, {
                "error": "overloaded: request shed at admission",
                "retry_after": 1,
            }
        self._count(result.status())
        obs.metrics().counter(f"serve.responses_{result.status()}").add(1)
        return 200, {
            "data": result.data,
            "meta": self._meta(route, result, start),
        }

    def _meta(
        self, route: Route, result: Optional[QueryResult], start: float
    ) -> dict:
        deadline = route.deadline_seconds
        if deadline is None:
            deadline = self.config.deadline_seconds
        meta = {
            "endpoint": route.name,
            "status": result.status() if result else "error",
            "degraded": bool(result.degraded) if result else False,
            "stale": bool(result.stale) if result else False,
            "partial": bool(result.partial) if result else False,
            "coverage": result.coverage if result else None,
            "cache": result.cache if result else "none",
            "breaker": result.breaker if result else self.gateway.breaker_state(),
            "generation": result.generation if result else None,
            "deadline_ms": min(deadline, self.config.max_deadline_seconds) * 1000.0,
            "elapsed_ms": (time.monotonic() - start) * 1000.0,
        }
        return meta

    def _count(self, outcome: str) -> None:
        self.responses[outcome] = self.responses.get(outcome, 0) + 1

    def stats(self) -> dict:
        """The ``/v1/stats`` payload."""
        return {
            "store": str(self.root),
            "uptime_seconds": time.monotonic() - self._started,
            "requests": self.requests,
            "inflight": len(self._inflight),
            "draining": self.draining,
            "responses": dict(sorted(self.responses.items())),
            "admission": self.admission.to_dict(),
            "gateway": self.gateway.to_dict(),
            "config": {
                "max_concurrency": self.config.max_concurrency,
                "max_queue": self.config.max_queue,
                "deadline_seconds": self.config.deadline_seconds,
                "breaker_cooldown": self.config.breaker_cooldown,
            },
        }

    # -- response writing --------------------------------------------------

    async def _respond(self, writer, status: int, payload: dict) -> None:
        body = (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()
        reason = _REASONS.get(status, "OK")
        headers = [
            f"HTTP/1.1 {status} {reason}",
            _JSON_HEADERS,
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        if status == 429 and not self.draining:
            headers.append("Retry-After: 1")
        writer.write(("\r\n".join(headers) + "\r\n\r\n").encode() + body)
        await writer.drain()


class ServerThread:
    """Run an :class:`AnalyticsServer` on a background thread.

    The test-suite / bench / chaos-campaign harness: enters the context
    manager, gets ``host``/``port`` of a live server bound to an
    ephemeral port, and on exit triggers the same graceful drain the
    SIGTERM path uses.
    """

    def __init__(self, root, config: Optional[ServeConfig] = None) -> None:
        config = config or ServeConfig(port=0)
        config.port = 0 if config.port == 8080 else config.port
        self.server = AnalyticsServer(root, config)
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None

    @property
    def host(self) -> str:
        return self.server.config.host

    @property
    def port(self) -> int:
        assert self.server.port is not None, "server not started"
        return self.server.port

    def __enter__(self) -> "ServerThread":
        self._thread = threading.Thread(
            target=self._main, name="repro-serve-loop", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("serve thread failed to start in 30s")
        if self._error is not None:
            raise RuntimeError("serve thread failed to start") from self._error
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _main(self) -> None:
        try:
            asyncio.run(self._amain())
        except BaseException as error:  # noqa: BLE001 - surfaced to caller
            self._error = error
            self._ready.set()

    async def _amain(self) -> None:
        self._loop = asyncio.get_running_loop()
        await self.server.start()
        self._ready.set()
        await self.server.serve_until_drained()

    def stop(self) -> None:
        """Trigger a graceful drain and join the server thread."""
        if self._thread is None or not self._thread.is_alive():
            return
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self.server.request_drain)
        self._thread.join(timeout=60)
        if self._thread.is_alive():  # pragma: no cover - drain wedged
            raise RuntimeError("serve thread did not drain within 60s")
