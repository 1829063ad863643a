"""Minimal HTTP clients for the serve test/bench/chaos harnesses.

Two flavors over the same tiny contract (GET, JSON body,
``Connection: close``):

- :func:`get` — synchronous, ``http.client`` based; used by the chaos
  campaign drills and tests that issue sequential requests.
- :func:`aget` — asyncio, raw ``open_connection``; used by the bench
  load generator to hold many requests in flight from one thread.
"""

from __future__ import annotations

import asyncio
import http.client
import json
from dataclasses import dataclass

__all__ = ["Response", "get", "aget"]


@dataclass(frozen=True)
class Response:
    """One HTTP exchange, body parsed as JSON when possible."""

    status: int
    body: dict

    def meta(self) -> dict:
        return self.body.get("meta", {}) if isinstance(self.body, dict) else {}


def _parse(status: int, raw: bytes) -> Response:
    try:
        body = json.loads(raw.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        body = {"raw": raw.decode("utf-8", "replace")}
    return Response(status=status, body=body)


def get(host: str, port: int, path: str, timeout: float = 30.0) -> Response:
    """Blocking GET; raises ``OSError`` on connect/read failure."""
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return _parse(response.status, response.read())
    finally:
        conn.close()


async def aget(
    host: str, port: int, path: str, timeout: float = 30.0
) -> Response:
    """Async GET over a fresh connection (the server closes after one)."""
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(host, port), timeout=timeout
    )
    try:
        writer.write(
            f"GET {path} HTTP/1.1\r\nHost: {host}\r\n"
            "Connection: close\r\n\r\n".encode()
        )
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(), timeout=timeout)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    head, _, rest = raw.partition(b"\r\n\r\n")
    status_line = head.split(b"\r\n", 1)[0].split()
    status = int(status_line[1]) if len(status_line) >= 2 else 0
    return _parse(status, rest)
