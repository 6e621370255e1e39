"""Asyncio HTTP/1.1 front-end over :class:`~repro.serve.service.SearchService`.

A deliberately small, dependency-free server (stdlib ``asyncio`` streams,
hand-parsed HTTP/1.1 with keep-alive): the serving intelligence —
coalescing, caching, admission — all lives in the transport-agnostic
service core; this layer only maps requests to :meth:`SearchService.submit`
and service failures to status codes.

Routes
------
``POST /search``
    Body ``{"query_id": ..., "sequence": ...}``. The 200 response body is
    the request's canonical payload bytes *exactly as cached* — a cache
    hit is byte-identical to the cold path, and the ``X-Cache`` header
    says which one served you (``HIT`` / ``MISS``).
``GET /healthz``
    Liveness plus live worker count.
``GET /stats``
    :meth:`SearchService.stats_dict` as JSON.
``POST /admin/refresh-db``
    Re-read the database's RPDB version stamp and invalidate stale cache
    entries; returns ``{"old": ..., "new": ..., "invalidated": ...}``.

Status mapping (the admission/failure contract the fault suite locks in):

========================== ====
:class:`OverloadedError`    429
:class:`ServiceClosedError` 503
``WorkerCrashError``        503
``RemoteTaskError``         500
bad request / bad JSON      400
========================== ====

Every response is ``Connection: keep-alive`` unless the client asked to
close; an overload answer carries ``Retry-After``. The server *sheds*
load rather than queueing unboundedly — a 429 comes back immediately, it
never hangs the connection.

:class:`ServeHandle` runs the whole loop in a daemon thread on an
ephemeral port — the in-process harness the serve tests and the latency
benchmark drive real sockets through.
"""

from __future__ import annotations

import asyncio
import json
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Awaitable, Callable

from repro.engine.procpool import RemoteTaskError, WorkerCrashError
from repro.serve.service import (
    OverloadedError,
    SearchService,
    ServeOutcome,
    ServiceClosedError,
)

if TYPE_CHECKING:
    from concurrent.futures import Future

#: Largest accepted request body (a query sequence, with generous slack).
MAX_BODY_BYTES = 4 * 1024 * 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


@dataclass
class _HttpRequest:
    method: str
    path: str
    headers: dict[str, str]
    body: bytes

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "keep-alive").lower() != "close"


class _BadRequest(Exception):
    """Malformed HTTP or JSON; answered with a 400 and a closed connection."""


async def _read_request(reader: asyncio.StreamReader) -> _HttpRequest | None:
    """Parse one HTTP/1.1 request; ``None`` on a clean EOF between requests."""
    try:
        line = await reader.readline()
    except (ConnectionResetError, asyncio.IncompleteReadError):
        return None
    if not line:
        return None
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3:
        raise _BadRequest(f"malformed request line: {line!r}")
    method, path, _version = parts
    headers: dict[str, str] = {}
    while True:
        raw = await reader.readline()
        if raw in (b"\r\n", b"\n", b""):
            break
        name, sep, value = raw.decode("latin-1").partition(":")
        if not sep:
            raise _BadRequest(f"malformed header line: {raw!r}")
        headers[name.strip().lower()] = value.strip()
    raw_length = headers.get("content-length", "0") or "0"
    try:
        length = int(raw_length)
    except ValueError:
        raise _BadRequest(f"malformed Content-Length: {raw_length!r}") from None
    if length < 0:
        raise _BadRequest(f"negative Content-Length: {length}")
    if length > MAX_BODY_BYTES:
        raise _BadRequest(f"body of {length} bytes exceeds {MAX_BODY_BYTES}")
    body = await reader.readexactly(length) if length else b""
    return _HttpRequest(method, path, headers, body)


def _response(
    status: int, body: bytes, *, keep_alive: bool, extra: dict[str, str] | None = None
) -> bytes:
    head = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (extra or {}).items():
        head.append(f"{name}: {value}")
    return ("\r\n".join(head) + "\r\n\r\n").encode() + body


def _error_body(status: int, error: str, detail: str) -> bytes:
    return json.dumps(
        {"status": status, "error": error, "detail": detail}, sort_keys=True
    ).encode()


class SearchHttpServer:
    """The asyncio server: request routing over one :class:`SearchService`."""

    def __init__(self, service: SearchService) -> None:
        self.service = service

    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await _read_request(reader)
                except _BadRequest as exc:
                    body = _error_body(400, "BadRequest", str(exc))
                    writer.write(_response(400, body, keep_alive=False))
                    await writer.drain()
                    return
                if request is None:
                    return
                status, body, extra = await self._dispatch(request)
                writer.write(
                    _response(status, body, keep_alive=request.keep_alive, extra=extra)
                )
                await writer.drain()
                if not request.keep_alive:
                    return
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass  # client went away mid-request; nothing to answer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _dispatch(
        self, request: _HttpRequest
    ) -> tuple[int, bytes, dict[str, str] | None]:
        route: (
            Callable[[_HttpRequest], Awaitable[tuple[int, bytes, dict[str, str] | None]]]
            | None
        )
        route = {
            ("POST", "/search"): self._search,
            ("GET", "/healthz"): self._healthz,
            ("GET", "/stats"): self._stats,
            ("POST", "/admin/refresh-db"): self._refresh_db,
        }.get((request.method, request.path))
        if route is None:
            known = {"/search", "/healthz", "/stats", "/admin/refresh-db"}
            status = 405 if request.path in known else 404
            return status, _error_body(status, _REASONS[status], request.path), None
        return await route(request)

    async def _search(
        self, request: _HttpRequest
    ) -> tuple[int, bytes, dict[str, str] | None]:
        try:
            payload = json.loads(request.body)
            query_id = str(payload["query_id"])
            sequence = payload["sequence"]
            if not isinstance(sequence, str) or not sequence:
                raise ValueError("sequence must be a non-empty string")
        except (ValueError, KeyError, TypeError) as exc:
            return 400, _error_body(400, "BadRequest", f"bad /search body: {exc}"), None
        try:
            future: "Future[ServeOutcome]" = self.service.submit(query_id, sequence)
        except OverloadedError as exc:
            return 429, _error_body(429, "Overloaded", str(exc)), {"Retry-After": "1"}
        except ServiceClosedError as exc:
            return 503, _error_body(503, "ServiceClosed", str(exc)), None
        try:
            # A cache hit comes back already resolved: take it without a
            # round trip through the loop's self-pipe.
            outcome = future.result() if future.done() else await asyncio.wrap_future(future)
        except (WorkerCrashError, ServiceClosedError) as exc:
            return 503, _error_body(503, type(exc).__name__, str(exc)), None
        except RemoteTaskError as exc:
            return 500, _error_body(500, "RemoteTaskError", str(exc)), None
        except Exception as exc:
            return 500, _error_body(500, type(exc).__name__, str(exc)), None
        return 200, outcome.payload, {"X-Cache": "HIT" if outcome.cache_hit else "MISS"}

    async def _healthz(
        self, request: _HttpRequest
    ) -> tuple[int, bytes, dict[str, str] | None]:
        body = json.dumps(
            {
                "status": "ok",
                "backend": self.service.backend,
                "workers": len(self.service.worker_pids()),
                "pending": self.service.pending,
            },
            sort_keys=True,
        ).encode()
        return 200, body, None

    async def _stats(
        self, request: _HttpRequest
    ) -> tuple[int, bytes, dict[str, str] | None]:
        return 200, json.dumps(self.service.stats_dict(), sort_keys=True).encode(), None

    async def _refresh_db(
        self, request: _HttpRequest
    ) -> tuple[int, bytes, dict[str, str] | None]:
        old, new, invalidated = self.service.refresh_db_version()
        body = json.dumps(
            {"old": old, "new": new, "invalidated": invalidated}, sort_keys=True
        ).encode()
        return 200, body, None


async def serve_forever(
    service: SearchService, host: str = "127.0.0.1", port: int = 8713
) -> None:
    """Run the HTTP server on the current loop until cancelled."""
    server = SearchHttpServer(service)
    async with await asyncio.start_server(server.handle_connection, host, port) as s:
        await s.serve_forever()


class ServeHandle:
    """An in-process server on an ephemeral port, for tests and benchmarks.

    Runs the asyncio loop in a daemon thread; :attr:`port` is the bound
    ephemeral port (``port=0`` default). Use as a context manager —
    :meth:`close` stops the loop and closes the service.
    """

    def __init__(
        self,
        service: SearchService,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        own_service: bool = True,
    ) -> None:
        self.service = service
        self.host = host
        self._own_service = own_service
        self._loop = asyncio.new_event_loop()
        self._started = threading.Event()
        self._server: asyncio.AbstractServer | None = None
        self._requested_port = port
        self.port: int = 0
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-http", daemon=True
        )
        service.start()
        self._thread.start()
        if not self._started.wait(timeout=30):
            raise RuntimeError("HTTP server failed to start within 30s")

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)

        async def boot() -> None:
            http = SearchHttpServer(self.service)
            self._server = await asyncio.start_server(
                http.handle_connection, self.host, self._requested_port
            )
            self.port = self._server.sockets[0].getsockname()[1]
            self._started.set()

        try:
            self._loop.run_until_complete(boot())
            self._loop.run_forever()
        finally:
            if self._server is not None:
                self._server.close()
                self._loop.run_until_complete(self._server.wait_closed())
            self._loop.close()

    @property
    def address(self) -> tuple[str, int]:
        return self.host, self.port

    def close(self) -> None:
        if self._loop.is_running():
            self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=30)
        if self._own_service:
            self.service.close()

    def __enter__(self) -> "ServeHandle":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
