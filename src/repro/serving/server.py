"""Stdlib-asyncio HTTP front end with request micro-batching.

Single-threaded by design: connection handlers parse HTTP/1.1 (keep-alive)
and enqueue ``(request, Future)`` pairs; one batcher task drains the queue
and scores each drained group through
:meth:`~repro.serving.service.RecommendService.recommend_many`.

Micro-batching policy — *coalesce, never wait*: the batcher blocks only for
the first request, then drains whatever else is already queued (up to
``max_batch``).  An idle server adds zero latency; under load, the requests
that arrive while one batch is scoring form the next batch automatically, so
batch size grows exactly as fast as the server falls behind.  A timer-based
window would add its delay to every request to chase batches the backlog
already creates for free.

Routes (all JSON):

- ``GET /healthz``                     — liveness probe;
- ``GET /stats``                       — service + cache + batch counters;
- ``GET /recommend?user=U&k=K``        — top-K for a known user;
- ``GET /recommend?handle=H&k=K``      — top-K for a fold-in handle;
- ``POST /foldin`` ``{"items": [...]}``— embed a new user, returns a handle.

Telemetry: every request appends one JSONL event through the (lock-guarded)
:class:`~repro.utils.telemetry.RunLogger`, plus per-batch size events —
``repro report`` summarizes a serving log like any training log.  The
logger's locked file write must never run on the event loop, so all events
go through :meth:`RecommendServer._log`, which hops to a dedicated
single-worker executor: one worker drains submissions FIFO, so the JSONL
event order is exactly the submission order handlers would have produced
writing inline.
"""

from __future__ import annotations

import asyncio
import functools
import json
import time
from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.serving.service import RecommendService
from repro.utils.telemetry import RunLogger

__all__ = ["RecommendServer"]

_MAX_BODY_BYTES = 1 << 20


class _HttpError(Exception):
    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


def _content_length(value: str) -> Optional[int]:
    """A ``Content-Length`` value as an int, or ``None`` unless it is 1*DIGIT.

    ``int()`` alone would also take signs, underscores and non-ASCII digits.
    Values past the body cap read as cap + 1 without conversion, so an
    over-long digit string cannot trip ``int``'s digit limit.
    """
    if not (value.isascii() and value.isdigit()):
        return None
    digits = value.lstrip("0") or "0"
    return int(digits) if len(digits) <= 9 else _MAX_BODY_BYTES + 1


def _status_line(status: int) -> bytes:
    reason = {200: "OK", 400: "Bad Request", 404: "Not Found", 500: "Internal Server Error"}
    return f"HTTP/1.1 {status} {reason.get(status, 'Error')}\r\n".encode("ascii")


class RecommendServer:
    """Serves a :class:`RecommendService` over HTTP with micro-batching."""

    def __init__(
        self,
        service: RecommendService,
        host: str = "127.0.0.1",
        port: int = 0,
        max_batch: int = 64,
        logger: Optional[RunLogger] = None,
    ):
        if max_batch <= 0:
            raise ValueError(f"max_batch must be positive, got {max_batch}")
        self.service = service
        self.host = host
        self.port = port
        self.max_batch = max_batch
        self.logger = logger
        self._queue: "asyncio.Queue[Tuple[dict, asyncio.Future]]" = asyncio.Queue()
        self._server: Optional[asyncio.base_events.Server] = None
        self._batcher: Optional[asyncio.Task] = None
        self._log_pool: Optional[ThreadPoolExecutor] = None

    # ---------------------------------------------------------------- telemetry
    async def _log(self, event: str, **fields) -> None:
        """Append one telemetry event without blocking the event loop.

        :meth:`RunLogger.log` holds a lock around a file write; a single
        worker thread keeps events in submission order while the loop stays
        free to serve other connections.
        """
        if self.logger is None:
            return
        if self._log_pool is None:
            self._log_pool = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-telemetry"
            )
        await asyncio.get_running_loop().run_in_executor(
            self._log_pool, functools.partial(self.logger.log, event, **fields)
        )

    # ---------------------------------------------------------------- lifecycle
    async def start(self) -> Tuple[str, int]:
        """Bind and start serving; returns ``(host, port)`` actually bound."""
        self._server = await asyncio.start_server(self._handle_conn, self.host, self.port)
        self.host, self.port = self._server.sockets[0].getsockname()[:2]
        self._batcher = asyncio.get_running_loop().create_task(self._batch_loop())
        await self._log(
            "serve_start", host=self.host, port=self.port, max_batch=self.max_batch
        )
        return self.host, self.port

    async def stop(self) -> None:
        if self._batcher is not None:
            self._batcher.cancel()
            try:
                await self._batcher
            except asyncio.CancelledError:
                pass
            self._batcher = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self._log("serve_stop", **self.service.stats())
        if self._log_pool is not None:
            self._log_pool.shutdown(wait=True)
            self._log_pool = None

    async def run(self) -> None:
        """Start and serve until cancelled (the ``repro serve`` entry)."""
        await self.start()
        print(f"serving on http://{self.host}:{self.port} (Ctrl-C to stop)")
        try:
            await self._server.serve_forever()
        finally:
            await self.stop()

    # ------------------------------------------------------------- micro-batch
    async def _batch_loop(self) -> None:
        while True:
            request, future = await self._queue.get()
            pending: List[Tuple[dict, asyncio.Future]] = [(request, future)]
            while len(pending) < self.max_batch:
                try:
                    pending.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            live = [(req, fut) for req, fut in pending if not fut.cancelled()]
            if not live:
                continue
            try:
                responses = self.service.recommend_many([req for req, _ in live])
            except Exception as exc:  # a batch-level fault fails its members
                for _, fut in live:
                    if not fut.done():
                        fut.set_exception(
                            _HttpError(500, f"{type(exc).__name__}: {exc}")
                        )
                continue
            for (_, fut), response in zip(live, responses):
                if not fut.done():
                    fut.set_result(response)
            await self._log("batch", size=len(live))

    # ------------------------------------------------------------------- routes
    async def _route(self, method: str, target: str, body: bytes) -> dict:
        parts = urlsplit(target)
        path = parts.path
        if method == "GET" and path == "/healthz":
            return {"ok": True}
        if method == "GET" and path == "/stats":
            return self.service.stats()
        if method == "GET" and path == "/recommend":
            query = parse_qs(parts.query)
            request: dict = {}
            try:
                if "user" in query:
                    request["user"] = int(query["user"][0])
                if "handle" in query:
                    request["handle"] = query["handle"][0]
                request["k"] = int(query.get("k", ["10"])[0])
            except (TypeError, ValueError):
                raise _HttpError(400, "user and k must be integers") from None
            try:
                self.service.validate_request(request)
            except ValueError as exc:
                raise _HttpError(400, str(exc)) from None
            future: asyncio.Future = asyncio.get_running_loop().create_future()
            await self._queue.put((request, future))
            return await future
        if method == "POST" and path == "/foldin":
            try:
                payload = json.loads(body.decode("utf-8") or "{}")
                items = payload["items"]
            except (ValueError, KeyError, UnicodeDecodeError):
                raise _HttpError(400, "body must be JSON with an 'items' list") from None
            if not isinstance(items, list) or not all(
                isinstance(i, int) and not isinstance(i, bool) for i in items
            ):
                raise _HttpError(400, "'items' must be a list of integer item ids")
            try:
                handle = self.service.fold_in(items)
            except ValueError as exc:
                raise _HttpError(400, str(exc)) from None
            return {"handle": handle, "observed": len(set(items))}
        raise _HttpError(404, f"no route for {method} {path}")

    # --------------------------------------------------------------- connection
    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                request_line = await reader.readline()
                if not request_line or request_line in (b"\r\n", b"\n"):
                    break
                try:
                    method, target, _version = (
                        request_line.decode("ascii").strip().split(" ", 2)
                    )
                except (UnicodeDecodeError, ValueError):
                    await self._respond(writer, 400, {"error": "malformed request line"})
                    break
                content_length: Optional[int] = 0
                keep_alive = True
                while True:
                    header = await reader.readline()
                    if header in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = header.decode("latin-1").partition(":")
                    name = name.strip().lower()
                    value = value.strip()
                    if name == "content-length":
                        content_length = _content_length(value)
                    elif name == "connection" and value.lower() == "close":
                        keep_alive = False
                if content_length is None:
                    await self._respond(
                        writer, 400, {"error": "malformed Content-Length"}, keep_alive=False
                    )
                    break
                if content_length > _MAX_BODY_BYTES:
                    await self._respond(writer, 400, {"error": "body too large"})
                    break
                body = await reader.readexactly(content_length) if content_length else b""
                start = time.perf_counter()
                try:
                    payload = await self._route(method, target, body)
                    status = 200
                except _HttpError as exc:
                    payload = {"error": exc.message}
                    status = exc.status
                await self._log(
                    "request",
                    method=method,
                    path=urlsplit(target).path,
                    status=status,
                    seconds=time.perf_counter() - start,
                )
                await self._respond(writer, status, payload, keep_alive=keep_alive)
                if not keep_alive:
                    break
        except (asyncio.IncompleteReadError, ConnectionResetError):
            pass  # client went away mid-request; nothing to answer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict,
        keep_alive: bool = True,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        connection = b"keep-alive" if keep_alive else b"close"
        writer.write(
            _status_line(status)
            + b"Content-Type: application/json\r\n"
            + b"Content-Length: " + str(len(body)).encode("ascii") + b"\r\n"
            + b"Connection: " + connection + b"\r\n\r\n"
            + body
        )
        await writer.drain()
