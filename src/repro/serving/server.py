"""Stdlib-asyncio HTTP front end with request micro-batching.

Single-threaded by design: one :class:`asyncio.Protocol` per connection
parses HTTP/1.1 (keep-alive) straight from its receive buffer in
``data_received``.  A ``/recommend`` joins the server's pending list; every
other route is answered on the spot.  The pending list is scored through
:meth:`~repro.serving.service.RecommendService.recommend_many` and each
response is written with ``transport.write`` — one event-loop pass per
request, with no per-request task, queue or future.

Micro-batching policy — *coalesce, never wait*: the first ``/recommend``
parsed in a loop iteration schedules one ``loop.call_soon`` flush, and the
flush scores up to ``max_batch`` pending requests in one call (a remainder
flushes on the next iteration).  Every request parsed in the same iteration
— all the sockets that one ``select`` found readable — rides the same
flush, so an idle server adds zero latency and, under load, batch size
grows exactly as fast as the server falls behind.  A timer-based window
would add its delay to every request to chase batches the backlog already
creates for free.

Each connection keeps one request in flight: pipelined requests wait in its
buffer and are answered in order.  ``pause_writing``/``resume_writing``
stop and restart answering a client that does not read its responses, and
reading pauses while the buffer holds more than a maximal request.  A head
(request line and headers) over ``_MAX_HEAD_BYTES`` or a body over
``_MAX_BODY_BYTES`` is answered 400 and the connection closed.  A handler
that raises anything but a client error answers 500 and logs its
traceback; a fault in a batch answers 500 to each member.

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
go through :meth:`RecommendServer._log`, which submits them to a dedicated
single-worker executor without waiting: one worker drains submissions FIFO,
so the JSONL event order is exactly the submission order.
"""

from __future__ import annotations

import asyncio
import json
import logging
import re
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import List, Optional, Set, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.serving.service import RecommendService
from repro.utils.telemetry import RunLogger

__all__ = ["RecommendServer"]

_logger = logging.getLogger(__name__)

_MAX_BODY_BYTES = 1 << 20
#: Longest request head (request line and headers, blank line included).
_MAX_HEAD_BYTES = 1 << 16
#: A buffer past this holds a whole request (or an over-long one), so
#: reading pauses until it is consumed.
_BUFFER_LIMIT = _MAX_HEAD_BYTES + _MAX_BODY_BYTES
#: The blank line that ends a head; lines end in ``\n`` or ``\r\n``.
_HEAD_END = re.compile(rb"\n\r?\n")

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found", 500: "Internal Server Error"}


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


def _response(status: int, payload: dict, keep_alive: bool) -> bytes:
    body = json.dumps(payload).encode("utf-8")
    return (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Error')}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n\r\n"
    ).encode("ascii") + body


def _report_log_failure(future: Future) -> None:
    exc = future.exception()
    if exc is not None:
        _logger.error("telemetry event not written", exc_info=exc)


class _Connection(asyncio.Protocol):
    """One client connection: parse, route and answer, a request at a time."""

    def __init__(self, server: "RecommendServer"):
        self.server = server
        self.transport: Optional[asyncio.Transport] = None
        self.buffer = bytearray()
        self.busy = False  # a /recommend waits for its flush
        self.writing_paused = False
        self.reading_paused = False
        self.eof = False

    # ------------------------------------------------------- protocol events
    def connection_made(self, transport) -> None:
        self.transport = transport
        self.server._connections.add(self)

    def connection_lost(self, exc) -> None:
        self.server._connections.discard(self)

    def data_received(self, data: bytes) -> None:
        self.buffer += data
        self.process()

    def eof_received(self) -> bool:
        # Half-close: answer what was received, then close (in process()).
        self.eof = True
        self.process()
        return True

    def pause_writing(self) -> None:
        self.writing_paused = True

    def resume_writing(self) -> None:
        self.writing_paused = False
        self.process()

    # ------------------------------------------------------------- requests
    @property
    def open(self) -> bool:
        return not self.transport.is_closing()

    def close(self) -> None:
        self.transport.close()

    def process(self) -> None:
        """Answer complete requests off the buffer until one has to wait."""
        while self.open and not (self.busy or self.writing_paused):
            if not self._next_request():
                if self.eof and self.open and not self.busy:
                    self.close()
                break
        over = len(self.buffer) > _BUFFER_LIMIT
        if over != self.reading_paused and self.open:
            self.reading_paused = over
            if over:
                self.transport.pause_reading()
            else:
                self.transport.resume_reading()

    def _next_request(self) -> bool:
        """Parse and dispatch the request at the head of the buffer.

        Returns ``False`` when it needs more bytes, went to the pending
        list, or closed the connection.
        """
        buf = self.buffer
        line_end = buf.find(b"\n")
        if line_end < 0:
            if len(buf) > _MAX_HEAD_BYTES:
                self._reject("request head too large")
            return False
        if line_end == 0 or (line_end == 1 and buf[0] == 0x0D):
            self.close()  # a blank line where a request line belongs
            return False
        try:
            method, target, _version = (
                buf[:line_end].decode("ascii").strip().split(" ", 2)
            )
        except (UnicodeDecodeError, ValueError):
            self._reject("malformed request line")
            return False
        head = _HEAD_END.search(buf, line_end)
        if head is None or head.end() > _MAX_HEAD_BYTES:
            if head is not None or len(buf) > _MAX_HEAD_BYTES:
                self._reject("request head too large")
            return False
        content_length: Optional[int] = 0
        keep_alive = True
        for line in buf[line_end + 1 : head.start()].decode("latin-1").split("\n"):
            name, _, value = line.partition(":")
            name = name.strip().lower()
            value = value.strip()
            if name == "content-length":
                content_length = _content_length(value)
            elif name == "connection" and value.lower() == "close":
                keep_alive = False
        if content_length is None:
            self._reject("malformed Content-Length")
            return False
        if content_length > _MAX_BODY_BYTES:
            self._reject("body too large")
            return False
        end = head.end() + content_length
        if len(buf) < end:
            return False
        body = bytes(buf[head.end() : end])
        del buf[:end]
        self._dispatch(method, target, body, keep_alive)
        return self.open and not self.busy

    def _dispatch(self, method: str, target: str, body: bytes, keep_alive: bool) -> None:
        start = time.perf_counter()
        path = target
        try:
            parts = urlsplit(target)
            path = parts.path
            if method == "GET" and path == "/recommend":
                request = self.server._recommend_request(parts.query)
                self.busy = True
                self.server._enqueue((self, request, method, path, start, keep_alive))
                return
            status, payload = 200, self.server._route(method, path, body)
        except _HttpError as exc:
            status, payload = exc.status, {"error": exc.message}
        except Exception as exc:  # a fault in one handler fails its request alone
            _logger.error("%s %s failed", method, path, exc_info=exc)
            status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
        self.finish(method, path, start, keep_alive, status, payload)

    def finish(
        self,
        method: str,
        path: str,
        start: float,
        keep_alive: bool,
        status: int,
        payload: dict,
    ) -> None:
        """Log and write one answer; close after it unless keep-alive."""
        self.busy = False
        self.server._log(
            "request",
            method=method,
            path=path,
            status=status,
            seconds=time.perf_counter() - start,
        )
        self.transport.write(_response(status, payload, keep_alive))
        if not keep_alive:
            self.close()

    def _reject(self, message: str) -> None:
        """Answer 400 to a request that cannot be framed, then close."""
        self.buffer.clear()
        self.transport.write(_response(400, {"error": message}, keep_alive=False))
        self.close()


#: A /recommend waiting for its flush: (connection, request, method, path,
#: start, keep_alive).
_Pending = Tuple[_Connection, dict, str, str, float, bool]


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
        self._server: Optional[asyncio.base_events.Server] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._connections: Set[_Connection] = set()
        self._pending: List[_Pending] = []
        self._flush_scheduled = False
        self._log_pool: Optional[ThreadPoolExecutor] = None

    # ---------------------------------------------------------------- telemetry
    def _log(self, event: str, **fields) -> None:
        """Queue one telemetry event without blocking the event loop.

        :meth:`RunLogger.log` holds a lock around a file write; a single
        worker thread writes events in submission order while the loop
        stays free to serve other connections.
        """
        if self.logger is None:
            return
        if self._log_pool is None:
            self._log_pool = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-telemetry"
            )
        self._log_pool.submit(self.logger.log, event, **fields).add_done_callback(
            _report_log_failure
        )

    # ---------------------------------------------------------------- lifecycle
    async def start(self) -> Tuple[str, int]:
        """Bind and start serving; returns ``(host, port)`` actually bound."""
        self._loop = asyncio.get_running_loop()
        self._server = await self._loop.create_server(
            lambda: _Connection(self), self.host, self.port
        )
        self.host, self.port = self._server.sockets[0].getsockname()[:2]
        self._log("serve_start", host=self.host, port=self.port, max_batch=self.max_batch)
        return self.host, self.port

    async def stop(self) -> None:
        """Stop listening, close every open connection, flush telemetry."""
        if self._server is not None:
            self._server.close()
            for conn in list(self._connections):
                conn.close()
            await self._server.wait_closed()
            self._server = None
        self._log("serve_stop", **self.service.stats())
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
    def _enqueue(self, pending: _Pending) -> None:
        self._pending.append(pending)
        if not self._flush_scheduled:
            self._flush_scheduled = True
            self._loop.call_soon(self._flush)

    def _flush(self) -> None:
        """Score up to ``max_batch`` pending requests and answer each."""
        batch = self._pending[: self.max_batch]
        del self._pending[: self.max_batch]
        if self._pending:
            self._loop.call_soon(self._flush)
        else:
            self._flush_scheduled = False
        live = [entry for entry in batch if entry[0].open]
        if not live:
            return
        try:
            responses = self.service.recommend_many([entry[1] for entry in live])
        except Exception as exc:  # a batch-level fault fails its members
            _logger.error("batch of %d /recommend failed", len(live), exc_info=exc)
            error = {"error": f"{type(exc).__name__}: {exc}"}
            results = [(500, error)] * len(live)
        else:
            self._log("batch", size=len(live))
            results = [(200, response) for response in responses]
        for (conn, _, method, path, start, keep_alive), (status, payload) in zip(
            live, results
        ):
            conn.finish(method, path, start, keep_alive, status, payload)
        for entry in live:
            entry[0].process()  # pipelined requests behind the answered one

    # ------------------------------------------------------------------- routes
    def _recommend_request(self, query: str) -> dict:
        """The validated request dict of a ``/recommend`` query string."""
        params = parse_qs(query)
        request: dict = {}
        try:
            if "user" in params:
                request["user"] = int(params["user"][0])
            if "handle" in params:
                request["handle"] = params["handle"][0]
            request["k"] = int(params.get("k", ["10"])[0])
        except (TypeError, ValueError):
            raise _HttpError(400, "user and k must be integers") from None
        try:
            self.service.validate_request(request)
        except ValueError as exc:
            raise _HttpError(400, str(exc)) from None
        return request

    def _route(self, method: str, path: str, body: bytes) -> dict:
        """The payload of every route but ``/recommend``."""
        if method == "GET" and path == "/healthz":
            return {"ok": True}
        if method == "GET" and path == "/stats":
            return self.service.stats()
        if method == "POST" and path == "/foldin":
            try:
                payload = json.loads(body.decode("utf-8") or "{}")
                items = payload["items"]
            except (ValueError, KeyError, TypeError, UnicodeDecodeError):
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
