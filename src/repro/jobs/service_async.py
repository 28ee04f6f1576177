"""The asyncio front end: resilient HTTP serving over the job engine.

This is ``vppb serve``'s one front end.  It speaks HTTP/1.1 directly
over :func:`asyncio.start_server` (stdlib only — no aiohttp) and layers
the :mod:`repro.jobs.resilience` primitives around the transport-free
:class:`~repro.jobs.service.PredictionService` core, which owns request
parsing, the prediction path and every error envelope.

What the event loop adds around the core:

*Admission control.*  ``/predict`` passes through a bounded
:class:`~repro.jobs.resilience.AdmissionGate`; past the watermark the
request is shed immediately as ``429`` + ``Retry-After`` instead of
queueing without bound.  Shedding is cheap (no simulation work starts),
which is the point — under overload the server stays responsive.

*Deadlines.*  A per-request deadline (``X-VPPB-Deadline-S`` header,
``deadline_s`` body key, or the server default) becomes a watchdog wall
budget inside the simulator; when it expires the client gets ``504``
with whatever partial cells were salvaged.  A second, harder timeout
(1.5x + 0.5s) guards the transport itself so a wedged worker can never
hold a connection open forever.

*Circuit breaking.*  The engine's breaker state surfaces as ``503`` +
``Retry-After`` before any work is queued, and flips ``/healthz/ready``
so load balancers stop routing here while workers are crash-looping.

*Ingest in the pool.*  ``/traces`` reads the body as it arrives —
Content-Length or chunked transfer encoding — under the body cap
(``413``, mid-stream for chunked bodies), then hands the raw bytes to
:meth:`~repro.jobs.service.PredictionService.ingest` on the executor.
That makes one engine call: a pool worker salvages the log (a damaged
log is repaired, not rejected), spools it and keeps its compiled plan,
so the event loop and the server's interpreter do none of that work.

*Graceful shutdown.*  :meth:`AsyncPredictionServer.shutdown` stops
accepting, lets in-flight requests drain (bounded by
``drain_timeout_s``), then flushes the result cache so a restart starts
warm.
"""

from __future__ import annotations

import asyncio
import functools
import json
import signal
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, AsyncIterator, Dict, Optional, Tuple

from repro.jobs.engine import JobEngine
from repro.jobs.resilience import AdmissionGate
from repro.jobs.service import PredictionService, ServiceError

__all__ = ["AsyncPredictionServer", "BackgroundServer", "serve_async"]

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

_MAX_HEADER_LINES = 100
_MAX_LINE_BYTES = 16 * 1024
_READ_CHUNK = 64 * 1024


class _Request:
    __slots__ = ("method", "path", "version", "headers", "close", "body_consumed")

    def __init__(self, method: str, path: str, version: str, headers: Dict[str, str]):
        self.method = method
        self.path = path
        self.version = version
        self.headers = headers
        conn = headers.get("connection", "").lower()
        self.close = conn == "close" or (version == "HTTP/1.0" and conn != "keep-alive")
        # True once the framed body has been read off the socket in
        # full; starts True for bodyless requests.  While False the
        # connection cannot be reused: leftover body bytes would be
        # parsed as the next request line.
        length = headers.get("content-length", "").strip()
        chunked = "chunked" in headers.get("transfer-encoding", "").lower()
        self.body_consumed = not chunked and length in ("", "0")


class AsyncPredictionServer:
    """One listening socket + the resilience layer around a service core."""

    def __init__(
        self,
        service: PredictionService,
        *,
        host: str = "127.0.0.1",
        port: int = 8123,
        max_inflight: int = 8,
        retry_after_s: float = 1.0,
        default_deadline_s: Optional[float] = None,
        drain_timeout_s: float = 10.0,
        verbose: bool = False,
    ):
        self.service = service
        self.host = host
        self.port = port
        self.gate = AdmissionGate(max_inflight, retry_after_s=retry_after_s)
        self.default_deadline_s = default_deadline_s
        self.drain_timeout_s = drain_timeout_s
        self.verbose = verbose
        self.draining = False
        self.hard_timeouts = 0
        self.abandoned_workers = 0  # executor threads outliving a 504
        self._abandoned_lock = threading.Lock()
        self.flushed_on_shutdown = 0
        self._inflight = 0
        self._idle: Optional[asyncio.Event] = None
        self._conns: set = set()
        self._server: Optional[asyncio.AbstractServer] = None
        # simulation work runs here so the event loop never blocks;
        # sized past the gate so shedding, not thread exhaustion, is
        # always the binding constraint
        self._executor = ThreadPoolExecutor(
            max_workers=max(4, max_inflight + 2), thread_name_prefix="vppb-svc"
        )

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> "AsyncPredictionServer":
        self._idle = asyncio.Event()
        self._idle.set()
        self._server = await asyncio.start_server(self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def serve_forever(self) -> None:
        assert self._server is not None
        await self._server.serve_forever()

    async def shutdown(self) -> Dict[str, Any]:
        """Stop accepting, drain in-flight work, flush the result cache."""
        self.draining = True
        drained = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._idle is not None and self._inflight:
            try:
                await asyncio.wait_for(self._idle.wait(), self.drain_timeout_s)
            except asyncio.TimeoutError:
                drained = False
        # idle keep-alive connections sit parked in readline(); cut them
        for task in list(self._conns):
            task.cancel()
        if self._conns:
            await asyncio.gather(*self._conns, return_exceptions=True)
        self.flushed_on_shutdown = self.service.engine.cache.flush()
        self._executor.shutdown(wait=False, cancel_futures=True)
        return {
            "drained": drained,
            "abandoned_inflight": self._inflight,
            "cache_entries_flushed": self.flushed_on_shutdown,
        }

    # -- connection handling --------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conns.add(task)
        try:
            while True:
                request = await self._read_request(reader, writer)
                if request is None:
                    break
                close = await self._respond(request, reader, writer)
                if close or request.close or self.draining:
                    break
        except (ConnectionError, asyncio.IncompleteReadError, asyncio.TimeoutError):
            pass
        except asyncio.CancelledError:
            pass  # shutdown cut this idle connection; end the task cleanly
        except Exception as exc:  # never let a handler crash take the loop down
            if self.verbose:
                print(f"vppb serve: connection error: {exc!r}")
        finally:
            if task is not None:
                self._conns.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, RuntimeError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> Optional[_Request]:
        try:
            line = await reader.readline()
        except (ValueError, asyncio.LimitOverrunError):
            await self._send(writer, 400, {"error": "request line too long"}, close=True)
            return None
        if not line:
            return None
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            await self._send(
                writer, 400, {"error": f"malformed request line: {line[:80]!r}"},
                close=True,
            )
            return None
        method, path, version = parts
        headers: Dict[str, str] = {}
        for _ in range(_MAX_HEADER_LINES):
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            if len(raw) > _MAX_LINE_BYTES:
                await self._send(writer, 400, {"error": "header line too long"}, close=True)
                return None
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        else:
            await self._send(writer, 400, {"error": "too many headers"}, close=True)
            return None
        return _Request(method, path, version, headers)

    async def _body_chunks(self, reader, request: _Request) -> AsyncIterator[bytes]:
        """Yield the request body as it arrives, enforcing the size cap.

        Raises :class:`ServiceError` 413 mid-stream when the cap is hit
        (the caller must then close the connection — the rest of the
        body is unread) and 400 on framing errors.
        """
        cap = self.service.max_body_bytes
        if "chunked" in request.headers.get("transfer-encoding", "").lower():
            total = 0
            while True:
                size_line = await reader.readline()
                try:
                    size = int(size_line.strip().split(b";")[0], 16)
                except ValueError:
                    raise ServiceError(400, f"bad chunk header: {size_line[:40]!r}")
                if size == 0:
                    while True:  # consume (and ignore) any trailers
                        trailer = await reader.readline()
                        if trailer in (b"\r\n", b"\n", b""):
                            break
                    request.body_consumed = True
                    return
                total += size
                if total > cap:
                    self.service.count_rejected_body()
                    raise ServiceError(
                        413, f"body exceeds the {cap}-byte cap", extra={"cap": cap}
                    )
                yield await reader.readexactly(size)
                await reader.readexactly(2)  # CRLF after each chunk
        else:
            raw = request.headers.get("content-length", "0")
            try:
                length = int(raw)
            except ValueError:
                raise ServiceError(400, f"bad Content-Length: {raw!r}")
            if length < 0:
                raise ServiceError(400, f"bad Content-Length: {raw!r}")
            if length > cap:
                self.service.count_rejected_body()
                raise ServiceError(
                    413,
                    f"body of {length} bytes exceeds the {cap}-byte cap",
                    extra={"cap": cap},
                )
            remaining = length
            while remaining > 0:
                chunk = await reader.read(min(_READ_CHUNK, remaining))
                if not chunk:
                    raise ConnectionError("client closed mid-body")
                remaining -= len(chunk)
                yield chunk
            request.body_consumed = True

    async def _read_json(self, reader, request: _Request) -> Dict[str, Any]:
        body = bytearray()
        async for chunk in self._body_chunks(reader, request):
            body.extend(chunk)
        if not body:
            return {}
        try:
            parsed = json.loads(bytes(body))
        except ValueError as exc:
            raise ServiceError(400, f"body is not valid JSON: {exc}")
        if not isinstance(parsed, dict):
            raise ServiceError(400, "request body must be a JSON object")
        return parsed

    # -- routing --------------------------------------------------------

    async def _respond(self, request: _Request, reader, writer) -> bool:
        """Handle one request; returns True when the connection must close."""
        self._inflight += 1
        self._idle.clear()
        error = False
        try:
            try:
                status, payload, retry_after = await self._route(request, reader)
            except ServiceError as exc:
                error = True
                status, payload, retry_after = exc.status, exc.body(), exc.retry_after_s
            except (ConnectionError, asyncio.IncompleteReadError):
                raise
            except Exception as exc:
                # contract: a stack trace never reaches the wire
                error = True
                status, payload, retry_after = (
                    500,
                    {"error": f"internal error: {type(exc).__name__}: {exc}"},
                    None,
                )
            self.service.count_request(error=error)
            # any response sent before the body was fully read (413
            # mid-stream, 429 shed, 404, bad deadline, ...) leaves
            # unread body bytes on the socket; a keep-alive read would
            # parse those as the next request line, so the only safe
            # continuation is to close
            must_close = not request.body_consumed
            await self._send(
                writer, status, payload, retry_after_s=retry_after, close=must_close
            )
            return must_close
        finally:
            self._inflight -= 1
            if self._inflight == 0:
                self._idle.set()

    async def _route(
        self, request: _Request, reader
    ) -> Tuple[int, Dict[str, Any], Optional[float]]:
        method, path = request.method, request.path
        if method == "GET" and path in ("/healthz", "/healthz/live"):
            return 200, {"status": "ok"}, None
        if method == "GET" and path == "/healthz/ready":
            return self._readiness()
        if method == "GET" and path == "/metrics":
            return 200, self._metrics(), None
        if method == "POST" and path == "/traces":
            return 200, await self._ingest_trace(request, reader), None
        if method == "POST" and path == "/predict":
            return 200, await self._predict(request, reader), None
        if method == "POST" and path == "/lint":
            return 200, await self._lint(request, reader), None
        raise ServiceError(404, f"no such endpoint: {method} {path}")

    def _readiness(self) -> Tuple[int, Dict[str, Any], Optional[float]]:
        reasons = []
        retry_after = None
        if self.draining:
            reasons.append("draining")
        breaker = self.service.engine.breaker
        if breaker is not None:
            wait = breaker.reject_for()
            if wait is not None:
                reasons.append("circuit breaker open")
                retry_after = max(0.1, wait)
        if self.gate.headroom == 0:
            reasons.append("admission queue full")
            retry_after = retry_after or self.gate.retry_after_s
        if reasons:
            return 503, {"status": "unready", "reasons": reasons}, retry_after
        return 200, {"status": "ready", "headroom": self.gate.headroom}, None

    def _metrics(self) -> Dict[str, Any]:
        snapshot = self.service.metrics()
        snapshot["async"] = {
            "admission": self.gate.snapshot(),
            "inflight": self._inflight,
            "draining": self.draining,
            "hard_timeouts": self.hard_timeouts,
            "abandoned_workers": self.abandoned_workers,
            "default_deadline_s": self.default_deadline_s,
        }
        return snapshot

    async def _ingest_trace(self, request: _Request, reader) -> Dict[str, Any]:
        chunks = [chunk async for chunk in self._body_chunks(reader, request)]
        # salvaging, spooling and compiling run on a pool worker; the
        # engine call blocks while the pool is full, so it is made from
        # an executor thread, never from the loop
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._executor, self.service.ingest, b"".join(chunks)
        )

    async def _predict(self, request: _Request, reader) -> Dict[str, Any]:
        if not self.gate.try_enter():
            self.service.count_shed()
            raise ServiceError(
                429,
                f"server at capacity ({self.gate.capacity} requests in flight); "
                "retry later",
                retry_after_s=self.gate.retry_after_s,
                extra={"admission": self.gate.snapshot()},
            )
        release_on_exit = True
        try:
            body = await self._read_json(reader, request)
            deadline_s = self._deadline_for(request, body)
            loop = asyncio.get_running_loop()
            # submit directly (not run_in_executor) so the concurrent
            # future stays reachable after a hard timeout abandons the
            # awaitable wrapper
            work_cf = self._executor.submit(
                functools.partial(self.service.predict, body, deadline_s=deadline_s)
            )
            work = asyncio.wrap_future(work_cf, loop=loop)
            if deadline_s is None:
                return await work
            # the watchdog honours the deadline cooperatively; this
            # harder stop catches a wedged worker or pool rebuild storm
            try:
                return await asyncio.wait_for(work, deadline_s * 1.5 + 0.5)
            except asyncio.TimeoutError:
                self.hard_timeouts += 1
                # the simulation is still burning its executor thread:
                # keep the admission slot held until that thread really
                # ends, so a storm of wedged requests sheds 429s instead
                # of exhausting the pool and queueing admitted work that
                # can never start before its own deadline
                release_on_exit = False
                with self._abandoned_lock:
                    self.abandoned_workers += 1
                work_cf.add_done_callback(self._reap_abandoned)
                raise ServiceError(
                    504,
                    f"deadline of {deadline_s}s exceeded before the engine "
                    "responded; no partial result was salvaged",
                    retry_after_s=self.gate.retry_after_s,
                )
        finally:
            if release_on_exit:
                self.gate.leave()

    async def _lint(self, request: _Request, reader) -> Dict[str, Any]:
        """Lint shares predict's admission gate (a ``whatif`` grid costs
        real engine work) but not its deadline machinery — findings are
        all-or-nothing, there is no partial envelope to salvage."""
        if not self.gate.try_enter():
            self.service.count_shed()
            raise ServiceError(
                429,
                f"server at capacity ({self.gate.capacity} requests in flight); "
                "retry later",
                retry_after_s=self.gate.retry_after_s,
                extra={"admission": self.gate.snapshot()},
            )
        try:
            body = await self._read_json(reader, request)
            loop = asyncio.get_running_loop()
            work_cf = self._executor.submit(
                functools.partial(self.service.lint, body)
            )
            return await asyncio.wrap_future(work_cf, loop=loop)
        finally:
            self.gate.leave()

    def _reap_abandoned(self, done) -> None:
        # runs on the executor thread when an abandoned simulation ends
        self.gate.leave()  # thread-safe
        with self._abandoned_lock:
            self.abandoned_workers -= 1
        if not done.cancelled():
            done.exception()  # retrieved; the client already got its 504

    def _deadline_for(
        self, request: _Request, body: Dict[str, Any]
    ) -> Optional[float]:
        raw = request.headers.get("x-vppb-deadline-s")
        if raw is None:
            raw = body.get("deadline_s")
        if raw is None:
            return self.default_deadline_s
        try:
            deadline = float(raw)
        except (TypeError, ValueError):
            raise ServiceError(400, f"bad deadline {raw!r}")
        if deadline <= 0:
            raise ServiceError(400, f"bad deadline {raw!r}: must be > 0")
        return deadline

    # -- response writing -----------------------------------------------

    async def _send(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Dict[str, Any],
        *,
        retry_after_s: Optional[float] = None,
        close: bool = False,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        reason = _REASONS.get(status, "Unknown")
        head = [
            f"HTTP/1.1 {status} {reason}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
        ]
        if retry_after_s is not None:
            head.append(f"Retry-After: {max(1, round(retry_after_s))}")
        head.append(f"Connection: {'close' if close or self.draining else 'keep-alive'}")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body)
        await writer.drain()


class BackgroundServer:
    """Run an :class:`AsyncPredictionServer` on a daemon thread.

    The test suite and the load benchmark both need a live server next
    to synchronous client code::

        with BackgroundServer(service, max_inflight=4) as bg:
            conn = HTTPConnection("127.0.0.1", bg.port)
            ...
    """

    def __init__(self, service: PredictionService, **kwargs: Any):
        self.service = service
        self._kwargs = kwargs
        self.server: Optional[AsyncPredictionServer] = None
        self.port: Optional[int] = None
        self.shutdown_report: Optional[Dict[str, Any]] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._thread: Optional[threading.Thread] = None

    def __enter__(self) -> "BackgroundServer":
        self._thread = threading.Thread(
            target=self._run, name="vppb-async-server", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=10.0):
            raise RuntimeError("async server failed to start within 10s")
        if self._startup_error is not None:
            raise RuntimeError("async server failed to start") from self._startup_error
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)

        async def main() -> None:
            try:
                self.server = AsyncPredictionServer(self.service, port=0, **self._kwargs)
                await self.server.start()
                self.port = self.server.port
                self._stop = asyncio.Event()
            except BaseException as exc:
                self._startup_error = exc
                self._started.set()
                raise
            self._started.set()
            await self._stop.wait()
            self.shutdown_report = await self.server.shutdown()

        try:
            self._loop.run_until_complete(main())
        except BaseException:
            pass
        finally:
            self._loop.close()

    def stop(self) -> Optional[Dict[str, Any]]:
        if self._loop is not None and self._stop is not None and self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout=30.0)
        return self.shutdown_report


def serve_async(
    *,
    host: str = "127.0.0.1",
    port: int = 8123,
    engine: Optional[JobEngine] = None,
    spool_dir: Optional[Path] = None,
    max_inflight: int = 8,
    default_deadline_s: Optional[float] = None,
    max_body_bytes: Optional[int] = None,
    drain_timeout_s: float = 10.0,
    verbose: bool = True,
) -> None:
    """Run the asyncio service until SIGINT/SIGTERM (``vppb serve``)."""
    engine = engine or JobEngine()
    service = PredictionService(
        engine, spool_dir=spool_dir, max_body_bytes=max_body_bytes
    )

    async def main() -> None:
        server = AsyncPredictionServer(
            service,
            host=host,
            port=port,
            max_inflight=max_inflight,
            default_deadline_s=default_deadline_s,
            drain_timeout_s=drain_timeout_s,
            verbose=verbose,
        )
        await server.start()
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop.set)
            except NotImplementedError:  # non-Unix event loops
                pass
        if verbose:
            print(
                f"vppb serve: listening on http://{host}:{server.port} "
                f"({engine.mode} engine, {engine.workers} workers, "
                f"max {max_inflight} in flight"
                + (
                    f", {default_deadline_s}s default deadline"
                    if default_deadline_s
                    else ""
                )
                + "); Ctrl-C to stop"
            )
        await stop.wait()
        if verbose:
            print("vppb serve: draining in-flight requests")
        report = await server.shutdown()
        if verbose:
            print(
                "vppb serve: shut down "
                f"(drained={report['drained']}, "
                f"cache entries flushed={report['cache_entries_flushed']})"
            )

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass
    finally:
        engine.close()
