"""``vppb client`` — a retrying HTTP client for the prediction service.

The transport-level mirror of the server's resilience layer: every
request retries with capped exponential backoff + full jitter
(:func:`repro.jobs.resilience.backoff_delays`) on connection failures
and on the server's explicit back-off signals (``429`` shed, ``503``
breaker open), honouring the ``Retry-After`` header when one is sent —
the server knows its own cooldown better than our jitter schedule does.

Not retried: client errors (4xx other than 429) because resending the
same bad request cannot help, and ``504`` deadline expiries because the
response may carry a salvaged partial result the caller wants.

Stdlib-only (``http.client``), one fresh connection per attempt; for a
localhost batch service connection reuse buys nothing and a stale
keep-alive socket after a server restart is one more failure mode.
"""

from __future__ import annotations

import json
import time
from http.client import HTTPConnection, HTTPException
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.core.errors import VppbError
from repro.jobs.resilience import backoff_delays

__all__ = ["ClientError", "ServiceClient"]

_RETRYABLE_STATUSES = (429, 503)
_CHUNK = 64 * 1024


class ClientError(VppbError):
    """A request that failed for good (after any retries).

    ``status`` is the final HTTP status (0 when the server was never
    reached) and ``body`` the decoded JSON error envelope, when any.
    """

    def __init__(
        self,
        message: str,
        *,
        status: int = 0,
        body: Optional[Dict[str, Any]] = None,
        attempts: int = 1,
    ):
        super().__init__(message)
        self.status = status
        self.body = body or {}
        self.attempts = attempts

    @property
    def partial(self) -> Optional[Dict[str, Any]]:
        """The salvaged partial envelope of a 504, when the server sent one."""
        return self.body.get("partial")


class ServiceClient:
    """Talk to one ``vppb serve`` instance with retry/backoff built in."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8123,
        *,
        timeout_s: float = 60.0,
        attempts: int = 4,
        backoff_base_s: float = 0.25,
        backoff_cap_s: float = 10.0,
        rng=None,
        sleep=time.sleep,
    ):
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self.attempts = max(1, attempts)
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self._rng = rng
        self._sleep = sleep
        self.retries = 0  # observability: transport retries performed

    # -- the retry loop -------------------------------------------------

    def request(
        self,
        method: str,
        path: str,
        *,
        body: Optional[bytes] = None,
        headers: Optional[Dict[str, str]] = None,
        chunks: Optional[Iterable[bytes]] = None,
    ) -> Dict[str, Any]:
        """One logical request; retries transport errors, 429 and 503.

        Returns the decoded JSON body of a 2xx response; raises
        :class:`ClientError` otherwise.  ``chunks`` switches to chunked
        transfer encoding (streaming upload) — such requests are only
        retried when the chunk source is re-iterable (a list, or a
        generator *factory* wrapper like :class:`_Reiterable`); a plain
        one-shot generator gets a single attempt, because replaying an
        exhausted generator would silently send an empty body.
        """
        if chunks is not None and iter(chunks) is chunks:
            attempts = 1  # one-shot iterator: a retry cannot replay it
        else:
            attempts = self.attempts
        delays = backoff_delays(
            attempts,
            base_s=self.backoff_base_s,
            cap_s=self.backoff_cap_s,
            rng=self._rng,
        )
        last_error: Optional[ClientError] = None
        for attempt in range(1, attempts + 1):
            try:
                status, payload, retry_after = self._once(
                    method, path, body=body, headers=headers, chunks=chunks
                )
            except (ConnectionError, HTTPException, OSError, TimeoutError) as exc:
                last_error = ClientError(
                    f"{method} {path}: cannot reach {self.host}:{self.port}: {exc}",
                    attempts=attempt,
                )
                retry_after = None
            else:
                if status < 300:
                    return payload
                last_error = ClientError(
                    f"{method} {path} -> {status}: "
                    + str(payload.get("error", "unknown error")),
                    status=status,
                    body=payload,
                    attempts=attempt,
                )
                if status not in _RETRYABLE_STATUSES:
                    raise last_error
            if attempt == attempts:
                break
            delay = next(delays, 0.0)
            if retry_after is not None:
                delay = max(delay, retry_after)
            self.retries += 1
            self._sleep(delay)
        raise last_error

    def _once(
        self,
        method: str,
        path: str,
        *,
        body: Optional[bytes],
        headers: Optional[Dict[str, str]],
        chunks: Optional[Iterable[bytes]],
    ) -> Tuple[int, Dict[str, Any], Optional[float]]:
        conn = HTTPConnection(self.host, self.port, timeout=self.timeout_s)
        try:
            if chunks is not None:
                conn.putrequest(method, path)
                conn.putheader("Transfer-Encoding", "chunked")
                for name, value in (headers or {}).items():
                    conn.putheader(name, value)
                conn.endheaders()
                for chunk in chunks:
                    if chunk:
                        conn.send(b"%x\r\n%s\r\n" % (len(chunk), chunk))
                conn.send(b"0\r\n\r\n")
            else:
                conn.request(method, path, body=body, headers=headers or {})
            response = conn.getresponse()
            raw = response.read()
            try:
                payload = json.loads(raw) if raw else {}
            except ValueError:
                payload = {"error": raw.decode("utf-8", errors="replace")[:200]}
            retry_after = None
            header = response.getheader("Retry-After")
            if header is not None:
                try:
                    retry_after = float(header)
                except ValueError:
                    pass
            return response.status, payload, retry_after
        finally:
            conn.close()

    # -- the API --------------------------------------------------------

    def alive(self) -> bool:
        try:
            return self.request("GET", "/healthz").get("status") == "ok"
        except ClientError:
            return False

    def ready(self) -> Dict[str, Any]:
        try:
            return self.request("GET", "/healthz/ready")
        except ClientError as exc:
            if exc.status == 503:
                return exc.body
            raise

    def metrics(self) -> Dict[str, Any]:
        return self.request("GET", "/metrics")

    def upload_trace(
        self, source: Union[str, Path], *, stream: bool = False
    ) -> Dict[str, Any]:
        """POST a log file to ``/traces``; returns the server's envelope.

        With ``stream=True`` the file goes up in 64 KiB chunks (chunked
        transfer encoding) so the server can salvage-parse as it reads —
        streamed requests re-open the file per retry attempt.
        """
        path = Path(source)
        if stream:
            def chunk_source():
                with open(path, "rb") as fh:
                    while True:
                        chunk = fh.read(_CHUNK)
                        if not chunk:
                            return
                        yield chunk

            return self.request("POST", "/traces", chunks=_Reiterable(chunk_source))
        return self.request("POST", "/traces", body=path.read_bytes())

    def predict(
        self,
        *,
        trace: Optional[str] = None,
        log: Optional[str] = None,
        cpus: Optional[List[int]] = None,
        binding: str = "unbound",
        lwps: Optional[int] = None,
        comm_delay_us: int = 0,
        deadline_s: Optional[float] = None,
    ) -> Dict[str, Any]:
        """POST ``/predict``; pass a ``trace`` fingerprint or raw ``log``."""
        request: Dict[str, Any] = {"binding": binding}
        if trace is not None:
            request["trace"] = trace
        if log is not None:
            request["log"] = log
        if cpus is not None:
            request["cpus"] = cpus
        if lwps is not None:
            request["lwps"] = lwps
        if comm_delay_us:
            request["comm_delay_us"] = comm_delay_us
        headers = {"Content-Type": "application/json"}
        if deadline_s is not None:
            request["deadline_s"] = deadline_s
        return self.request(
            "POST",
            "/predict",
            body=json.dumps(request).encode("utf-8"),
            headers=headers,
        )


class _Reiterable:
    """Wrap a generator factory so retries can restart the stream."""

    def __init__(self, factory):
        self._factory = factory

    def __iter__(self):
        return iter(self._factory())
