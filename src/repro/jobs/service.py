"""The prediction-service core behind ``vppb serve``.

:class:`PredictionService` owns everything transport-independent —
trace spool, request parsing, the deadline/breaker-aware ``predict``
path, error envelopes, counters.  The asyncio front end in
:mod:`repro.jobs.service_async` (admission control, streaming ingest,
graceful drain) is the one transport that serves it.  ``predict``
answers through :func:`repro.jobs.manifest.run_grid`, the same grid
runner ``vppb batch`` uses, so a request and a one-curve sweep give the
same makespans and speed-ups.

API (all bodies JSON unless noted):

``POST /traces``
    Body: a raw VPPB log file, streamed and salvage-parsed (400 only
    when nothing is replayable), serialised once to canonical text and
    spooled under its content fingerprint (the sha256 of the spooled
    bytes), off the event loop; returns ``{"trace": <fingerprint>,
    "events": n, "threads": n, ...}`` plus repair counts.  Uploading the
    same trace twice is idempotent.
``POST /predict``
    Body: ``{"trace": <fingerprint>}`` (previously uploaded) or
    ``{"log": <raw log text>}`` (one-shot), plus optional ``cpus``
    (list, default ``[2, 4, 8]``), ``lwps``, ``comm_delay_us``,
    ``binding`` (``"unbound"``/``"bound"``) and ``scheduler`` (a
    backend name, default ``"solaris"``).  Returns the speed-up
    predictions; repeated requests are served from the result cache.
    Optional ``tier`` (``"sim"`` default / ``"analytic"`` / ``"auto"``)
    answers cells from the calibrated analytic screen instead of — or,
    for ``auto``, in front of — full simulation; needs the stock
    calibration profile (``vppb calibrate-analytic``).  Tiered
    responses add per-cell ``tier``/``interval`` fields and a
    ``decisions`` block (best cell, knee at the optional ``target``
    fraction).  With a deadline (``deadline_s`` key, or front-end
    default) every simulated cell runs under it; analytic cells are
    arithmetic and never time out.  A cell the deadline cut short
    answers 504 with a partial-result envelope; a cell that came back
    partial for any other reason (deadlock, livelock, divergence) is a
    422 naming the cell and its status.
``POST /lint``
    Body: ``{"trace": <fingerprint>}`` or ``{"log": <raw text>}``, plus
    optional ``select``/``ignore`` rule lists and an optional ``whatif``
    grid (``cpus``/``bindings``/``lwps``/``comm_delay_us``).  Returns
    the static synchronisation findings — with a ``whatif`` grid, each
    race/deadlock is additionally tagged with the machine configs it
    concretely manifests under (content-addressed lint probes through
    the same engine and cache as predictions).
``GET /metrics``
    Engine + cache + service counters (queue depth, jobs
    completed/failed, cache hit rate, latency percentiles, breaker
    state, shed/deadline/body-cap counts, lint requests/probes).
``GET /healthz``
    Liveness probe (``/healthz/ready`` reports readiness).
"""

from __future__ import annotations

import os
import tempfile
import threading
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.core.config import SimConfig, ThreadPolicy
from repro.core.errors import AnalysisError, ConfigError, VppbError
from repro.core.result import RunStatus
from repro.jobs.engine import JobEngine
from repro.jobs.fingerprint import canonical_trace
from repro.jobs.manifest import GridCell, GridRun, curve_cells, grid_int, run_grid
from repro.jobs.model import JobOutcome, TraceRef
from repro.jobs.tiering import DEFAULT_TARGET_FRACTION

__all__ = [
    "DEFAULT_MAX_BODY_BYTES",
    "DeadlineExceeded",
    "PredictionService",
    "ServiceError",
    "default_max_body_bytes",
]

#: Default request-body cap; a §4-sized log is ~15 MB.
DEFAULT_MAX_BODY_BYTES = 64 * 1024 * 1024


def default_max_body_bytes() -> int:
    """``$VPPB_MAX_BODY_BYTES`` (bytes), else :data:`DEFAULT_MAX_BODY_BYTES`."""
    env = os.environ.get("VPPB_MAX_BODY_BYTES")
    if env:
        try:
            value = int(env)
            if value >= 1:
                return value
        except ValueError:
            pass
    return DEFAULT_MAX_BODY_BYTES


class ServiceError(Exception):
    """Maps straight to an HTTP error response.

    ``retry_after_s`` (for 429/503) becomes a ``Retry-After`` header;
    ``extra`` keys are merged into the JSON error body.
    """

    def __init__(
        self,
        status: int,
        message: str,
        *,
        retry_after_s: Optional[float] = None,
        extra: Optional[Dict[str, Any]] = None,
    ):
        self.status = status
        self.message = message
        self.retry_after_s = retry_after_s
        self.extra = extra
        super().__init__(message)

    def body(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"error": self.message}
        if self.extra:
            payload.update(self.extra)
        return payload


class DeadlineExceeded(ServiceError):
    """A per-request deadline ran out; 504 with a partial-result envelope.

    ``partial`` carries whatever the watchdog salvaged: predictions for
    the grid cells that completed inside the budget, plus the simulated
    progress of the cells that did not.
    """

    def __init__(self, message: str, *, partial: Optional[Dict[str, Any]] = None):
        super().__init__(
            504, message, extra={"partial": partial} if partial else None
        )
        self.partial = partial


class PredictionService:
    """The service state: an engine, a trace spool, request counters.

    Transport-free: it speaks in request dicts, response dicts and
    :class:`ServiceError` (status code + JSON body), and the asyncio
    server in :mod:`repro.jobs.service_async` puts it on the wire.
    """

    def __init__(
        self,
        engine: JobEngine,
        *,
        spool_dir: Optional[Path] = None,
        max_body_bytes: Optional[int] = None,
    ):
        self.engine = engine
        self.max_body_bytes = (
            max_body_bytes if max_body_bytes is not None else default_max_body_bytes()
        )
        self.spool_dir = Path(
            spool_dir if spool_dir is not None else tempfile.mkdtemp(prefix="vppb-spool-")
        )
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        self._traces: Dict[str, Path] = {}
        self._lock = threading.Lock()
        #: lazily resolved stock AnalyticProfile (False = not yet tried)
        self._analytic_profile: Any = False
        self.requests = 0
        self.errors = 0
        self.requests_shed = 0
        self.deadline_timeouts = 0
        self.bodies_rejected = 0
        self.streamed_uploads = 0
        self.lint_requests = 0

    # ------------------------------------------------------------------

    def store_salvaged(self, result) -> Dict[str, Any]:
        """Spool a streamed-and-salvaged upload (a :class:`SalvageResult`).

        The streaming ingest path parses leniently — a damaged log is
        accepted if anything is replayable, and the response reports
        every repair count so the client knows what it uploaded.  The
        trace is serialised once: the spool file holds exactly the
        canonical bytes its fingerprint hashes.
        """
        trace = result.trace
        if len(trace) == 0:
            raise ServiceError(
                400,
                "nothing salvageable in the uploaded log: "
                + result.report.summary(),
            )
        text, fingerprint = canonical_trace(trace)
        path = self.spool_dir / f"{fingerprint}.log"
        if not path.exists():
            # uploads are stored concurrently: write under a private name
            # and rename, so a reader never sees a half-written spool file
            fd, tmp = tempfile.mkstemp(dir=self.spool_dir, suffix=".tmp")
            with os.fdopen(fd, "wb") as out:
                out.write(text.encode("utf-8"))
            os.replace(tmp, path)
        with self._lock:
            self._traces[fingerprint] = path
            self.streamed_uploads += 1
        return {
            "trace": fingerprint,
            "events": len(trace),
            "threads": len(trace.thread_ids()),
            "program": trace.meta.program,
            "salvage": {
                "clean": result.report.clean,
                "repairs": len(result.report.repairs),
                "records_kept": result.report.records_kept,
                "counts": result.report.counts_by_kind(),
            },
        }

    def _resolve_trace(self, request: Dict[str, Any]) -> Tuple[TraceRef, Any]:
        from repro.recorder import logfile

        if "log" in request:
            try:
                trace = logfile.loads(request["log"])
            except VppbError as exc:
                raise ServiceError(400, f"malformed log: {exc}")
            return TraceRef.from_trace(trace), trace
        fp = request.get("trace")
        if not fp:
            raise ServiceError(400, "request needs 'trace' (fingerprint) or 'log'")
        with self._lock:
            path = self._traces.get(fp)
        if path is None:
            raise ServiceError(404, f"unknown trace {fp!r}; POST it to /traces first")
        trace = logfile.load(path)
        return TraceRef(fingerprint=fp, path=str(path)), trace

    def _parse_predict(
        self, request: Dict[str, Any], trace
    ) -> Tuple[str, List[GridCell]]:
        """The request's binding and its grid: one cell per CPU count."""
        cpus = request.get("cpus", [2, 4, 8])
        if not isinstance(cpus, list) or not cpus:
            raise ServiceError(400, "'cpus' must be a non-empty list")
        binding = request.get("binding", "unbound")
        if binding not in ("unbound", "bound"):
            raise ServiceError(400, f"unknown binding {binding!r}")
        policies = (
            {int(t): ThreadPolicy(bound=True) for t in trace.thread_ids()}
            if binding == "bound"
            else {}
        )
        lwps = request.get("lwps")
        try:
            base = SimConfig(
                lwps=None if lwps is None else grid_int(lwps, "'lwps'"),
                comm_delay_us=grid_int(request.get("comm_delay_us", 0), "'comm_delay_us'"),
                thread_policies=policies,
                scheduler=request.get("scheduler", "solaris"),
            )
            cpus = [grid_int(n, "'cpus' value") for n in cpus]
            return binding, curve_cells(base, cpus, binding=binding)
        except (AnalysisError, ConfigError) as exc:
            raise ServiceError(400, f"bad configuration: {exc}")

    def analytic_profile(self):
        """The calibration profile backing tiered requests, or a 400.

        Resolved once per service from ``VPPB_ANALYTIC_PROFILE`` / the
        repo's committed ``profiles/analytic.json`` (see
        :func:`repro.analytic.profile.load_default_profile`).
        """
        from repro.analytic.profile import load_default_profile
        from repro.core.errors import CalibrationError

        with self._lock:
            if self._analytic_profile is False:
                try:
                    self._analytic_profile = load_default_profile()
                except CalibrationError as exc:
                    raise ServiceError(400, f"bad analytic profile: {exc}")
            profile = self._analytic_profile
        if profile is None:
            raise ServiceError(
                400,
                "tiered prediction needs an analytic calibration profile; "
                "run 'vppb calibrate-analytic' or set VPPB_ANALYTIC_PROFILE",
            )
        return profile

    def check_breaker(self) -> None:
        """503 + ``Retry-After`` while the engine's breaker refuses work."""
        breaker = self.engine.breaker
        if breaker is None:
            return
        retry_after = breaker.reject_for()
        if retry_after is not None:
            raise ServiceError(
                503,
                "service unavailable: circuit breaker open after repeated "
                "worker crashes",
                retry_after_s=max(0.1, retry_after),
                extra={"breaker": breaker.snapshot()},
            )

    def predict(
        self, request: Dict[str, Any], *, deadline_s: Optional[float] = None
    ) -> Dict[str, Any]:
        """Answer one prediction request.

        One grid cell per requested CPU count, labelled ``<n>cpu`` on
        one speed-up curve (the request's binding), answered by
        :func:`repro.jobs.manifest.run_grid` — the same path as ``vppb
        batch``.  With *deadline_s* set, every simulated cell runs under
        a watchdog wall budget of the deadline; see :meth:`_answer` for
        how outcomes map to HTTP.
        """
        ref, trace = self._resolve_trace(request)
        binding, cells = self._parse_predict(request, trace)
        tier = request.get("tier", "sim")
        if tier not in ("sim", "analytic", "auto"):
            raise ServiceError(
                400, f"unknown tier {tier!r}: expected 'sim', 'analytic' or 'auto'"
            )
        if deadline_s is not None and deadline_s <= 0:
            raise ServiceError(400, f"bad deadline {deadline_s!r}: must be > 0")
        target, profile = DEFAULT_TARGET_FRACTION, None
        if tier != "sim":
            target = request.get("target", DEFAULT_TARGET_FRACTION)
            try:
                target = float(target)
            except (TypeError, ValueError):
                raise ServiceError(400, f"bad 'target' {target!r}: must be a number")
            if not 0.0 < target <= 1.0:
                raise ServiceError(400, f"bad 'target' {target!r}: must be in (0, 1]")
            profile = self.analytic_profile()
        self.check_breaker()

        grid = run_grid(
            self.engine,
            ref,
            cells,
            tier=tier,
            trace=trace,
            analytic_profile=profile,
            target_fraction=target,
            budget=(
                (self.engine.job_budget[0], deadline_s)
                if deadline_s is not None
                else None
            ),
        )
        body = {
            "trace": ref.fingerprint,
            "program": trace.meta.program,
            "binding": binding,
        }
        if tier != "sim":
            body["tier"] = tier
        return self._answer(grid, body, deadline_s)

    def _answer(
        self, grid: GridRun, body: Dict[str, Any], deadline_s: Optional[float]
    ) -> Dict[str, Any]:
        """Map a grid's outcomes to HTTP, in this order.

        503 when the breaker refused any cell; 422 when a cell failed
        or came back partial for any reason but the request's own
        deadline; 504 with a partial envelope when a deadline was set
        and every partial cell stopped on ``budget-exhausted``; else
        200: *body* (the response head, with ``tier`` when tiered) plus
        one prediction per cell.
        """
        outcomes = [grid.baseline] + [s.outcome for s in grid.scenarios]
        refused = [o for o in outcomes if o.status == JobOutcome.BREAKER_OPEN]
        if refused:
            # While half-open the breaker admits a single probe, so the
            # other grid cells come back BREAKER_OPEN even when the
            # probe succeeds (closing the breaker).  That is a transient
            # refusal, never a client error: always answer 503 +
            # Retry-After so the client retries the full grid.
            self.check_breaker()  # raises with the live cooldown while open
            breaker = self.engine.breaker
            raise ServiceError(
                503,
                "service unavailable: circuit breaker refused "
                + ", ".join(o.label for o in refused)
                + " while recovering from worker crashes; retry shortly",
                retry_after_s=1.0,
                extra={"breaker": breaker.snapshot()} if breaker is not None else None,
            )
        failed = [o for o in outcomes if not o.ok]
        if failed:
            raise ServiceError(
                422,
                "prediction failed: "
                + "; ".join(f"{o.label}: {o.error}" for o in failed),
            )

        tiered = "tier" in body
        predictions = []
        for s in grid.scenarios:
            entry = {
                "cpus": s.cpus,
                "speedup": round(s.speedup, 6) if s.speedup is not None else None,
                "makespan_us": s.outcome.makespan_us,
                "uniprocessor_us": grid.baseline.makespan_us,
            }
            if tiered:
                entry["tier"] = s.tier
                entry["interval"] = list(s.interval) if s.interval else None
            predictions.append(entry)

        partial = [o for o in outcomes if not o.complete]
        if partial:
            budget = RunStatus.BUDGET.value
            if deadline_s is None or any(o.status != budget for o in partial):
                raise ServiceError(
                    422,
                    "prediction failed: "
                    # a partial outcome's reason leads with its status
                    + "; ".join(f"{o.label}: {o.reason or o.status}" for o in partial),
                )
            with self._lock:
                self.deadline_timeouts += 1
            body["deadline_s"] = deadline_s
            body["predictions"] = [p for p in predictions if p["speedup"] is not None]
            body["incomplete"] = [
                {
                    "label": o.label,
                    "status": o.status,
                    "reason": o.reason,
                    "simulated_us": o.makespan_us,
                    "engine_events": o.engine_events,
                }
                for o in partial
            ]
            raise DeadlineExceeded(
                f"deadline of {deadline_s}s exceeded; "
                f"{len(partial)}/{len(outcomes)} cells salvaged as partial",
                partial=body,
            )
        body["predictions"] = predictions
        if tiered:
            body["decisions"] = grid.decisions
        return body

    def lint(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Answer one lint request, optionally predictive.

        Request: ``trace`` (fingerprint) or ``log`` (raw text), optional
        ``select``/``ignore`` rule-id lists, optional ``whatif`` — a
        sweep-manifest grid (``cpus``, ``bindings``, ``lwps``,
        ``comm_delay_us``; no ``trace`` key needed) whose configs each
        finding is probed under via the engine's cached lint jobs.
        """
        from repro.analysis.lint import run_lint, whatif_lint

        ref, trace = self._resolve_trace(request)
        try:
            report = run_lint(
                trace,
                select=request.get("select"),
                ignore=request.get("ignore"),
            )
        except AnalysisError as exc:
            raise ServiceError(400, f"bad lint request: {exc}")

        body: Dict[str, Any] = {"trace": ref.fingerprint}
        grid_spec = request.get("whatif")
        if grid_spec is not None:
            from repro.jobs.manifest import SweepManifest

            if not isinstance(grid_spec, dict):
                raise ServiceError(
                    400, "'whatif' must be an object (a sweep-manifest grid)"
                )
            data = dict(grid_spec)
            data.setdefault("trace", f"{ref.fingerprint}.log")
            try:
                manifest = SweepManifest.from_dict(data)
            except AnalysisError as exc:
                raise ServiceError(400, f"bad 'whatif' grid: {exc}")
            self.check_breaker()
            try:
                result = whatif_lint(
                    trace, manifest, report=report, engine=self.engine
                )
            except VppbError as exc:
                raise ServiceError(422, f"lint grid failed: {exc}")
            report = result.report
            body["grid"] = [c.to_dict() for c in result.cells]
        body.update(report.to_dict())
        with self._lock:
            self.lint_requests += 1
        return body

    def metrics(self) -> Dict[str, Any]:
        snapshot = self.engine.snapshot()
        with self._lock:
            snapshot["service"] = {
                "requests": self.requests,
                "errors": self.errors,
                "traces_spooled": len(self._traces),
                "requests_shed": self.requests_shed,
                "deadline_timeouts": self.deadline_timeouts,
                "bodies_rejected": self.bodies_rejected,
                "streamed_uploads": self.streamed_uploads,
                "lint_requests": self.lint_requests,
            }
        return snapshot

    def count_request(self, *, error: bool) -> None:
        with self._lock:
            self.requests += 1
            if error:
                self.errors += 1

    def count_shed(self) -> None:
        with self._lock:
            self.requests_shed += 1

    def count_rejected_body(self) -> None:
        with self._lock:
            self.bodies_rejected += 1
