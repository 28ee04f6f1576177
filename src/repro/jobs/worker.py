"""Worker-side job execution (runs inside pool processes *and* inline).

The engine submits :func:`run_payload` with a plain dict payload so the
pickled work item stays small and version-skew-tolerant.
:data:`EXECUTORS` is the only place a job kind's execution is defined;
:func:`run_payload` wraps every kind in one envelope, so it never raises
for job-level problems — an unparseable trace, a diverging replay, an
exhausted budget all come back as a result dict the engine turns into a
:class:`~repro.jobs.model.JobOutcome`.  Only a genuine worker death
(signal, ``os._exit``) surfaces as a broken pool, which the engine
handles with a retry.

Each worker process keeps one small LRU per artifact sort a kind derives
from a trace — compiled replay plans and lint probe contexts — keyed by
trace fingerprint (:func:`_cached`).  A sweep sends the same trace to
the pool N times, and deriving those once per *process* instead of once
per *job* is most of the win of batching.  Every result
dict reports whether its artifacts came from the cache
(``plan_cache_hits`` / ``plan_cache_misses``, 0-or-1 per job) so
``/metrics`` and ``vppb batch`` can show compile amortisation.

:func:`ingest_upload` is the service's ``POST /traces`` body, run in a
worker too: it salvages, spools and compiles an upload, and leaves the
plan in that worker's LRU for the replays that follow.
"""

from __future__ import annotations

import os
import tempfile
import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple

from repro.core.engine import Watchdog
from repro.core.errors import VppbError
from repro.core.predictor import compile_trace
from repro.core.simulator import Simulator
from repro.jobs.fingerprint import canonical_trace
from repro.jobs.model import TraceRef

__all__ = ["run_payload", "ingest_upload", "spool_path", "CRASH_SENTINEL", "EXECUTORS"]

#: Trace text that makes the worker die abruptly instead of returning —
#: the fault-injection hook behind the engine's crash-retry tests.  A
#: real recorder can never emit it (log lines start with '#' or a
#: timestamp).
CRASH_SENTINEL = "#!vppb-faultinject-worker-crash\n"

#: Traces each per-process artifact LRU holds.
CACHE_CAPACITY = 4

#: artifact sort ("plan", "lint") -> (trace fingerprint -> artifact),
#: per process.
_CACHES: Dict[str, "OrderedDict[str, Any]"] = {}

#: Guards :data:`_CACHES`: an inline engine runs jobs and uploads on
#: the service's executor threads at once.  Builds run outside it.
_CACHES_LOCK = threading.Lock()

#: Bytes of an upload fed to the salvage stream at a time, so its line
#: list never holds more than a slice of a large log.
UPLOAD_CHUNK = 64 * 1024

#: A kind's answer: (every artifact came from the cache?, result fields).
Executed = Tuple[bool, Dict[str, Any]]


def _cached(sort: str, trace_fp: str, build: Callable[[], Any]) -> Tuple[Any, bool]:
    """Return ``(artifact, cache_hit)`` from the process LRU for *sort*."""
    with _CACHES_LOCK:
        cache = _CACHES.setdefault(sort, OrderedDict())
        if trace_fp in cache:
            cache.move_to_end(trace_fp)
            return cache[trace_fp], True
    artifact = build()
    with _CACHES_LOCK:
        cache[trace_fp] = artifact
        while len(cache) > CACHE_CAPACITY:
            cache.popitem(last=False)
    return artifact, False


def _load(payload: Dict[str, Any]):
    trace_ref = TraceRef(
        payload["trace_fp"], payload.get("trace_path"), payload.get("trace_text")
    )
    return trace_ref.load()


def run_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one job payload; always returns a result dict.

    Payload keys: ``fingerprint``, ``trace_fp``, ``trace_path`` /
    ``trace_text`` (one required), ``config`` (a pickled
    :class:`~repro.core.config.SimConfig`), ``budget`` (an optional
    ``(max_events, max_wall_s)`` pair), ``label`` and ``kind`` (a key
    of :data:`EXECUTORS`, default ``"sim"``).
    """
    if payload.get("trace_text") == CRASH_SENTINEL:
        os._exit(3)  # simulate a segfaulting worker, not an exception

    started = time.perf_counter()
    try:
        cache_hit, result = EXECUTORS[payload.get("kind", "sim")](payload)
    except VppbError as exc:
        # a job that failed before (or during) deriving its artifacts
        # amortised nothing — count it as a cache miss
        cache_hit, result = False, {
            "status": "failed",
            "error": f"{type(exc).__name__}: {exc}",
        }
    result.update(
        fingerprint=payload["fingerprint"],
        label=payload.get("label", ""),
        elapsed_s=time.perf_counter() - started,
        plan_cache_hits=1 if cache_hit else 0,
        plan_cache_misses=0 if cache_hit else 1,
    )
    return result


def _run_sim(payload: Dict[str, Any]) -> Executed:
    """One replay: makespan out."""
    plan, cache_hit = _cached(
        "plan", payload["trace_fp"], lambda: compile_trace(_load(payload))
    )
    watchdog = _watchdog_from(payload.get("budget"))
    sim = Simulator(payload["config"], watchdog=watchdog, strict=False)
    result = sim.run_replay(plan)
    return cache_hit, {
        "status": result.status.value,
        "makespan_us": result.makespan_us,
        "engine_events": result.engine_events,
        "reason": result.incompleteness.describe() if result.incompleteness else None,
    }


def spool_path(spool_dir: "str | Path", fingerprint: str) -> Path:
    """Where an uploaded trace is spooled: named by its fingerprint."""
    return Path(spool_dir) / f"{fingerprint}.log"


def ingest_upload(body: bytes, spool_dir: str) -> Dict[str, Any]:
    """Salvage, spool and compile one ``POST /traces`` body.

    The upload is salvage-parsed, serialised once to canonical text and
    written atomically to its :func:`spool_path`, so the spool file
    holds exactly the bytes its fingerprint hashes.  The trace's replay
    plan goes into this process's plan LRU, where the next replay of it
    here finds it; a trace that salvages but does not compile is still
    spooled, and its replays fail as they would have.

    Returns the upload's response body, or ``{"error": ...}`` when
    nothing in the body is replayable.
    """
    from repro.recorder.salvage import SalvageStream

    stream = SalvageStream(source="upload")
    for start in range(0, len(body), UPLOAD_CHUNK):
        stream.feed(body[start:start + UPLOAD_CHUNK])
    result = stream.finish()
    trace, report = result.trace, result.report
    if len(trace) == 0:
        return {"error": "nothing salvageable in the uploaded log: " + report.summary()}
    text, fingerprint = canonical_trace(trace)
    path = spool_path(spool_dir, fingerprint)
    if not path.exists():
        # uploads are stored concurrently: write under a private name
        # and rename, so a reader never sees a half-written spool file
        fd, tmp = tempfile.mkstemp(dir=spool_dir, suffix=".tmp")
        with os.fdopen(fd, "wb") as out:
            out.write(text.encode("utf-8"))
        os.replace(tmp, path)
    try:
        _cached("plan", fingerprint, lambda: compile_trace(trace))
    except VppbError:
        pass  # no plan to keep; the trace's own jobs report why
    return {
        "trace": fingerprint,
        "events": len(trace),
        "threads": len(trace.thread_ids()),
        "program": trace.meta.program,
        "salvage": {
            "clean": report.clean,
            "repairs": len(report.repairs),
            "records_kept": report.records_kept,
            "counts": report.counts_by_kind(),
        },
    }


def _lint_context(payload: Dict[str, Any]):
    from repro.analysis.lint.predictive import lint_probe_context

    trace = _load(payload)
    return trace, lint_probe_context(trace)


def _run_lint(payload: Dict[str, Any]) -> Executed:
    """One predictive-lint probe: lint + unperturbed replay + verdicts.

    The probe itself completing is what ``status="complete"`` means here
    — a replay that deadlocks under the probed config is a *successful*
    probe (that's the prediction!), carried in the result payload, so
    the engine caches it like any other complete outcome.
    """
    from repro.analysis.lint.predictive import probe_trace

    trace_fp = payload["trace_fp"]
    (trace, context), lint_hit = _cached(
        "lint", trace_fp, lambda: _lint_context(payload)
    )
    plan, plan_hit = _cached("plan", trace_fp, lambda: compile_trace(trace))
    budget = payload.get("budget")
    max_events = 50_000_000
    if budget is not None and budget[0] is not None:
        max_events = budget[0]
    probe = probe_trace(
        trace,
        payload["config"],
        plan=plan,
        context=context,
        max_events=max_events,
        watchdog=_watchdog_from(budget),
    )
    return plan_hit and lint_hit, {
        "status": "complete",
        "makespan_us": int(probe.pop("makespan_us", 0)),
        "engine_events": int(probe.pop("engine_events", 0)),
        "reason": probe.get("replay_reason"),
        "payload": {"kind": "lint", **probe},
    }


#: Job kind -> executor.  The only place a kind's execution is defined
#: (its address lives in :data:`repro.jobs.model.FINGERPRINTS`).
EXECUTORS: Dict[str, Callable[[Dict[str, Any]], Executed]] = {
    "sim": _run_sim,
    "lint": _run_lint,
}


def _watchdog_from(budget: Optional[Tuple[Optional[int], Optional[float]]]):
    if budget is None:
        return None
    max_events, max_wall_s = budget
    if max_events is None and max_wall_s is None:
        return None
    return Watchdog(max_events=max_events, max_wall_s=max_wall_s)
