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
"""

from __future__ import annotations

import os
import time
from collections import OrderedDict
from typing import Any, Callable, Dict, Optional, Tuple

from repro.core.engine import Watchdog
from repro.core.errors import VppbError
from repro.core.predictor import compile_trace
from repro.core.simulator import Simulator
from repro.jobs.model import TraceRef

__all__ = ["run_payload", "CRASH_SENTINEL", "EXECUTORS"]

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

#: A kind's answer: (every artifact came from the cache?, result fields).
Executed = Tuple[bool, Dict[str, Any]]


def _cached(sort: str, trace_fp: str, build: Callable[[], Any]) -> Tuple[Any, bool]:
    """Return ``(artifact, cache_hit)`` from the process LRU for *sort*."""
    cache = _CACHES.setdefault(sort, OrderedDict())
    if trace_fp in cache:
        cache.move_to_end(trace_fp)
        return cache[trace_fp], True
    artifact = cache[trace_fp] = build()
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
