"""The unit of batch work: one question about one trace under one config.

A :class:`SimJob` pairs a :class:`TraceRef` (a log file on disk, or the
canonical text of an in-memory trace) with a
:class:`~repro.core.config.SimConfig` and a ``kind``: a replay
(``"sim"``) or a predictive-lint probe (``"lint"``).  Its fingerprint is
the content address of the result; equal fingerprints mean equal work,
so the result cache keys on it.  A kind is two table entries: its
address in :data:`FINGERPRINTS` here, its execution in
:data:`repro.jobs.worker.EXECUTORS`.  Analytic estimates are not jobs:
:func:`repro.jobs.manifest.run_grid` computes them in-process, and
caches them under :func:`analytic_job_fingerprint` addresses resolved
through this module.

A :class:`JobOutcome` is deliberately flat and JSON-safe — it crosses
process boundaries (worker → engine) and lives in the on-disk cache, so
it carries scalars, not simulator objects.  The simulator's graceful
degradation surfaces here: a partial replay arrives as a normal outcome
with ``status`` set to the :class:`~repro.core.result.RunStatus` value
and ``reason`` describing the :class:`~repro.core.result.Incompleteness`;
only a job that produced *no* result (unparseable trace, crashed worker)
has ``error`` set.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Optional

from repro.core.config import SimConfig
from repro.core.result import RunStatus
from repro.core.trace import Trace
from repro.jobs.fingerprint import (
    analytic_job_fingerprint,
    canonical_trace,
    job_fingerprint,
    lint_job_fingerprint,
    trace_fingerprint,
)

__all__ = ["TraceRef", "SimJob", "FINGERPRINTS", "JobOutcome"]


@dataclass(frozen=True)
class TraceRef:
    """A trace by content: a path to a log file and/or its canonical text.

    ``fingerprint`` is always set; ``path`` and ``text`` are alternative
    ways for a worker to materialise the trace.  Prefer ``path`` when one
    exists — it keeps the per-job pickle payload small.
    """

    fingerprint: str
    path: Optional[str] = None
    text: Optional[str] = None

    def __post_init__(self) -> None:
        if self.path is None and self.text is None:
            raise ValueError("TraceRef needs a path or inline text")

    @classmethod
    def from_trace(cls, trace: Trace) -> "TraceRef":
        """Reference an in-memory trace by its canonical text (one serialisation)."""
        text, fingerprint = canonical_trace(trace)
        return cls(fingerprint=fingerprint, text=text)

    @classmethod
    def from_path(cls, path: str) -> "TraceRef":
        """Reference a log file on disk (reads it once to fingerprint)."""
        from repro.recorder.logfile import load

        return cls(fingerprint=trace_fingerprint(load(path)), path=str(path))

    def load(self) -> Trace:
        from repro.recorder import logfile

        if self.path is not None:
            return logfile.load(self.path)
        return logfile.loads(self.text)


#: Job kind -> its content address.  The only place a kind's fingerprint
#: is defined (its execution lives in :data:`repro.jobs.worker.EXECUTORS`).
#: The fingerprint functions, and :func:`analytic_job_fingerprint` for
#: run_grid's analytic answers, are looked up in this module's globals at
#: call time, so a wrapper installed there sees every call.
FINGERPRINTS: Dict[str, Callable[["SimJob"], str]] = {
    "sim": lambda job: job_fingerprint(job.trace.fingerprint, job.config),
    "lint": lambda job: lint_job_fingerprint(job.trace.fingerprint, job.config),
}


@dataclass(frozen=True)
class SimJob:
    """One question about *trace* under *config*; ``kind`` says which.

    ``"sim"`` replays the trace; ``"lint"`` probes whether each
    predictive-lint hazard manifests under *config* (verdicts come back
    in the outcome's ``payload``, see
    :func:`repro.analysis.lint.predictive.probe_trace`).  Each kind has
    its own fingerprint namespace.

    ``label`` is a human-readable scenario name carried through to
    reports ("8cpu/bound"); it does not participate in the fingerprint.
    """

    trace: TraceRef
    config: SimConfig
    label: str = ""
    kind: str = "sim"

    def __post_init__(self) -> None:
        if self.kind not in FINGERPRINTS:
            raise ValueError(
                f"unknown job kind {self.kind!r} "
                f"(known: {', '.join(sorted(FINGERPRINTS))})"
            )

    @property
    def fingerprint(self) -> str:
        return FINGERPRINTS[self.kind](self)

    @classmethod
    def for_trace(cls, trace: Trace, config: SimConfig, **fields) -> "SimJob":
        return cls(trace=TraceRef.from_trace(trace), config=config, **fields)


@dataclass(frozen=True)
class JobOutcome:
    """The (JSON-safe) result of one job.

    ``status`` holds a :class:`RunStatus` value for any run that produced
    a result — ``"complete"`` for a full replay, the degradation verdict
    (``"deadlock"``, ``"budget-exhausted"``, ...) for a partial one.
    When no simulation happened at all, ``error`` says why and ``status``
    distinguishes the failure modes: ``"failed"`` (the job itself raised),
    ``"worker-crashed"`` (retry across pool rebuilds exhausted) and
    ``"breaker-open"`` (the engine refused to attempt it) — so a batch
    report can show *why* each cell went unanswered.
    """

    fingerprint: str
    status: str
    makespan_us: int = 0
    engine_events: int = 0
    reason: Optional[str] = None
    error: Optional[str] = None
    elapsed_s: float = 0.0
    attempts: int = 1
    from_cache: bool = False
    label: str = ""
    #: 0-or-1 per job: did the worker's in-process caches serve every
    #: per-trace artifact the job needed (compiled replay plan or lint
    #: context: hit), or was one built fresh (miss)?
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    #: Kind-specific result data (JSON-safe), tagged with the kind: lint
    #: probes' per-finding manifestation verdicts, run_grid's analytic
    #: answers' ``[lo, hi]`` interval.  Replays leave it None.
    payload: Optional[Dict[str, Any]] = None

    #: The job raised before producing any result (unparseable trace, ...).
    FAILED = "failed"
    #: The job killed its worker process on every attempt (retry exhausted).
    CRASHED = "worker-crashed"
    #: The engine's circuit breaker was open; the job was never attempted.
    BREAKER_OPEN = "breaker-open"

    @property
    def ok(self) -> bool:
        """A result exists (complete or partial)."""
        return self.error is None

    @property
    def complete(self) -> bool:
        return self.status == RunStatus.COMPLETE.value

    def to_dict(self) -> Dict[str, Any]:
        return {
            "fingerprint": self.fingerprint,
            "status": self.status,
            "makespan_us": self.makespan_us,
            "engine_events": self.engine_events,
            "reason": self.reason,
            "error": self.error,
            "elapsed_s": self.elapsed_s,
            "attempts": self.attempts,
            "label": self.label,
            "plan_cache_hits": self.plan_cache_hits,
            "plan_cache_misses": self.plan_cache_misses,
            "payload": self.payload,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any], *, from_cache: bool = False) -> "JobOutcome":
        return cls(
            fingerprint=data["fingerprint"],
            status=data["status"],
            makespan_us=int(data.get("makespan_us", 0)),
            engine_events=int(data.get("engine_events", 0)),
            reason=data.get("reason"),
            error=data.get("error"),
            elapsed_s=float(data.get("elapsed_s", 0.0)),
            attempts=int(data.get("attempts", 1)),
            from_cache=from_cache,
            label=data.get("label", ""),
            plan_cache_hits=int(data.get("plan_cache_hits", 0)),
            plan_cache_misses=int(data.get("plan_cache_misses", 0)),
            payload=data.get("payload"),
        )

    def with_label(self, label: str) -> "JobOutcome":
        return replace(self, label=label)
