"""Engine/service observability: counters plus latency percentiles.

One :class:`EngineMetrics` instance is shared by a
:class:`~repro.jobs.engine.JobEngine` and (when serving) the HTTP
``/metrics`` endpoint, so the numbers a sweep prints and the numbers an
operator scrapes are the same numbers.  All updates are lock-protected —
the service handles requests on multiple threads.

Latencies are kept in a bounded ring (most recent
:data:`LATENCY_WINDOW` job executions) and summarised as p50/p90/p99 on
demand; for a local batch service exact order statistics over a recent
window beat a streaming sketch in both simplicity and debuggability.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, Dict, Optional

__all__ = ["LATENCY_WINDOW", "EngineMetrics"]

LATENCY_WINDOW = 1024


def _percentile(sorted_values, fraction: float) -> float:
    """Nearest-rank percentile over a pre-sorted sequence."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1, round(fraction * (len(sorted_values) - 1))))
    return sorted_values[rank]


def _breakdown(table: Dict[str, Dict[str, int]]) -> Dict[str, Dict[str, int]]:
    return {name: dict(per) for name, per in sorted(table.items())}


class EngineMetrics:
    """Thread-safe counters for one engine (and the service wrapping it)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.jobs_submitted = 0
        self.jobs_completed = 0
        self.jobs_failed = 0
        self.jobs_partial = 0
        self.worker_crashes = 0
        self.retries = 0
        self.jobs_rejected_breaker = 0
        #: tiered queries answered without touching the simulator
        self.analytic_hits = 0
        #: tiered queries whose interval straddled the decision and had
        #: to fall back to a full replay
        self.escalations = 0
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0
        #: per-job-kind and per-scheduler-backend breakdowns: jobs
        #: finished and plan-cache traffic attributed to the job's kind
        #: and to the backend it simulated under
        self.by_kind: Dict[str, Dict[str, int]] = {}
        self.by_scheduler: Dict[str, Dict[str, int]] = {}
        self._queue_depth = 0
        self._latencies_s: Deque[float] = deque(maxlen=LATENCY_WINDOW)

    # -- engine notifications ------------------------------------------

    def submitted(self) -> None:
        with self._lock:
            self.jobs_submitted += 1
            self._queue_depth += 1

    def finished(
        self,
        *,
        ok: bool,
        partial: bool,
        elapsed_s: Optional[float],
        plan_cache_hits: int = 0,
        plan_cache_misses: int = 0,
        kind: Optional[str] = None,
        scheduler: Optional[str] = None,
    ) -> None:
        with self._lock:
            self._queue_depth = max(0, self._queue_depth - 1)
            if ok:
                self.jobs_completed += 1
                if partial:
                    self.jobs_partial += 1
            else:
                self.jobs_failed += 1
            self.plan_cache_hits += plan_cache_hits
            self.plan_cache_misses += plan_cache_misses
            for table, key in ((self.by_kind, kind), (self.by_scheduler, scheduler)):
                if key is not None:
                    per = table.setdefault(
                        key,
                        {"jobs": 0, "plan_cache_hits": 0, "plan_cache_misses": 0},
                    )
                    per["jobs"] += 1
                    per["plan_cache_hits"] += plan_cache_hits
                    per["plan_cache_misses"] += plan_cache_misses
            if elapsed_s is not None:
                self._latencies_s.append(elapsed_s)

    def crashed(self, *, retried: bool) -> None:
        with self._lock:
            self.worker_crashes += 1
            if retried:
                self.retries += 1

    def breaker_rejected(self) -> None:
        """A job was refused outright because the circuit breaker is open."""
        with self._lock:
            self.jobs_rejected_breaker += 1

    def tier_outcome(self, *, analytic_hits: int = 0, escalations: int = 0) -> None:
        """Account one tiered query's per-cell resolution split.

        Called by the tiering policy (batch runner or service), not the
        engine: the engine sees jobs, the policy sees *queries* — a cell
        counts as a hit only when the analytic interval decided it.
        """
        with self._lock:
            self.analytic_hits += analytic_hits
            self.escalations += escalations

    # -- views ----------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        with self._lock:
            return self._queue_depth

    def latency_percentiles(self) -> Dict[str, float]:
        with self._lock:
            values = sorted(self._latencies_s)
        return {
            "p50_s": round(_percentile(values, 0.50), 6),
            "p90_s": round(_percentile(values, 0.90), 6),
            "p99_s": round(_percentile(values, 0.99), 6),
        }

    def snapshot(
        self,
        cache_stats: Optional[Dict] = None,
        *,
        breaker: Optional[Dict] = None,
    ) -> Dict:
        """One JSON-safe dict with everything (`/metrics` body)."""
        with self._lock:
            out = {
                "jobs_submitted": self.jobs_submitted,
                "jobs_completed": self.jobs_completed,
                "jobs_failed": self.jobs_failed,
                "jobs_partial": self.jobs_partial,
                "worker_crashes": self.worker_crashes,
                "retries": self.retries,
                "jobs_rejected_breaker": self.jobs_rejected_breaker,
                # tiered prediction: the per-cell split between
                # interval-decided cells and escalations to full
                # simulation
                "analytic_hits": self.analytic_hits,
                "escalations": self.escalations,
                "queue_depth": self._queue_depth,
                # worker-side compile amortisation (plan LRU, see
                # repro.jobs.worker): hits mean the sweep reused a
                # compiled plan instead of re-parsing the trace
                "plan_cache": {
                    "hits": self.plan_cache_hits,
                    "misses": self.plan_cache_misses,
                },
                # jobs executed and plan-cache traffic per job kind
                # (sim, lint; cache hits show under cache stats, and
                # analytic answers under analytic_hits) and per kernel
                # scheduler backend (cross-OS sweeps run the same trace
                # under several kernels)
                "kinds": _breakdown(self.by_kind),
                "schedulers": _breakdown(self.by_scheduler),
            }
        out["latency"] = self.latency_percentiles()
        if cache_stats is not None:
            out["cache"] = cache_stats
        if breaker is not None:
            out["breaker"] = breaker
        return out
