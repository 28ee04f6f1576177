"""The batch execution engine: a process pool with a cache in front.

:class:`JobEngine` turns a list of :class:`~repro.jobs.model.SimJob`
into :class:`~repro.jobs.model.JobOutcome`, in order, with:

* **content-addressed caching** — every job is looked up in the
  :class:`~repro.jobs.cache.ResultCache` first and stored on success,
  so re-running a sweep is mostly disk reads;
* **in-flight dedup** — jobs with equal fingerprints inside one batch
  execute once and share the result (a CPU sweep's 1-CPU point and its
  uniprocessor baseline often collide);
* **backpressure** — at most ``max_pending`` jobs are in the pool at a
  time; further submissions block the submitting thread instead of
  buffering unboundedly (a service under load degrades to queueing at
  the socket, not to memory growth);
* **deadline budgets** — each job runs under a
  :class:`~repro.core.engine.Watchdog`; an over-budget replay comes
  back as a *partial* outcome (``status="budget-exhausted"``), not an
  error;
* **crash containment** — a job that kills its worker process breaks
  the pool; the engine rebuilds the pool (with exponential-backoff +
  jitter between rebuild attempts), retries the job once, and degrades
  it to a ``worker-crashed`` outcome if it crashes again.  A poisoned
  job therefore never takes the rest of the sweep down with it;
* **circuit breaking** — consecutive worker crashes trip a
  :class:`~repro.jobs.resilience.CircuitBreaker` around the pool; while
  it is open, jobs come back immediately as ``breaker-open`` outcomes
  instead of being fed to a dying pool, and after a cooldown one job is
  admitted as a probe (success closes the breaker again).

``mode="inline"`` runs the identical worker code path in-process — the
degenerate pool used for tiny traces, tests, and determinism checks
(inline, pooled and cached execution must agree bit for bit).

:meth:`JobEngine.call` runs one function that is not a job (the
service's upload) on a worker under the same backpressure, breaker and
retry; it raises :class:`PoolUnavailable` where a job would come back
``breaker-open`` or ``worker-crashed``.

The engine runs jobs and knows nothing of baselines or speed-ups:
:func:`repro.jobs.manifest.run_grid` pairs a uniprocessor baseline with
grid cells, and every speed-up question goes through it.
"""

from __future__ import annotations

import random
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.jobs.cache import ResultCache
from repro.jobs.metrics import EngineMetrics
from repro.jobs.model import JobOutcome, SimJob
from repro.jobs.resilience import CircuitBreaker, backoff_delays
from repro.jobs.worker import run_payload

__all__ = ["JobEngine", "PoolUnavailable", "default_engine"]

#: A per-call watchdog budget: (max_events, max_wall_s).
Budget = Tuple[Optional[int], Optional[float]]

#: What :meth:`JobEngine._await` returns for a call whose worker died
#: on both attempts.
_CRASHED = object()


class PoolUnavailable(Exception):
    """A :meth:`JobEngine.call` the pool could not answer.

    The breaker refused it, or its worker died on both attempts.
    ``retry_after_s`` is when a retry could be admitted.
    """

    def __init__(self, message: str, *, retry_after_s: float):
        super().__init__(message)
        self.retry_after_s = retry_after_s


class JobEngine:
    """Run simulation jobs on a worker pool behind a result cache.

    Parameters
    ----------
    workers:
        Pool size (``None`` = ``os.cpu_count()``, capped at 8 — replay
        is CPU-bound and a local service should not starve the machine).
    mode:
        ``"process"`` (default) or ``"inline"``.
    cache:
        A :class:`ResultCache`; ``None`` gives a memory-only cache.
        Pass ``use_cache=False`` per call to bypass lookups entirely.
    max_pending:
        Backpressure bound on jobs submitted but not yet finished.
    job_max_events / job_max_wall_s:
        Per-job watchdog budgets (``None`` disables that budget).
    breaker:
        The :class:`CircuitBreaker` guarding the pool.  ``None`` (the
        default) builds one that trips after 4 consecutive worker
        crashes and half-opens after 10 s; pass ``breaker=False`` to
        disable circuit breaking entirely.
    """

    def __init__(
        self,
        *,
        workers: Optional[int] = None,
        mode: str = "process",
        cache: Optional[ResultCache] = None,
        max_pending: int = 64,
        job_max_events: Optional[int] = 50_000_000,
        job_max_wall_s: Optional[float] = None,
        breaker=None,
        retry_sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if mode not in ("process", "inline"):
            raise ValueError(f"mode must be 'process' or 'inline', got {mode!r}")
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        import os

        self.mode = mode
        self.workers = workers or min(8, os.cpu_count() or 1)
        self.cache = cache if cache is not None else ResultCache(None)
        self.metrics = EngineMetrics()
        if breaker is None:
            breaker = CircuitBreaker(failure_threshold=4, cooldown_s=10.0)
        self.breaker: Optional[CircuitBreaker] = breaker or None
        self._budget = (job_max_events, job_max_wall_s)
        self._slots = threading.BoundedSemaphore(max_pending)
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_lock = threading.Lock()
        self._closed = False
        self._retry_sleep = retry_sleep
        # deterministic jitter: every engine replays the same backoff
        # schedule, so crash-retry tests are reproducible
        self._retry_rng = random.Random(0x5EED)

    @property
    def job_budget(self) -> Budget:
        """The engine-level per-job watchdog budget."""
        return self._budget

    # ------------------------------------------------------------------
    # pool lifecycle
    # ------------------------------------------------------------------

    def _get_pool(self) -> ProcessPoolExecutor:
        with self._pool_lock:
            if self._closed:
                raise RuntimeError("engine is closed")
            if self._pool is None:
                self._pool = ProcessPoolExecutor(max_workers=self.workers)
            return self._pool

    def _discard_pool(self, broken: ProcessPoolExecutor) -> None:
        """Drop a broken pool so the next submit builds a fresh one."""
        with self._pool_lock:
            if self._pool is broken:
                self._pool = None
        broken.shutdown(wait=False)

    def close(self) -> None:
        with self._pool_lock:
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "JobEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def _payload(
        self, job: SimJob, fingerprint: str, budget: Optional[Budget]
    ) -> Dict:
        return {
            "fingerprint": fingerprint,
            "trace_fp": job.trace.fingerprint,
            "trace_path": job.trace.path,
            "trace_text": job.trace.text if job.trace.path is None else None,
            "config": job.config,
            "budget": budget if budget is not None else self._budget,
            "label": job.label,
            "kind": job.kind,
        }

    def _breaker_open_outcome(self, job: SimJob, fingerprint: str) -> JobOutcome:
        self.metrics.breaker_rejected()
        retry_after = self.breaker.reject_for() if self.breaker else None
        hint = (
            f"; retry in {retry_after:.1f}s" if retry_after else ""
        )
        return JobOutcome(
            fingerprint=fingerprint,
            status=JobOutcome.BREAKER_OPEN,
            error=f"circuit breaker open after repeated worker crashes{hint}",
            attempts=0,
            label=job.label,
        )

    def _submit(self, fn: Callable[..., Any], *args: Any) -> Future:
        """Submit ``fn(*args)`` under backpressure; the slot frees when it ends.

        A pool that a sibling job broke, and that nobody has discarded
        yet, refuses the submit with :class:`BrokenProcessPool`; the call
        then gets an already-failed future, so :meth:`_await` rebuilds
        the pool and retries it like any other crash.
        """
        self._slots.acquire()
        try:
            future = self._get_pool().submit(fn, *args)
        except BrokenProcessPool as exc:
            self._slots.release()
            future = Future()
            future.set_exception(exc)
            return future
        except BaseException:
            self._slots.release()
            raise
        future.add_done_callback(lambda _f: self._slots.release())
        return future

    def _await(
        self, future: Future, resubmit: Callable[[], Future]
    ) -> Tuple[Any, int]:
        """Resolve one future, retrying once across a pool rebuild.

        Returns ``(result, attempts)``, the result being :data:`_CRASHED`
        when the worker died on both attempts.  Rebuild attempts back off
        with deterministic jitter so a burst of crashing jobs does not
        hammer pool reconstruction; every crash is reported to the
        circuit breaker, every answer from a live worker (an exception
        included) resets it.
        """
        attempts = 1
        delays = backoff_delays(
            4, base_s=0.05, cap_s=1.0, rng=self._retry_rng
        )
        while True:
            try:
                result = future.result()
            except BrokenProcessPool:
                if self.breaker is not None:
                    self.breaker.record_failure()
                with self._pool_lock:
                    broken = self._pool
                if broken is not None:
                    self._discard_pool(broken)
                if attempts >= 2:
                    self.metrics.crashed(retried=False)
                    return _CRASHED, attempts
                self.metrics.crashed(retried=True)
                attempts += 1
                delay = next(delays, 0.0)
                if delay > 0:
                    self._retry_sleep(delay)
                future = resubmit()
            except Exception:
                if self.breaker is not None:
                    self.breaker.record_success()
                raise
            else:
                if self.breaker is not None:
                    self.breaker.record_success()
                return result, attempts

    def _collect(
        self,
        job: SimJob,
        fingerprint: str,
        future: Future,
        budget: Optional[Budget],
    ) -> JobOutcome:
        """Resolve one job; a worker that died twice makes it ``worker-crashed``."""
        result, attempts = self._await(
            future,
            lambda: self._submit(run_payload, self._payload(job, fingerprint, budget)),
        )
        if result is _CRASHED:
            return JobOutcome(
                fingerprint=fingerprint,
                status=JobOutcome.CRASHED,
                error="worker crashed twice; job abandoned",
                attempts=attempts,
                label=job.label,
            )
        outcome = JobOutcome.from_dict(result)
        if attempts > 1:
            # the worker counts its own run only
            outcome = replace(outcome, attempts=attempts)
        return outcome

    def call(self, fn: Callable[..., Any], *args: Any) -> Any:
        """Return ``fn(*args)``, run on a pool worker under crash containment.

        The call takes a backpressure slot and passes the breaker as a
        job does, and a worker death is retried once across a pool
        rebuild.  An inline engine runs it in the calling thread.
        Raises :class:`PoolUnavailable` when the breaker refuses the
        call or its worker died on both attempts; an exception *fn*
        raises reaches the caller.  *fn* and *args* must pickle, and a
        pooled call blocks its caller while the pool is full: call it
        from a worker thread, never an event loop.
        """
        if self.mode == "inline":
            return fn(*args)
        if self.breaker is not None and not self.breaker.allow():
            self.metrics.breaker_rejected()
            raise PoolUnavailable(
                "circuit breaker open after repeated worker crashes",
                retry_after_s=max(0.1, self.breaker.reject_for() or 0.0),
            )
        result, _attempts = self._await(
            self._submit(fn, *args), lambda: self._submit(fn, *args)
        )
        if result is _CRASHED:
            retry_after = self.breaker.reject_for() if self.breaker else None
            raise PoolUnavailable(
                "worker crashed twice", retry_after_s=max(1.0, retry_after or 0.0)
            )
        return result

    def run(
        self,
        jobs: Sequence[SimJob],
        *,
        use_cache: bool = True,
        budget: Optional[Budget] = None,
    ) -> List[JobOutcome]:
        """Execute *jobs*, returning outcomes in submission order.

        Never raises for job-level failures; inspect each outcome's
        ``error``/``status``.  *budget* overrides the engine-level
        watchdog budget for this call only (a per-request deadline);
        partial results produced under a per-call budget are **not**
        cached — they reflect the caller's deadline, not the work.
        """
        jobs = list(jobs)
        outcomes: List[Optional[JobOutcome]] = [None] * len(jobs)

        # cache front + in-flight dedup
        pending: Dict[str, List[int]] = {}
        for i, job in enumerate(jobs):
            fp = job.fingerprint
            cached = self.cache.get(fp) if use_cache else None
            if cached is not None:
                outcomes[i] = cached.with_label(job.label)
            else:
                pending.setdefault(fp, []).append(i)

        resolved: Dict[str, JobOutcome] = {}
        if self.mode == "inline":
            for fp, indices in pending.items():
                self.metrics.submitted()
                payload = self._payload(jobs[indices[0]], fp, budget)
                resolved[fp] = JobOutcome.from_dict(run_payload(payload))
                self._account(resolved[fp], jobs[indices[0]])
        else:
            futures: Dict[str, Future] = {}
            for fp, indices in pending.items():
                job = jobs[indices[0]]
                if self.breaker is not None and not self.breaker.allow():
                    resolved[fp] = self._breaker_open_outcome(job, fp)
                else:
                    futures[fp] = self._submit(
                        run_payload, self._payload(job, fp, budget)
                    )
                    self.metrics.submitted()
            for fp, future in futures.items():
                job = jobs[pending[fp][0]]
                resolved[fp] = self._collect(job, fp, future, budget)
                self._account(resolved[fp], job)

        for fp, indices in pending.items():
            outcome = resolved[fp]
            if use_cache and (budget is None or outcome.complete):
                self.cache.put(outcome)
            for i in indices:
                outcomes[i] = outcome.with_label(jobs[i].label)
        return outcomes  # type: ignore[return-value]

    def _account(self, outcome: JobOutcome, job: SimJob) -> None:
        self.metrics.finished(
            ok=outcome.ok,
            partial=outcome.ok and not outcome.complete,
            elapsed_s=outcome.elapsed_s if outcome.ok else None,
            plan_cache_hits=outcome.plan_cache_hits,
            plan_cache_misses=outcome.plan_cache_misses,
            kind=job.kind,
            scheduler=job.config.scheduler,
        )

    def snapshot(self) -> Dict:
        """Engine + cache + breaker state in one JSON-safe dict."""
        return self.metrics.snapshot(
            self.cache.stats(),
            breaker=self.breaker.snapshot() if self.breaker else None,
        )


# ---------------------------------------------------------------------------
# the shared default engine
# ---------------------------------------------------------------------------

_DEFAULT_ENGINE: Optional[JobEngine] = None
_DEFAULT_LOCK = threading.Lock()


def default_engine() -> JobEngine:
    """The process-wide engine behind the analysis convenience functions.

    Inline (no worker processes) with a memory-only cache, so library
    callers get result dedup for free without surprise subprocesses.
    Pass a pooled :class:`JobEngine` to parallelise a sweep.
    """
    global _DEFAULT_ENGINE
    with _DEFAULT_LOCK:
        if _DEFAULT_ENGINE is None:
            _DEFAULT_ENGINE = JobEngine(mode="inline")
        return _DEFAULT_ENGINE
