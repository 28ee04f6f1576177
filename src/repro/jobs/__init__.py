"""Batch simulation service: content-addressed jobs over a worker pool.

The answer to "how would this trace behave on N CPUs?" is a pure
function of *(trace, configuration, engine version)* — so prediction
workloads batch and cache perfectly.  This package provides the three
layers that exploit that:

* :mod:`repro.jobs.model` / :mod:`repro.jobs.fingerprint` /
  :mod:`repro.jobs.worker` — the job model: a :class:`SimJob` is one
  *(trace, config)* pair plus a ``kind`` (a replay or a predictive-lint
  probe) with a deterministic content fingerprint; a kind is one entry
  in the addressing table (:data:`repro.jobs.model.FINGERPRINTS`) and
  one in the execution table (:data:`repro.jobs.worker.EXECUTORS`);
* :mod:`repro.jobs.engine` / :mod:`repro.jobs.cache` — the
  :class:`JobEngine`: a process pool with backpressure, per-job
  watchdog budgets, crash retry, and a disk-backed LRU
  :class:`ResultCache` in front;
* :mod:`repro.jobs.manifest` / :mod:`repro.jobs.service` /
  :mod:`repro.jobs.service_async` / :mod:`repro.jobs.client` — the user
  surfaces: ``vppb batch`` sweep manifests, the ``vppb serve`` HTTP
  service (one asyncio front end with admission control, deadlines and
  a circuit breaker — primitives in :mod:`repro.jobs.resilience` —
  around the transport-free :class:`PredictionService` core), and the
  retrying ``vppb client``.

Every speed-up question (``vppb batch``, ``POST /predict``, ``vppb
predict``/``report``/``knee``/``whatif --scheduler`` and the analysis
sweeps) takes one path, :func:`run_grid`: shared baseline, one replay
or in-process analytic answer per grid cell, tier escalation
(:mod:`repro.jobs.tiering`), decisions.  The engine only runs jobs;
callers that pass none share the inline :func:`default_engine`.
"""

import importlib

from repro.jobs.cache import CACHE_FORMAT_VERSION, ResultCache, default_cache_dir
from repro.jobs.engine import JobEngine, default_engine
from repro.jobs.fingerprint import (
    ANALYTIC_VERSION,
    ENGINE_VERSION,
    LINT_VERSION,
    analytic_job_fingerprint,
    canonical_config,
    config_fingerprint,
    job_fingerprint,
    lint_job_fingerprint,
    trace_fingerprint,
)
from repro.jobs.manifest import (
    BatchReport,
    GridCell,
    ScenarioResult,
    SweepManifest,
    run_grid,
    run_manifest,
)
from repro.jobs.metrics import EngineMetrics
from repro.jobs.model import JobOutcome, SimJob, TraceRef
from repro.jobs.tiering import (
    DEFAULT_TARGET_FRACTION,
    TierCell,
    decide,
    escalation_labels,
)
from repro.jobs.resilience import AdmissionGate, CircuitBreaker, backoff_delays
from repro.jobs.service import PredictionService

#: the HTTP client and server, imported on first use: a batch run or a
#: pool worker never pays for ``http.client`` and ``asyncio``
_LAZY = {
    "ClientError": "repro.jobs.client",
    "ServiceClient": "repro.jobs.client",
    "AsyncPredictionServer": "repro.jobs.service_async",
    "serve_async": "repro.jobs.service_async",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(module), name)


__all__ = [
    "CACHE_FORMAT_VERSION",
    "ANALYTIC_VERSION",
    "ENGINE_VERSION",
    "LINT_VERSION",
    "DEFAULT_TARGET_FRACTION",
    "AdmissionGate",
    "AsyncPredictionServer",
    "BatchReport",
    "CircuitBreaker",
    "ClientError",
    "EngineMetrics",
    "GridCell",
    "JobEngine",
    "JobOutcome",
    "PredictionService",
    "ResultCache",
    "ServiceClient",
    "ScenarioResult",
    "SimJob",
    "SweepManifest",
    "TierCell",
    "TraceRef",
    "analytic_job_fingerprint",
    "backoff_delays",
    "canonical_config",
    "config_fingerprint",
    "decide",
    "default_cache_dir",
    "default_engine",
    "escalation_labels",
    "job_fingerprint",
    "lint_job_fingerprint",
    "run_grid",
    "run_manifest",
    "serve_async",
    "trace_fingerprint",
]
