"""Content addressing for simulation work.

A prediction is a pure function of *(trace, configuration, engine
version)* — the simulator is deterministic by construction (the engine
breaks event-queue ties by insertion order).  That purity is what makes
batch prediction cacheable: two jobs with the same fingerprint are the
same job, whether they run inline, in a worker process, or in another
process next week.

* :func:`canonical_trace` serialises a trace to its canonical log text
  once and hashes those bytes (the log-file format is itself canonical:
  one record per line in time order, sorted header tables); it is the
  one definition of a trace's address, behind :func:`trace_fingerprint`,
  :meth:`Trace.fingerprint <repro.core.trace.Trace.fingerprint>` and
  every in-memory :class:`~repro.jobs.model.TraceRef`;
* :func:`canonical_config` lowers a :class:`~repro.core.config.SimConfig`
  to a JSON-safe dict with sorted keys, covering every field that can
  change a simulation outcome (costs, dispatch table, per-thread
  policies included);
* :func:`job_fingerprint` combines both with :data:`ENGINE_VERSION`, so
  bumping the version invalidates every cached result at once.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Tuple

from repro.core.config import SimConfig, ThreadPolicy
from repro.core.trace import Trace

__all__ = [
    "ENGINE_VERSION",
    "LINT_VERSION",
    "ANALYTIC_VERSION",
    "STATS_VERSION",
    "canonical_trace",
    "trace_fingerprint",
    "canonical_config",
    "config_fingerprint",
    "job_fingerprint",
    "lint_job_fingerprint",
    "analytic_job_fingerprint",
]

#: Version of the prediction engine baked into every job fingerprint.
#: Bump on any change that can alter a simulation outcome (scheduler
#: semantics, cost model defaults, replay rules): every previously
#: cached result then misses and is recomputed.
#: v2: canonical configs gained the scheduler-backend axis.
ENGINE_VERSION = 2

#: Version of the lint rule set + manifestation probe baked into every
#: lint-job fingerprint.  Bump whenever a rule, the happens-before
#: analysis, or the manifestation criteria change — predictive-lint grid
#: results cached under the old semantics then stop being served.
#: v2: finding fingerprints and site labels name source sites as
#: ``basename:line`` (probes match findings by fingerprint).
LINT_VERSION = 2

#: Version of the analytical tier (stats extractor + closed-form models)
#: baked into every analytic-job fingerprint.  Bump when the extraction
#: or model arithmetic changes; re-calibration alone re-keys through the
#: profile fingerprint instead.
ANALYTIC_VERSION = 1

#: Version of the trace-statistics extraction
#: (:mod:`repro.analytic.stats`), baked into every stats fingerprint and
#: every analytic-job fingerprint.  Bump whenever the decomposition rules
#: change.  Defined here, beside the other versions that key cached
#: answers, because :mod:`repro.analytic` imports this module.
STATS_VERSION = 1


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def canonical_trace(trace: Trace) -> Tuple[str, str]:
    """``(canonical log text, fingerprint)`` of *trace*, from one serialisation.

    The fingerprint is the hex SHA-256 of the text's UTF-8 bytes, so a
    file holding exactly those bytes hashes to it.  It is memoised on
    the trace (the trace is immutable): a later ``trace.fingerprint()``
    costs nothing.
    """
    from repro.recorder import logfile

    text = logfile.dumps(trace)
    fingerprint = trace._fingerprint = _sha256(text)
    return text, fingerprint


def trace_fingerprint(trace: Trace) -> str:
    """Stable content hash of a trace (hex SHA-256).

    Hashes the canonical log-file serialisation (:func:`canonical_trace`),
    so a trace has the same fingerprint in memory, on disk, and after a
    dump/load round trip.
    """
    return trace.fingerprint()


def _canonical_policy(policy: ThreadPolicy) -> Dict[str, Any]:
    return {
        "bound": policy.bound,
        "cpu": policy.cpu,
        "priority": policy.priority,
        "rt_priority": policy.rt_priority,
    }


def canonical_config(config: SimConfig) -> Dict[str, Any]:
    """JSON-safe canonical form of a :class:`SimConfig`.

    Every simulation-relevant field appears, in a representation that is
    independent of dict ordering and enum identity, so equal configs
    serialise to byte-identical JSON.
    """
    from repro.sched import backend_version

    costs = config.costs
    dispatch = config.dispatch
    return {
        # the backend's own version is part of the address: evolving one
        # backend's semantics re-keys its jobs without touching the rest
        "scheduler": {
            "name": config.scheduler,
            "version": backend_version(config.scheduler),
        },
        "cpus": config.cpus,
        "lwps": config.lwps,
        "comm_delay_us": config.comm_delay_us,
        "time_slicing": config.time_slicing,
        "rt_quantum_us": config.rt_quantum_us,
        "thread_policies": {
            str(tid): _canonical_policy(pol)
            for tid, pol in sorted(config.thread_policies.items())
        },
        "costs": {
            "base_costs": {
                prim.value: cost
                for prim, cost in sorted(
                    costs.base_costs.items(), key=lambda kv: kv[0].value
                )
            },
            "bound_create_factor": costs.bound_create_factor,
            "bound_sync_factor": costs.bound_sync_factor,
            "thread_switch_us": costs.thread_switch_us,
            "lwp_switch_us": costs.lwp_switch_us,
        },
        "dispatch": [
            [e.quantum_us, e.tqexp, e.slpret, e.maxwait_us, e.lwait]
            for e in dispatch.entries()
        ],
    }


def config_fingerprint(config: SimConfig) -> str:
    """Hex SHA-256 of the canonical configuration."""
    text = json.dumps(canonical_config(config), sort_keys=True, separators=(",", ":"))
    return _sha256(text)


def job_fingerprint(trace_fp: str, config: SimConfig) -> str:
    """Fingerprint of one unit of simulation work.

    ``sha256(engine_version || trace_fp || config_fp)`` — the content
    address under which the job's result is cached.
    """
    return _sha256(f"vppb-job:v{ENGINE_VERSION}:{trace_fp}:{config_fingerprint(config)}")


def lint_job_fingerprint(trace_fp: str, config: SimConfig) -> str:
    """Fingerprint of one predictive-lint probe (trace × grid config).

    Separate namespace and version from plain simulation jobs: a lint
    probe's result embeds rule semantics, so it must re-key when either
    the prediction engine *or* the lint rule set changes.
    """
    return _sha256(
        f"vppb-lint:v{LINT_VERSION}:e{ENGINE_VERSION}:"
        f"{trace_fp}:{config_fingerprint(config)}"
    )


def analytic_job_fingerprint(
    trace_fp: str, config: SimConfig, profile_fp: str
) -> str:
    """Fingerprint of one analytical estimate (trace × config × profile).

    Includes the calibration profile's content hash: re-calibrating
    changes the margins, so previously cached analytic answers must stop
    being served even though trace and config are unchanged.  Includes
    :data:`STATS_VERSION` too: a new extraction changes the stats every
    estimate is computed from.
    """
    return _sha256(
        f"vppb-analytic:v{ANALYTIC_VERSION}:s{STATS_VERSION}:e{ENGINE_VERSION}:"
        f"{profile_fp}:{trace_fp}:{config_fingerprint(config)}"
    )
