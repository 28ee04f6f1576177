"""The analytical prediction tier: speedup bounds without replay.

The full predictor answers "how does this trace behave on N CPUs?" by
replaying every event through the discrete-event simulator.  This
package answers the same question *analytically* — closed-form models
over one-pass trace statistics — in microseconds per configuration,
with an explicit ``[lo, hi]`` makespan interval instead of a point
value.  The three layers:

* :mod:`repro.analytic.stats` — a :class:`TraceStats` extractor: one
  sweep over the log (sharing the lint substrate in
  :mod:`repro.analysis.lint.locks`) produces per-thread compute/sync
  decompositions, fork/join/barrier counts and per-lock hold and
  contention aggregates, all in a compact fingerprintable profile;
* :mod:`repro.analytic.models` — closed-form bound models (work/span
  critical-path, Amdahl serial fraction, a lock-contention queueing
  correction, comm-delay scaling) mapping ``TraceStats`` + ``SimConfig``
  to a makespan interval;
* :mod:`repro.analytic.profile` / :mod:`repro.analytic.calibrate` — the
  versioned :class:`AnalyticProfile` artifact holding per-model interval
  margins fitted against DES ground truth over a deterministic workload
  suite (the same ``calib/`` measurement machinery the cost-model fit
  uses), so the intervals are *calibrated error bars*, not guesses.

The tiering policy that puts this in front of the simulator (escalating
only interval-straddling cells) lives in :mod:`repro.jobs.tiering`.
"""

from repro.analytic.calibrate import (
    DEFAULT_GRID_CPUS,
    DEFAULT_PAD,
    calibrate_analytic,
    default_analytic_suite,
    verify_profile,
)
from repro.analytic.models import (
    MODEL_NAMES,
    MakespanInterval,
    binding_of,
    estimate_makespan,
    margin_key_for,
    model_points,
    trace_class,
)
from repro.analytic.profile import (
    ANALYTIC_PROFILE_FORMAT,
    ANALYTIC_PROFILE_VERSION,
    AnalyticProfile,
    default_profile_path,
    load_default_profile,
)
from repro.analytic.stats import STATS_VERSION, LockProfile, ThreadProfile, TraceStats, extract_stats

__all__ = [
    "ANALYTIC_PROFILE_FORMAT",
    "ANALYTIC_PROFILE_VERSION",
    "AnalyticProfile",
    "DEFAULT_GRID_CPUS",
    "DEFAULT_PAD",
    "LockProfile",
    "MODEL_NAMES",
    "MakespanInterval",
    "STATS_VERSION",
    "ThreadProfile",
    "TraceStats",
    "binding_of",
    "calibrate_analytic",
    "default_analytic_suite",
    "default_profile_path",
    "estimate_makespan",
    "extract_stats",
    "load_default_profile",
    "margin_key_for",
    "model_points",
    "trace_class",
    "verify_profile",
]
