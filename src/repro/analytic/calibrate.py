"""Fit analytic interval margins against DES ground truth.

The analytical models are deliberately crude — a handful of arithmetic
operations — so their raw points are biased in ways that depend on the
scheduler backend, the binding mode and the CPU count.  Calibration
turns that bias into *error bars*: over a deterministic workload suite
(recorded with the same :mod:`repro.calib.measure` machinery the
cost-model fit uses) and a configuration grid, every cell's DES makespan
is computed once through the :class:`~repro.jobs.engine.JobEngine`
(content-addressed, so refits are cache reads), and for every margin key
and model the observed ``DES / model_point`` ratio range — padded by a
safety factor — becomes the ``(lo, hi)`` band stored in the
:class:`~repro.analytic.profile.AnalyticProfile`.

The grid comes from :func:`repro.jobs.manifest.expand_grid`, the
expander behind sweep manifests, so the margins are fitted on the cells
a manifest over the same axes screens.

By construction the resulting intervals bracket the DES makespan on
100 % of the calibration cells; :func:`verify_profile` re-checks that
invariant (CI's ``analytic-gate`` runs it against the committed
profile) and reports any violation.
"""

from __future__ import annotations

from datetime import datetime, timezone
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.core.errors import CalibrationError
from repro.calib.measure import WorkloadSpec
from repro.jobs.fingerprint import ENGINE_VERSION

from repro.analytic.models import (
    MODEL_NAMES,
    estimate_makespan,
    margin_key_for,
    model_points,
)
from repro.analytic.profile import ANALYTIC_PROFILE_VERSION, AnalyticProfile
from repro.analytic.stats import TraceStats, extract_stats

__all__ = [
    "DEFAULT_GRID_CPUS",
    "default_analytic_suite",
    "calibrate_analytic",
    "verify_profile",
]

DEFAULT_GRID_CPUS = (1, 2, 4, 8)
DEFAULT_BINDINGS = ("unbound", "bound")

#: Pad beyond the observed ratio range: generalisation headroom for
#: traces outside the calibration suite, at the cost of wider intervals
#: (more escalations) everywhere.  Bracketing on the calibration cells
#: themselves holds for any pad >= 0 — each cell's own ratio lies inside
#: its min/max band by construction.
DEFAULT_PAD = 0.02


def default_analytic_suite() -> List[WorkloadSpec]:
    """Workloads the stock margins are fitted against.

    Spans the behaviour space the models must cover: a compute/sync mix
    (synthetic), lock + semaphore hand-off (prodcons) and barrier-phased
    numeric work (fft).  All seeded, so the suite is bit-reproducible.
    The scalable workloads use 8 threads so their speed-up curves keep
    rising across the whole CPU grid — with 4 threads the 4- and 8-CPU
    cells tie exactly and every sound tiering policy must replay both.
    """
    return [
        WorkloadSpec(name="synthetic", threads=8, scale=1.0),
        WorkloadSpec(name="prodcons", threads=4, scale=0.05),
        WorkloadSpec(name="fft", threads=8, scale=0.05),
    ]


def _record_suite(
    specs: Sequence[WorkloadSpec],
    progress: Optional[Callable[[str], None]] = None,
):
    """Record each spec's monitored trace (deterministic, fast)."""
    from repro.program.uniexec import record_program
    from repro.workloads import get_workload

    out = []
    for spec in specs:
        if progress:
            progress(
                f"recording {spec.name} (threads={spec.threads}, "
                f"scale={spec.scale})"
            )
        program = get_workload(spec.name).make_program(
            spec.threads, spec.scale, seed=spec.seed
        )
        recording = record_program(program, overhead_us=spec.probe_overhead_us)
        out.append((spec, recording.trace))
    return out


def _ground_truth(recorded, grid: Dict[str, Any], engine, use_cache, progress):
    """DES makespans of *grid* (a profile's ``cpus``/``bindings``/
    ``schedulers`` axes) over every recorded trace, in one engine batch:
    ``[((workload name, GridCell), JobOutcome), ...]``."""
    from repro.jobs.manifest import expand_grid
    from repro.jobs.model import SimJob, TraceRef
    from repro.sched import available_backends

    cells, jobs = [], []
    for spec, trace in recorded:
        ref = TraceRef.from_trace(trace)
        for cell in expand_grid(
            trace.thread_ids(),
            grid.get("cpus", DEFAULT_GRID_CPUS),
            bindings=grid.get("bindings", DEFAULT_BINDINGS),
            schedulers=grid.get("schedulers") or available_backends(),
        ):
            cells.append((spec.name, cell))
            label = f"{spec.name}:{cell.label}"
            jobs.append(SimJob(trace=ref, config=cell.config, label=label))
    if progress:
        progress(f"simulating {len(jobs)} ground-truth cells")
    return list(zip(cells, engine.run(jobs, use_cache=use_cache)))


def calibrate_analytic(
    specs: Optional[Sequence[WorkloadSpec]] = None,
    engine=None,
    *,
    cpus: Sequence[int] = DEFAULT_GRID_CPUS,
    bindings: Sequence[str] = DEFAULT_BINDINGS,
    schedulers: Optional[Sequence[str]] = None,
    pad: float = DEFAULT_PAD,
    use_cache: bool = True,
    progress: Optional[Callable[[str], None]] = None,
) -> AnalyticProfile:
    """Fit interval margins over *specs* × the configuration grid."""
    from repro.jobs.engine import JobEngine
    from repro.sched import available_backends

    if pad < 0:
        raise CalibrationError(f"pad must be >= 0, got {pad}")
    specs = list(specs) if specs is not None else default_analytic_suite()
    if not specs:
        raise CalibrationError("empty analytic calibration suite")
    own_engine = engine is None
    if own_engine:
        engine = JobEngine(mode="inline")

    try:
        recorded = _record_suite(specs, progress)
        stats_by_name: Dict[str, TraceStats] = {
            spec.name: extract_stats(trace) for spec, trace in recorded
        }
        grid = {
            "cpus": list(cpus),
            "bindings": list(bindings),
            "schedulers": list(available_backends() if schedulers is None else schedulers),
        }
        truth = _ground_truth(recorded, grid, engine, use_cache, progress)

        # observed DES/model ratios, binned per margin level
        ratios: Dict[str, Dict[str, List[float]]] = {}
        for (name, cell), outcome in truth:
            if not outcome.ok or not outcome.complete:
                raise CalibrationError(
                    f"ground-truth cell {outcome.label} failed: "
                    f"{outcome.error or outcome.status}"
                )
            stats = stats_by_name[name]
            points = model_points(stats, cell.config)
            # each cell contributes evidence to every level of its own
            # lookup chain, so estimate-time fallbacks stay sound
            keys = margin_key_for(stats, cell.config)
            for model in MODEL_NAMES:
                point = points[model]
                if point <= 0:
                    raise CalibrationError(
                        f"model {model} produced a non-positive estimate "
                        f"on {outcome.label}"
                    )
                ratio = outcome.makespan_us / point
                for key in keys:
                    ratios.setdefault(key, {}).setdefault(model, []).append(ratio)

        margins = {
            key: {
                model: (
                    min(values) * (1.0 - pad),
                    max(values) * (1.0 + pad),
                )
                for model, values in table.items()
            }
            for key, table in ratios.items()
        }

        profile = AnalyticProfile(
            margins=margins,
            suite=tuple(s.to_dict() for s in specs),
            grid=grid,
            samples=len(truth),
            pad=pad,
            engine_version=ENGINE_VERSION,
            analytic_version=ANALYTIC_PROFILE_VERSION,
            created=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        )

        violations = verify_profile(
            profile,
            engine=engine,
            use_cache=use_cache,
            recorded=recorded,
            outcomes=truth,
        )
        if violations:
            raise CalibrationError(
                "calibrated intervals failed to bracket their own suite: "
                + "; ".join(violations[:5])
            )
        return profile
    finally:
        if own_engine:
            engine.close()


def verify_profile(
    profile: AnalyticProfile,
    *,
    engine=None,
    use_cache: bool = True,
    recorded=None,
    outcomes=None,
    progress: Optional[Callable[[str], None]] = None,
) -> List[str]:
    """Check the bracketing invariant on the profile's own suite.

    Re-records the suite and re-simulates the grid (cache-served when
    warm), then asserts ``lo <= DES <= hi`` for every cell.  Returns a
    list of human-readable violations — empty means the profile is
    sound.  *recorded*/*outcomes* let :func:`calibrate_analytic` reuse
    the work it just did.
    """
    from repro.jobs.engine import JobEngine

    own_engine = engine is None
    if own_engine:
        engine = JobEngine(mode="inline")
    try:
        if recorded is None:
            specs = [WorkloadSpec.from_dict(s) for s in profile.suite]
            recorded = _record_suite(specs, progress)
        stats_by_name = {
            spec.name: extract_stats(trace) for spec, trace in recorded
        }
        if outcomes is None:
            outcomes = _ground_truth(recorded, profile.grid, engine, use_cache, progress)

        violations: List[str] = []
        for (name, cell), outcome in outcomes:
            if not outcome.ok or not outcome.complete:
                violations.append(f"{outcome.label}: DES failed ({outcome.status})")
                continue
            interval = estimate_makespan(stats_by_name[name], cell.config, profile)
            if not interval.brackets(outcome.makespan_us):
                violations.append(
                    f"{outcome.label}: DES {outcome.makespan_us}us outside "
                    f"[{interval.lo_us}, {interval.hi_us}]us"
                )
        return violations
    finally:
        if own_engine:
            engine.close()
