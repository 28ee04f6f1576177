"""What-if sweeps over one trace (extension utilities).

The tool's core promise — "the developer can inspect the behaviour of the
application as if it had been run on a multiprocessor without even having
one" — invites batch questions.  These helpers answer the common ones:

* :func:`speedup_curve` — the full speed-up curve over a CPU range;
* :func:`find_knee` — the smallest machine achieving a target fraction of
  the trace's maximum achievable speed-up (buy-this-many-CPUs advice);
* :func:`lwp_sensitivity` — how the program responds to LWP-pool limits
  on a fixed machine (the ``thr_setconcurrency`` tuning question).

All three run on a :class:`~repro.jobs.engine.JobEngine`, so every
simulated point is content-addressed: repeated questions about the same
trace are answered from the result cache, and a pooled engine (pass one)
runs the points in parallel.  The speed-up questions go through
:func:`repro.jobs.manifest.run_grid`, like ``vppb batch``, so their
numbers equal the serial :func:`repro.core.predictor.predict_speedup`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, TYPE_CHECKING

from repro.analysis.critical_path import max_speedup
from repro.core.config import SimConfig
from repro.core.errors import AnalysisError, SimulationError
from repro.core.predictor import SpeedupPrediction
from repro.core.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.jobs.engine import JobEngine

__all__ = ["speedup_curve", "KneePoint", "find_knee", "lwp_sensitivity"]


def _engine(engine: "Optional[JobEngine]") -> "JobEngine":
    if engine is not None:
        return engine
    from repro.jobs.engine import default_engine

    return default_engine()


def speedup_curve(
    trace: Trace,
    max_cpus: int,
    *,
    base_config: Optional[SimConfig] = None,
    engine: "Optional[JobEngine]" = None,
) -> List[SpeedupPrediction]:
    """Predicted speed-up for every machine size from 1 to *max_cpus*."""
    from repro.jobs.manifest import curve_cells, run_grid
    from repro.jobs.model import TraceRef

    if max_cpus < 1:
        raise ValueError(f"max_cpus must be >= 1, got {max_cpus}")
    cells = curve_cells(base_config or SimConfig(), range(1, max_cpus + 1))
    return run_grid(_engine(engine), TraceRef.from_trace(trace), cells).speedups()


@dataclass(frozen=True)
class KneePoint:
    """The sweet-spot machine for a traced program."""

    cpus: int
    speedup: float
    bound: float  # the trace's maximum achievable speed-up

    @property
    def fraction_of_bound(self) -> float:
        if not self.bound:
            raise AnalysisError(
                "trace has a zero speed-up bound (no measurable work); "
                "fraction of the bound is undefined"
            )
        return self.speedup / self.bound


def find_knee(
    trace: Trace,
    *,
    target_fraction: float = 0.8,
    max_cpus: int = 32,
    base_config: Optional[SimConfig] = None,
    engine: "Optional[JobEngine]" = None,
) -> KneePoint:
    """Smallest CPU count reaching *target_fraction* of the achievable
    speed-up.

    Doubles the machine until the target is met (or ``max_cpus`` is hit),
    then walks back with a binary search.  Every probe goes through the
    engine, so the points the exponential phase and the walk-back share
    are simulated once.
    """
    if not 0 < target_fraction <= 1:
        raise ValueError(f"target_fraction must be in (0, 1], got {target_fraction}")
    if max_cpus < 1:
        raise ValueError(f"max_cpus must be >= 1, got {max_cpus}")
    from repro.jobs.manifest import curve_cells, run_grid
    from repro.jobs.model import TraceRef

    eng = _engine(engine)
    bound = max_speedup(trace, base_config=base_config)
    target = bound * target_fraction
    base = base_config or SimConfig()
    ref = TraceRef.from_trace(trace)

    def probe(cpus: int) -> SpeedupPrediction:
        return run_grid(eng, ref, curve_cells(base, [cpus])).speedups()[0]

    # exponential probe
    cpus = 1
    last = probe(cpus)
    while last.speedup < target and cpus < max_cpus:
        cpus = min(max_cpus, cpus * 2)
        last = probe(cpus)
    if last.speedup < target:
        return KneePoint(cpus=cpus, speedup=last.speedup, bound=bound)

    # walk back to the smallest machine still meeting the target
    lo, hi = max(1, cpus // 2), cpus
    best = (cpus, last.speedup)
    while lo < hi:
        mid = (lo + hi) // 2
        pred = probe(mid)
        if pred.speedup >= target:
            best = (mid, pred.speedup)
            hi = mid
        else:
            lo = mid + 1
    return KneePoint(cpus=best[0], speedup=best[1], bound=bound)


def lwp_sensitivity(
    trace: Trace,
    cpus: int,
    lwp_counts: Sequence[Optional[int]] = (1, 2, 4, 8, None),
    *,
    base_config: Optional[SimConfig] = None,
    engine: "Optional[JobEngine]" = None,
) -> Dict[Optional[int], int]:
    """Makespan under each LWP-pool limit (None = on-demand).

    Every other field of *base_config* (thread policies, RT quantum,
    costs, scheduler) carries over to each point.
    """
    from repro.jobs.model import SimJob, TraceRef

    base = base_config or SimConfig()
    ref = TraceRef.from_trace(trace)
    jobs = [
        SimJob(
            trace=ref,
            config=replace(base, cpus=cpus, lwps=lwps),
            label=f"lwps={lwps}",
        )
        for lwps in lwp_counts
    ]
    outcomes = _engine(engine).run(jobs)
    out: Dict[Optional[int], int] = {}
    for lwps, outcome in zip(lwp_counts, outcomes):
        if not outcome.ok or not outcome.complete:
            raise SimulationError(
                f"lwp sensitivity job ({outcome.label}) failed: "
                f"{outcome.error or outcome.reason}"
            )
        out[lwps] = outcome.makespan_us
    return out
