"""Sweep manifests and the grid runner every speed-up question goes through.

A manifest is a small JSON document describing everything ``vppb
batch`` should simulate from one trace::

    {
      "trace": "prodcons.log",
      "cpus": [1, 2, 3, 4, 5, 6, 7, 8],
      "bindings": ["unbound", "bound"],
      "lwps": [null],
      "comm_delay_us": [0],
      "schedulers": ["solaris", "clutch", "cfs"]
    }

``cpus`` may also be a ``{"min": 1, "max": 8}`` range; every value is an
integer (:func:`grid_int`).  :func:`expand_grid` makes the cross product
of all five axes, :func:`curve_cells` one ``<n>cpu`` curve, and
:func:`run_grid` — the only code that pairs a uniprocessor baseline with
grid cells — answers either, so speed-ups match the serial
:func:`repro.core.predictor.predict_speedup` exactly.

``bindings`` values: ``"unbound"`` replays threads on the shared LWP
pool as recorded; ``"bound"`` gives every thread its own LWP (the §3.2
all-threads-bound manipulation, with the paper's bound-thread cost
multipliers applied).

``schedulers`` selects kernel scheduler backends (cross-OS what-if):
any names registered in :mod:`repro.sched`.  Defaults to
``["solaris"]``; cell labels carry a ``/<scheduler>`` suffix only for
non-default backends, so single-kernel manifests keep their labels.
"""

from __future__ import annotations

import difflib
import itertools
import json
import numbers
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.config import SimConfig, ThreadPolicy
from repro.core.errors import AnalysisError, ConfigError, SimulationError, VppbError
from repro.core.predictor import SpeedupPrediction
from repro.core.result import RunStatus
from repro.core.trace import Trace
from repro.jobs import model as job_model
from repro.jobs.engine import Budget, JobEngine
from repro.jobs.model import JobOutcome, SimJob, TraceRef
from repro.jobs.tiering import (
    DEFAULT_TARGET_FRACTION,
    TierCell,
    decide,
    escalation_labels,
)
from repro.program.uniexec import uniprocessor_config

__all__ = [
    "BatchReport",
    "GridCell",
    "GridRun",
    "ScenarioResult",
    "SweepManifest",
    "curve_cells",
    "expand_grid",
    "grid_int",
    "run_grid",
    "run_manifest",
]

_BINDINGS = ("unbound", "bound")

_MANIFEST_KEYS = (
    "trace", "cpus", "bindings", "lwps", "comm_delay_us", "schedulers",
)


def grid_int(value: Any, what: str) -> int:
    """*value* as a grid integer, else an :class:`AnalysisError` naming *what*.

    Refuses bools, strings and numbers with a fraction instead of
    coercing them: ``int(2.9)`` would answer 2 CPUs and ``int(True)`` 1.
    """
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise AnalysisError(f"bad {what} {value!r}: must be an integer")


def _parse_cpus(value: Any) -> List[int]:
    if isinstance(value, dict):
        try:
            lo = grid_int(value["min"], "cpus min")
            hi = grid_int(value["max"], "cpus max")
        except KeyError:
            raise AnalysisError(f"bad cpus range {value!r} (need min/max ints)")
        if not 1 <= lo <= hi:
            raise AnalysisError(f"bad cpus range {lo}..{hi}")
        return list(range(lo, hi + 1))
    if isinstance(value, list) and value:
        cpus = [grid_int(v, "cpus value") for v in value]
        if any(n < 1 for n in cpus):
            raise AnalysisError(f"bad cpus list {value!r}: counts must be >= 1")
        return cpus
    raise AnalysisError(f"manifest 'cpus' must be a non-empty list or min/max, got {value!r}")


@dataclass(frozen=True)
class SweepManifest:
    """A validated sweep description (see module docstring for format)."""

    trace_path: Path
    cpus: Sequence[int]
    bindings: Sequence[str] = ("unbound",)
    lwps: Sequence[Optional[int]] = (None,)
    comm_delays_us: Sequence[int] = (0,)
    schedulers: Sequence[str] = ("solaris",)

    @classmethod
    def from_dict(
        cls,
        data: Dict[str, Any],
        *,
        base_dir: Optional[Path] = None,
        source: Optional[str] = None,
    ) -> "SweepManifest":
        if not isinstance(data, dict):
            raise AnalysisError("manifest must be a JSON object")
        if not isinstance(data.get("trace"), (str, Path)):
            raise AnalysisError("manifest needs a 'trace' key naming a log file")
        unknown = sorted(set(data) - set(_MANIFEST_KEYS))
        if unknown:
            # a typo'd axis silently shrinking the grid is the worst
            # failure mode a sweep can have — reject, locate, suggest
            parts = []
            for key in unknown:
                close = difflib.get_close_matches(key, _MANIFEST_KEYS, n=1)
                hint = f" (did you mean {close[0]!r}?)" if close else ""
                parts.append(f"{key!r}{hint}")
            where = f"{source}: " if source else ""
            raise ConfigError(
                f"{where}unknown manifest key{'s' if len(parts) > 1 else ''} "
                f"{', '.join(parts)}; valid keys: {', '.join(_MANIFEST_KEYS)}"
            )
        trace_path = Path(data["trace"])
        if base_dir is not None and not trace_path.is_absolute():
            trace_path = base_dir / trace_path

        def axis(key: str, default: List[Any]) -> List[Any]:
            values = data.get(key, default)
            if not isinstance(values, list) or not values:
                raise AnalysisError(f"manifest {key!r} must be a non-empty list, got {values!r}")
            return values

        bindings = tuple(axis("bindings", ["unbound"]))
        for b in bindings:
            if b not in _BINDINGS:
                raise AnalysisError(
                    f"unknown binding {b!r} (expected one of {_BINDINGS})"
                )
        lwps = [
            None if v is None else grid_int(v, "lwps value")
            for v in axis("lwps", [None])
        ]
        delays = [grid_int(v, "comm_delay_us value") for v in axis("comm_delay_us", [0])]
        from repro.sched import available_backends

        schedulers = tuple(axis("schedulers", ["solaris"]))
        known = available_backends()
        for s in schedulers:
            if s not in known:
                raise AnalysisError(
                    f"unknown scheduler {s!r} (expected one of {known})"
                )
        return cls(
            trace_path=trace_path,
            cpus=tuple(_parse_cpus(data.get("cpus", [2, 4, 8]))),
            bindings=bindings,
            lwps=tuple(lwps),
            comm_delays_us=tuple(delays),
            schedulers=schedulers,
        )

    @classmethod
    def load(cls, path: Union[str, Path]) -> "SweepManifest":
        path = Path(path)
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except OSError as exc:
            raise AnalysisError(f"cannot read manifest {path}: {exc}")
        except ValueError as exc:
            raise AnalysisError(f"manifest {path} is not valid JSON: {exc}")
        return cls.from_dict(data, base_dir=path.parent, source=str(path))

    # ------------------------------------------------------------------

    def grid_size(self) -> int:
        return (
            len(self.cpus) * len(self.bindings)
            * len(self.lwps) * len(self.comm_delays_us)
            * len(self.schedulers)
        )

    def configs(self, trace: Trace) -> List["GridCell"]:
        """Expand the grid; needs the trace for the all-bound policy."""
        return expand_grid(
            trace.thread_ids(),
            self.cpus,
            bindings=self.bindings,
            lwps=self.lwps,
            comm_delays_us=self.comm_delays_us,
            schedulers=self.schedulers,
        )


@dataclass(frozen=True)
class GridCell:
    """One point of a prediction grid: a config plus how to report it.

    ``group`` names the speed-up curve the cell belongs to (the cpus
    axis is the curve); knees are decided per group.
    """

    label: str
    group: str
    cpus: int
    binding: str
    config: SimConfig


def expand_grid(
    thread_ids: Iterable[Any],
    cpus: Sequence[int],
    *,
    bindings: Sequence[str] = ("unbound",),
    lwps: Sequence[Optional[int]] = (None,),
    comm_delays_us: Sequence[int] = (0,),
    schedulers: Sequence[str] = ("solaris",),
    base: Optional[SimConfig] = None,
) -> List[GridCell]:
    """The cross product of the grid axes: one speed-up curve per group.

    ``"bound"`` binds every thread in *thread_ids*; *base* (default
    ``SimConfig()``) supplies the fields no axis sets, such as costs.
    """
    base = base or SimConfig()
    bound = {int(t): ThreadPolicy(bound=True) for t in thread_ids}
    cells: List[GridCell] = []
    for scheduler, binding, lwp_limit, delay in itertools.product(
        schedulers, bindings, lwps, comm_delays_us
    ):
        group = binding
        if lwp_limit is not None:
            group += f"/lwps={lwp_limit}"
        if delay:
            group += f"/comm={delay}us"
        if scheduler != "solaris":
            group += f"/{scheduler}"
        curve = replace(
            base,
            lwps=lwp_limit,
            comm_delay_us=delay,
            thread_policies=bound if binding == "bound" else {},
            scheduler=scheduler,
        )
        cells += curve_cells(curve, cpus, binding=binding, group=group)
    return cells


def curve_cells(
    base: SimConfig,
    cpus: Sequence[int],
    *,
    binding: str = "unbound",
    group: Optional[str] = None,
) -> List[GridCell]:
    """One speed-up curve over *cpus*, labelled ``<n>cpu`` (``<n>cpu/<group>``
    when *group* names the curve, else its group is *binding*)."""
    return [
        GridCell(
            label=f"{n}cpu/{group}" if group else f"{n}cpu",
            group=group or binding,
            cpus=n,
            binding=binding,
            config=base.with_cpus(n),
        )
        for n in cpus
    ]


@dataclass(frozen=True)
class ScenarioResult:
    """One grid cell's outcome, with its speed-up when computable.

    ``tier`` records how the cell was answered: ``"sim"`` (replayed),
    ``"analytic"`` (interval decided it) or ``"escalated"`` (interval
    straddled a decision, so it was replayed after all).  Analytic and
    escalated cells keep the ``[lo, hi]`` makespan ``interval`` the
    models produced.
    """

    label: str
    cpus: int
    binding: str
    lwps: Optional[int]
    comm_delay_us: int
    outcome: JobOutcome
    speedup: Optional[float]
    scheduler: str = "solaris"
    tier: str = "sim"
    interval: Optional[Tuple[int, int]] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "label": self.label,
            "cpus": self.cpus,
            "binding": self.binding,
            "lwps": self.lwps,
            "comm_delay_us": self.comm_delay_us,
            "scheduler": self.scheduler,
            "status": self.outcome.status,
            "makespan_us": self.outcome.makespan_us,
            "speedup": self.speedup,
            "tier": self.tier,
            "interval": list(self.interval) if self.interval else None,
            "from_cache": self.outcome.from_cache,
            "error": self.outcome.error,
            "reason": self.outcome.reason,
            "fingerprint": self.outcome.fingerprint,
        }


@dataclass
class BatchReport:
    """Everything ``vppb batch`` emits: rows plus engine metrics."""

    program: str
    trace_fingerprint: str
    baseline_us: Optional[int]
    scenarios: List[ScenarioResult]
    metrics: Dict[str, Any]
    #: which tier the sweep ran under ("sim", "analytic" or "auto")
    tier: str = "sim"
    #: the grid's decisions (best cell, per-group knees) — identical
    #: across tiers by the escalation policy's construction
    decisions: Dict[str, Any] = field(default_factory=dict)

    @property
    def failed(self) -> List[ScenarioResult]:
        return [s for s in self.scenarios if not s.outcome.ok]

    def cache_hit_rate(self) -> float:
        served = [s for s in self.scenarios if s.outcome.ok]
        if not served:
            return 0.0
        return sum(1 for s in served if s.outcome.from_cache) / len(served)

    def schedulers(self) -> List[str]:
        """Distinct backends in this report, in first-seen order."""
        seen: List[str] = []
        for s in self.scenarios:
            if s.scheduler not in seen:
                seen.append(s.scheduler)
        return seen

    def to_json(self) -> str:
        by_scheduler = {
            sched: [s.to_dict() for s in self.scenarios if s.scheduler == sched]
            for sched in self.schedulers()
        }
        return json.dumps(
            {
                "program": self.program,
                "trace_fingerprint": self.trace_fingerprint,
                "baseline_us": self.baseline_us,
                "tier": self.tier,
                "decisions": self.decisions,
                "scenarios": [s.to_dict() for s in self.scenarios],
                # per-backend nesting of the same cells, so cross-OS
                # consumers can index report["by_scheduler"]["cfs"]
                # without re-filtering the flat list
                "by_scheduler": by_scheduler,
                "metrics": self.metrics,
            },
            indent=2,
        )

    def format_table(self) -> str:
        multi = len(self.schedulers()) > 1
        tiered = self.tier != "sim"
        header = f"{'scenario':<28} "
        if multi:
            header += f"{'sched':<8} "
        if tiered:
            header += f"{'tier':<10} "
        header += f"{'status':<18} {'makespan':>12} {'speedup':>8}  src"
        lines = [
            f"batch sweep of {self.program} "
            f"({len(self.scenarios)} scenarios, trace {self.trace_fingerprint[:12]})",
            header,
        ]
        for s in self.scenarios:
            sched_col = f"{s.scheduler:<8} " if multi else ""
            tier_col = f"{s.tier:<10} " if tiered else ""
            if not s.outcome.ok:
                # distinct failure modes stay distinct per cell:
                # "failed" (the job raised), "worker-crashed" (retry
                # exhausted), "breaker-open" (never attempted)
                lines.append(
                    f"{s.label:<28} {sched_col}{tier_col}"
                    f"{s.outcome.status.upper():<18} "
                    f"{'-':>12} {'-':>8}  {s.outcome.error}"
                )
                continue
            speed = f"{s.speedup:.2f}" if s.speedup is not None else "-"
            src = "cache" if s.outcome.from_cache else "run"
            lines.append(
                f"{s.label:<28} {sched_col}{tier_col}{s.outcome.status:<18} "
                f"{s.outcome.makespan_us:>10}us {speed:>8}  {src}"
            )
        if self.failed:
            by_status: Dict[str, int] = {}
            for s in self.failed:
                by_status[s.outcome.status] = by_status.get(s.outcome.status, 0) + 1
            lines.append(
                "unanswered cells: "
                + ", ".join(f"{n}x {st}" for st, n in sorted(by_status.items()))
            )
        m = self.metrics
        cache = m.get("cache", {})
        lines.append(
            f"jobs: {m.get('jobs_completed', 0)} ok, {m.get('jobs_failed', 0)} failed, "
            f"{m.get('jobs_partial', 0)} partial; cache: {cache.get('hits', 0)} hits / "
            f"{cache.get('misses', 0)} misses (hit rate {cache.get('hit_rate', 0.0):.0%}); "
            f"scenario hit rate {self.cache_hit_rate():.0%}"
        )
        plan_cache = m.get("plan_cache", {})
        if plan_cache:
            lines.append(
                f"plan cache: {plan_cache.get('hits', 0)} hits / "
                f"{plan_cache.get('misses', 0)} misses "
                "(compiled replay plans reused across worker jobs)"
            )
        per_sched = m.get("schedulers", {})
        if len(per_sched) > 1:
            lines.append(
                "per scheduler: "
                + "; ".join(
                    f"{name}: {per['jobs']} jobs, "
                    f"{per['plan_cache_hits']} plan-cache hits"
                    for name, per in sorted(per_sched.items())
                )
            )
        if tiered:
            analytic = sum(1 for s in self.scenarios if s.tier == "analytic")
            escalated = sum(1 for s in self.scenarios if s.tier == "escalated")
            total = len(self.scenarios)
            lines.append(
                f"tier: {analytic}/{total} cells answered analytically, "
                f"{escalated} escalated to simulation"
            )
        if self.decisions:
            knees = ", ".join(
                f"{group or 'grid'}: {cpus if cpus is not None else '-'}cpu"
                for group, cpus in sorted(self.decisions.get("knees", {}).items())
            )
            lines.append(
                f"decisions: best {self.decisions.get('best')} "
                f"(speedup {self.decisions.get('best_speedup')}); knee at "
                f"{self.decisions.get('target_fraction'):.0%} of best: {knees}"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class GridRun:
    """What :func:`run_grid` found: the baseline, one row per cell, decisions.

    ``baseline_us`` is the speed-up anchor, ``None`` unless the baseline
    replay completed.
    """

    baseline: JobOutcome
    baseline_us: Optional[int]
    scenarios: List[ScenarioResult]
    decisions: Dict[str, Any]

    def speedups(self) -> List[SpeedupPrediction]:
        """Every cell's speed-up, strictly: like the serial predictor,
        raises :class:`SimulationError` on the first failed or partial
        job, baseline first."""
        for o in [self.baseline] + [s.outcome for s in self.scenarios]:
            if not o.complete:
                why = (
                    f"failed: {o.error}" if not o.ok
                    else f"came back partial ({o.status}): {o.reason}"
                )
                raise SimulationError(f"batch job {o.label or o.fingerprint[:12]} {why}")
        uni_us = self.baseline.makespan_us
        return [
            SpeedupPrediction(s.cpus, uni_us, s.outcome.makespan_us)
            for s in self.scenarios
        ]


def run_grid(
    engine: JobEngine,
    ref: TraceRef,
    cells: Sequence[GridCell],
    *,
    tier: str = "sim",
    trace: Optional[Trace] = None,
    analytic_profile=None,
    target_fraction: float = DEFAULT_TARGET_FRACTION,
    budget: Optional[Budget] = None,
    use_cache: bool = True,
) -> GridRun:
    """Answer every cell of a prediction grid over one trace.

    The one prediction path behind both ``vppb batch`` and ``POST
    /predict``.  One shared uniprocessor baseline is always simulated:
    :func:`uniprocessor_config` is invariant across the grid axes
    (binding, lwps, comm delay, and scheduler — the baseline models the
    *recorded* Solaris uniprocessor run), so a single job, built from
    any cell's cost model, anchors every speed-up figure and
    cross-backend speed-ups stay comparable.

    *tier* selects how cells are answered: ``"sim"`` replays every
    cell; ``"analytic"`` answers every cell from the closed-form models;
    ``"auto"`` starts analytic and replays exactly the cells whose
    intervals cannot decide the grid's queries
    (:func:`escalation_labels`).  The models assume a replay that
    completes, so once an escalated replay deadlocks, livelocks or
    diverges, every remaining analytic cell is replayed too.  Both
    tiered modes need *analytic_profile* and *trace* (the parsed trace
    *ref* names): analytic answers are computed here, and only replays
    go through *engine*.

    Only complete replays (and analytic answers) get a speed-up or
    enter :func:`decide`; a partial replay's makespan is merely the
    simulated time reached.  *budget* is the per-call watchdog budget
    (a request deadline); partial outcomes under it are never cached.
    """
    if tier != "sim" and (trace is None or analytic_profile is None):
        raise ValueError(f"tier {tier!r} needs the parsed trace and an analytic profile")
    baseline_job = SimJob(
        trace=ref,
        config=uniprocessor_config(cells[0].config if cells else None),
        label="baseline",
    )
    if tier == "sim":
        first_tier = "sim"
        baseline, *outcomes = engine.run(
            [baseline_job]
            + [SimJob(trace=ref, config=cell.config, label=cell.label) for cell in cells],
            use_cache=use_cache,
            budget=budget,
        )
    else:
        first_tier = "analytic"
        outcomes = _estimate_cells(
            engine, ref, trace, cells, analytic_profile, use_cache=use_cache
        )
        (baseline,) = engine.run([baseline_job], use_cache=use_cache, budget=budget)
    baseline_us = (
        baseline.makespan_us if baseline.complete and baseline.makespan_us else None
    )
    # label -> (outcome, tier, analytic interval)
    answers = {
        cell.label: (outcome, first_tier, _interval(outcome))
        for cell, outcome in zip(cells, outcomes)
    }

    if tier == "auto" and baseline_us:
        # failed analytic answers must replay too
        escalate = {label for label, (_, _, iv) in answers.items() if iv is None}
        escalate.update(
            escalation_labels(
                [
                    _tier_cell(cell, *answers[cell.label])
                    for cell in cells
                    if answers[cell.label][2] is not None
                ],
                baseline_us,
                target_fraction=target_fraction,
            )
        )
        while escalate:
            to_sim = [cell for cell in cells if cell.label in escalate]
            sim_outcomes = engine.run(
                [SimJob(trace=ref, config=c.config, label=c.label) for c in to_sim],
                use_cache=use_cache,
                budget=budget,
            )
            for cell, outcome in zip(to_sim, sim_outcomes):
                answers[cell.label] = (outcome, "escalated", answers[cell.label][2])
            escalate = set()
            # a replay that stops short on its own (deadlock, livelock,
            # divergence) breaks the models' premise; one cut short by a
            # budget says nothing about the trace
            stopped = {o.status for o in sim_outcomes if o.ok}
            if stopped - {RunStatus.COMPLETE.value, RunStatus.BUDGET.value}:
                escalate = {
                    label for label, (_, t, _) in answers.items() if t == "analytic"
                }
    if tier != "sim":
        engine.metrics.tier_outcome(
            analytic_hits=sum(
                1 for o, t, _ in answers.values() if t == "analytic" and o.ok
            ),
            escalations=sum(1 for _, t, _ in answers.values() if t == "escalated"),
        )

    scenarios = []
    tier_cells = []
    for cell in cells:
        outcome, cell_tier, interval = answers[cell.label]
        answered = outcome.complete and outcome.makespan_us > 0
        scenarios.append(
            ScenarioResult(
                label=cell.label,
                cpus=cell.cpus,
                binding=cell.binding,
                lwps=cell.config.lwps,
                comm_delay_us=cell.config.comm_delay_us,
                outcome=outcome,
                speedup=baseline_us / outcome.makespan_us
                if answered and baseline_us
                else None,
                scheduler=cell.config.scheduler,
                tier=cell_tier,
                interval=interval,
            )
        )
        if answered:
            tier_cells.append(_tier_cell(cell, outcome, cell_tier, interval))
    return GridRun(
        baseline=baseline,
        baseline_us=baseline_us,
        scenarios=scenarios,
        decisions=decide(tier_cells, baseline_us, target_fraction=target_fraction),
    )


def _estimate_cells(
    engine: JobEngine,
    ref: TraceRef,
    trace: Trace,
    cells: Sequence[GridCell],
    profile,
    *,
    use_cache: bool,
) -> List[JobOutcome]:
    """Every cell's analytic answer, cached under its analytic job address.

    An answer reads like a replay's outcome: ``makespan_us`` is the
    point estimate, ``engine_events`` 0, and ``payload`` holds the
    ``[lo, hi]`` interval.  The cells the cache cannot answer share one
    :class:`~repro.analytic.stats.TraceStats` extracted from *trace*; a
    :class:`~repro.core.errors.VppbError` fails the cells it touches,
    uncached.  The extractor, the models and the address function are
    looked up on their modules at call time, so wrappers there see
    every call.
    """
    from repro.analytic import models, stats as trace_stats

    profile_fp = profile.fingerprint()
    addresses = [
        job_model.analytic_job_fingerprint(ref.fingerprint, cell.config, profile_fp)
        for cell in cells
    ]
    answers: Dict[str, JobOutcome] = {}
    missing: Dict[str, SimConfig] = {}
    for fp, cell in zip(addresses, cells):
        if fp in answers or fp in missing:
            continue
        cached = engine.cache.get(fp) if use_cache else None
        if cached is not None:
            answers[fp] = cached
        else:
            missing[fp] = cell.config
    if missing:
        try:
            stats = trace_stats.extract_stats(trace)
            tag = {"kind": "analytic", "stats_fingerprint": stats.fingerprint()}
        except VppbError as exc:
            answers.update((fp, _failed(fp, exc)) for fp in missing)
            missing = {}
    for fp, config in missing.items():
        try:
            interval = models.estimate_makespan(stats, config, profile)
        except VppbError as exc:
            answers[fp] = _failed(fp, exc)
            continue
        answers[fp] = JobOutcome(
            fingerprint=fp,
            status=RunStatus.COMPLETE.value,
            makespan_us=interval.point_us,
            payload={**interval.to_dict(), **tag},
        )
        if use_cache:
            engine.cache.put(answers[fp])
    return [answers[fp].with_label(cell.label) for fp, cell in zip(addresses, cells)]


def _failed(fingerprint: str, exc: VppbError) -> JobOutcome:
    """An answer that raised, as a failed job reports it (never cached)."""
    return JobOutcome(
        fingerprint=fingerprint,
        status=JobOutcome.FAILED,
        error=f"{type(exc).__name__}: {exc}",
    )


def _interval(outcome: JobOutcome) -> Optional[Tuple[int, int]]:
    """An analytic answer's ``(lo, hi)`` makespan bounds (None otherwise)."""
    if not (outcome.ok and outcome.payload):
        return None
    return int(outcome.payload["lo_us"]), int(outcome.payload["hi_us"])


def _tier_cell(
    cell: GridCell, outcome: JobOutcome, tier: str, interval
) -> TierCell:
    """A cell as the tiering policy sees it: replays are exact points."""
    exact = tier != "analytic"
    lo, hi = (outcome.makespan_us,) * 2 if exact else interval
    return TierCell(
        label=cell.label,
        group=cell.group,
        cpus=cell.cpus,
        lo_us=lo,
        hi_us=hi,
        point_us=outcome.makespan_us,
        exact=exact,
    )


def run_manifest(
    manifest: SweepManifest,
    engine: JobEngine,
    *,
    use_cache: bool = True,
    tier: str = "sim",
    analytic_profile=None,
    target_fraction: float = DEFAULT_TARGET_FRACTION,
) -> BatchReport:
    """Execute a sweep manifest through *engine* and assemble the report.

    *tier* selects how grid cells are answered (see :func:`run_grid`);
    ``"analytic"`` and ``"auto"`` need *analytic_profile*, an
    :class:`~repro.analytic.profile.AnalyticProfile`.  Under ``"auto"``
    the decisions (best cell, per-group knee at *target_fraction* of
    the group's best speed-up) match a full ``"sim"`` run while
    replaying only the escalated subset.
    """
    from repro.recorder import logfile

    if tier not in ("sim", "analytic", "auto"):
        raise AnalysisError(
            f"unknown tier {tier!r} (expected 'sim', 'analytic' or 'auto')"
        )
    if tier != "sim" and analytic_profile is None:
        raise AnalysisError(
            f"tier {tier!r} needs an analytic profile — run "
            "'vppb calibrate-analytic' or pass --analytic-profile"
        )

    trace = logfile.load(manifest.trace_path)
    ref = TraceRef(fingerprint=trace.fingerprint(), path=str(manifest.trace_path))
    grid = run_grid(
        engine,
        ref,
        manifest.configs(trace),
        tier=tier,
        trace=trace,
        analytic_profile=analytic_profile,
        target_fraction=target_fraction,
        use_cache=use_cache,
    )
    return BatchReport(
        program=trace.meta.program,
        trace_fingerprint=ref.fingerprint,
        baseline_us=grid.baseline_us,
        scenarios=grid.scenarios,
        metrics=engine.snapshot(),
        tier=tier,
        decisions=grid.decisions,
    )
