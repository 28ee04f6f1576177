"""Predictive lint: which hazards *manifest* on machines you don't own?

Plain ``vppb lint`` diagnoses what the recorded log proves.  The
predictive pass answers the paper's what-if question for correctness
instead of performance: take the lint findings, replay the *unperturbed*
trace under every machine configuration in a sweep manifest, and tag
each hazard with the configurations where it concretely shows up:

* a **data race** (VPPB-R001) manifests under a config when both
  accesses of the racy pair were placed and the RUNNING segments
  containing them overlap in simulated time — the two threads really
  were on different CPUs at once, so the access order is decided by the
  hardware, not the program.  Impossible at one CPU; a race that is
  tagged only for ``>= 2`` CPUs is exactly the bug that ships when you
  test on a uniprocessor and deploy on an SMP.
* a **lock-order cycle** (VPPB-R002) manifests when the replay under
  that config actually ends in ``RunStatus.DEADLOCK`` — the recorded
  schedule survived by luck, this machine's schedule does not.

Each *(trace, config)* probe is one content-addressed lint-kind
:class:`~repro.jobs.model.SimJob` through the
:class:`~repro.jobs.engine.JobEngine`, so grids fan out over the worker
pool and re-runs are served from the :class:`~repro.jobs.cache.ResultCache`.
The probe itself (:func:`probe_trace`) is a pure function of
*(trace, config, lint version)* — that purity is what makes the cache
sound.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional

from repro.core.config import SimConfig
from repro.core.result import RunStatus, SegmentKind
from repro.core.trace import Trace

from repro.analysis.lint.engine import run_lint
from repro.analysis.lint.findings import Finding, LintReport
from repro.analysis.lint.witness import _index_trace, _locate_access

__all__ = [
    "lint_probe_context",
    "probe_trace",
    "WhatifCell",
    "WhatifResult",
    "whatif_lint",
]

#: Rules the grid can concretely reproduce in replay.  Other rules keep
#: ``manifests=None`` (probing them is meaningless, not merely negative).
PROBED_RULES = ("VPPB-R001", "VPPB-R002")


# ---------------------------------------------------------------------------
# worker-side probe (pure: trace x config -> JSON-safe verdicts)
# ---------------------------------------------------------------------------


def lint_probe_context(trace: Trace) -> Dict[str, Any]:
    """The config-independent half of a probe: lint once, index once.

    A grid sends the same trace through N configs; everything here is
    identical across those N jobs, so workers cache it per trace (see
    :mod:`repro.jobs.worker`).  Returns ``{"specs": [...]}`` where each
    spec carries a finding fingerprint plus what to look for in a replay.
    """
    report = run_lint(trace)
    wanted: List[int] = []
    race_findings: List[Finding] = []
    for f in report:
        if f.rule_id == "VPPB-R001" and f.event_index is not None and f.related:
            race_findings.append(f)
            wanted.append(f.event_index)
            if f.related[0].event_index is not None:
                wanted.append(f.related[0].event_index)
    _, ordinals = _index_trace(trace, wanted)

    specs: List[Dict[str, Any]] = []
    for f in report:
        if f.rule_id == "VPPB-R002":
            specs.append({"rule": f.rule_id, "fp": f.fingerprint()})
        elif f in race_findings:
            earlier = f.related[0]
            if (
                f.event_index in ordinals
                and earlier.event_index in ordinals
                and f.obj is not None
            ):
                specs.append(
                    {
                        "rule": f.rule_id,
                        "fp": f.fingerprint(),
                        "var": str(f.obj),
                        "first": {
                            "tid": earlier.tid,
                            "ordinal": ordinals[earlier.event_index],
                        },
                        "second": {
                            "tid": f.tid,
                            "ordinal": ordinals[f.event_index],
                        },
                    }
                )
    return {"specs": specs}


def _running_span(result, ev):
    """The RUNNING segment interval containing a placed event's start."""
    for seg in result.segments.get(ev.tid, ()):
        if (
            seg.kind is SegmentKind.RUNNING
            and seg.start_us <= ev.start_us < max(seg.end_us, seg.start_us + 1)
        ):
            return seg.start_us, seg.end_us
    return ev.start_us, ev.end_us


def probe_trace(
    trace: Trace,
    config: SimConfig,
    *,
    plan=None,
    context: Optional[Dict[str, Any]] = None,
    max_events: int = 50_000_000,
    watchdog=None,
) -> Dict[str, Any]:
    """Replay *trace* unperturbed under *config*; judge each finding.

    The JSON-safe return value becomes a lint job's outcome
    ``payload`` (the worker tags it with the job kind): ``manifested``
    maps finding fingerprints to whether the hazard concretely showed
    up under this configuration.
    """
    from repro.core.predictor import compile_trace
    from repro.core.simulator import Simulator

    if context is None:
        context = lint_probe_context(trace)
    if plan is None:
        plan = compile_trace(trace)
    sim = Simulator(
        config, max_events=max_events, watchdog=watchdog, strict=False
    )
    result = sim.run_replay(plan)

    deadlocked = result.status is RunStatus.DEADLOCK
    manifested: Dict[str, bool] = {}
    for spec in context["specs"]:
        if spec["rule"] == "VPPB-R002":
            manifested[spec["fp"]] = deadlocked
            continue
        first = _locate_access(result, spec["var"], spec["first"])
        second = _locate_access(result, spec["var"], spec["second"])
        if first is None or second is None:
            manifested[spec["fp"]] = False
            continue
        a0, a1 = _running_span(result, first)
        b0, b1 = _running_span(result, second)
        manifested[spec["fp"]] = a0 < b1 and b0 < a1
    return {
        "replay_status": result.status.value,
        "replay_reason": (
            result.incompleteness.describe() if result.incompleteness else None
        ),
        "manifested": manifested,
        "makespan_us": result.makespan_us,
        "engine_events": result.engine_events,
    }


# ---------------------------------------------------------------------------
# orchestration (engine-backed grid + finding annotation)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WhatifCell:
    """One grid configuration's probe summary."""

    label: str
    cpus: int
    status: str  # probe outcome: complete / failed / worker-crashed / ...
    replay_status: Optional[str]  # inner replay RunStatus value
    from_cache: bool
    error: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "label": self.label,
            "cpus": self.cpus,
            "status": self.status,
            "replay_status": self.replay_status,
            "from_cache": self.from_cache,
            "error": self.error,
        }


@dataclass
class WhatifResult:
    """A lint report annotated with cross-config manifestation tags."""

    report: LintReport
    cells: List[WhatifCell]

    @property
    def predicted_only(self) -> List[Finding]:
        """Findings that never manifest on one CPU but do under some
        probed config — the bugs a uniprocessor test box can't show you."""
        return [
            f
            for f in self.report
            if f.manifests
            and not any(lbl.startswith("1cpu") for lbl in f.manifests)
        ]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "grid": [c.to_dict() for c in self.cells],
            "report": self.report.to_dict(),
        }


def whatif_lint(
    trace: Trace,
    manifest,
    *,
    report: Optional[LintReport] = None,
    engine=None,
    use_cache: bool = True,
) -> WhatifResult:
    """Fan the manifestation probe across a sweep manifest's grid.

    *manifest* is a :class:`~repro.jobs.manifest.SweepManifest`; its
    ``trace`` path is ignored in favour of the already-loaded *trace*
    (the canonical text ships to workers, so a salvaged log probes the
    same records the lint saw).  Returns the findings with their
    ``manifests`` tuples filled for :data:`PROBED_RULES` findings.
    """
    from repro.jobs.engine import default_engine
    from repro.jobs.model import SimJob, TraceRef

    if engine is None:
        engine = default_engine()
    if report is None:
        report = run_lint(trace)

    ref = TraceRef.from_trace(trace)
    grid = manifest.configs(trace)
    jobs = [
        SimJob(trace=ref, config=cell.config, label=cell.label, kind="lint")
        for cell in grid
    ]
    outcomes = engine.run(jobs, use_cache=use_cache)

    tags: Dict[str, List[str]] = {}
    cells: List[WhatifCell] = []
    for cell, out in zip(grid, outcomes):
        payload = out.payload if out.ok else None
        cells.append(
            WhatifCell(
                label=cell.label,
                cpus=cell.cpus,
                status=out.status,
                replay_status=(
                    str(payload.get("replay_status")) if payload else None
                ),
                from_cache=out.from_cache,
                error=out.error,
            )
        )
        if payload:
            for fp, hit in dict(payload.get("manifested", {})).items():
                if hit:
                    tags.setdefault(fp, []).append(cell.label)

    annotated = [
        replace(f, manifests=tuple(tags.get(f.fingerprint(), ())))
        if f.rule_id in PROBED_RULES
        else f
        for f in report
    ]
    new_report = LintReport(
        program=report.program,
        findings=annotated,
        rules_run=report.rules_run,
    ).sorted()
    return WhatifResult(report=new_report, cells=cells)
