"""Cross-backend stress and parity harness: one trace, every kernel.

Every registered scheduler backend replays the same compiled traces —
healthy fixtures plus :mod:`repro.faultinject`-perturbed variants — and
each run is held to the invariants a correct scheduler cannot break,
whatever its policy:

* **no lost wakeups** — a trace whose replay completes under the
  reference backend completes under every backend.  A backend that
  mis-places a woken LWP strands its waiters, the watchdog diagnoses
  deadlock/livelock, and this harness fails;
* **conservation of CPU time** — per backend the machine's busy time
  equals the sum of per-thread work, fits the machine
  (``makespan × cpus``), and stays within a small tolerance of the
  other backends' totals (backends may differ in preemption counts and
  hence switch overhead, but never in the recorded work they execute);
* **same events** — the multiset of placed library calls
  ``(tid, primitive, object, status)`` is identical across backends:
  policy moves events in time, never invents or loses them;
* **deterministic replay** — running a cell twice produces equal
  results under every backend;
* **graceful degradation** — a wakeup-dropped trace must come back as
  a diagnosed partial result (deadlock detection fires) under every
  backend, never complete and never crash.

Run it directly (the CI ``sched-parity`` job does)::

    python -m repro.sched.stress_parity

Exit status 0 when every invariant holds, 1 with a per-violation
listing otherwise.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.config import SimConfig
from repro.core.simulator import ReplayPlan, Simulator
from repro.sched.base import available_backends

__all__ = ["StressReport", "run_stress", "main"]

#: relative spread allowed between backends' total CPU time (switch
#: overhead varies with preemption count; recorded work does not)
CPU_TIME_TOLERANCE = 0.10


@dataclass
class StressReport:
    """Outcome of one harness run."""

    cells: int = 0
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def fail(self, message: str) -> None:
        self.violations.append(message)

    def describe(self) -> str:
        lines = [
            f"sched stress/parity: {self.cells} cells, "
            f"{len(self.violations)} violation(s)"
        ]
        lines.extend(f"  VIOLATION: {v}" for v in self.violations)
        return "\n".join(lines)


def _event_multiset(result) -> Dict[Tuple, int]:
    counts: Dict[Tuple, int] = {}
    for ev in result.events:
        key = (int(ev.tid), ev.primitive, ev.obj, ev.status)
        counts[key] = counts.get(key, 0) + 1
    return counts


def _replay(plan: ReplayPlan, config: SimConfig):
    return Simulator(config, strict=False).run_replay(plan)


def _check_cell(
    report: StressReport,
    name: str,
    plan: ReplayPlan,
    cpus: int,
    backends: List[str],
    *,
    expect_complete: bool,
) -> None:
    """Run one (fixture, cpus) cell under every backend and cross-check."""
    report.cells += 1
    results = {}
    for backend in backends:
        config = SimConfig(cpus=cpus, scheduler=backend)
        cell = f"{name}/{cpus}cpu/{backend}"
        result = _replay(plan, config)
        if result != _replay(plan, config):
            report.fail(f"{cell}: replay is not deterministic")
            continue
        results[backend] = result

        if expect_complete and result.incomplete:
            report.fail(
                f"{cell}: lost wakeup — complete trace came back "
                f"{result.status.value} ({result.incompleteness.reason})"
            )
        if not expect_complete and not result.incomplete:
            report.fail(
                f"{cell}: wakeup-dropped trace replayed to completion "
                "(deadlock detection did not fire)"
            )

        busy = result.total_cpu_time_us()
        work = sum(s.work_us for s in result.summaries.values())
        if busy != work:
            report.fail(
                f"{cell}: CPU time not conserved — machine busy {busy}us "
                f"vs thread work {work}us"
            )
        if busy > result.makespan_us * cpus:
            report.fail(
                f"{cell}: busy time {busy}us exceeds the machine "
                f"({result.makespan_us}us x {cpus} CPUs)"
            )

    if len(results) < 2:
        return
    # cross-backend checks, against the reference backend's result
    reference_backend = backends[0]
    reference = results.get(reference_backend)
    if reference is None:
        return
    ref_events = _event_multiset(reference)
    ref_busy = reference.total_cpu_time_us()
    for backend, result in results.items():
        if backend == reference_backend:
            continue
        cell = f"{name}/{cpus}cpu/{backend}"
        if expect_complete and _event_multiset(result) != ref_events:
            report.fail(
                f"{cell}: placed-event multiset differs from "
                f"{reference_backend}'s"
            )
        if expect_complete and ref_busy:
            drift = abs(result.total_cpu_time_us() - ref_busy) / ref_busy
            if drift > CPU_TIME_TOLERANCE:
                report.fail(
                    f"{cell}: total CPU time {result.total_cpu_time_us()}us "
                    f"drifts {drift:.1%} from {reference_backend}'s "
                    f"{ref_busy}us (tolerance {CPU_TIME_TOLERANCE:.0%})"
                )


def _fixtures(scale: float) -> List[Tuple[str, ReplayPlan, bool]]:
    """(name, plan, expect_complete) triples: healthy traces plus
    faultinject-perturbed variants."""
    from repro.core.predictor import compile_trace
    from repro.faultinject.perturb import drop_wakeups, skew_clock, stall_threads
    from repro.program.uniexec import record_program
    from repro.workloads import get_workload

    prodcons = record_program(
        get_workload("prodcons").make_program(4, scale)
    ).trace
    fft = record_program(get_workload("fft").make_program(4, scale)).trace

    prodcons_plan = compile_trace(prodcons)
    fft_plan = compile_trace(fft)
    fixtures = [
        ("prodcons", prodcons_plan, True),
        ("barrier-fft", fft_plan, True),
        # perturbed but still well-formed: clock drift and parked LWPs
        # stress preemption paths without breaking completability
        ("prodcons-skew", skew_clock(prodcons_plan, seed=7), True),
        ("prodcons-stall", stall_threads(prodcons_plan, seed=7), True),
        # lost wakeups: every backend must diagnose, none may complete
        (
            "prodcons-dropped",
            compile_trace(drop_wakeups(prodcons, seed=7).trace),
            False,
        ),
    ]
    return fixtures


def run_stress(
    *,
    scale: float = 0.3,
    cpu_counts: Tuple[int, ...] = (2, 4),
    backends: Optional[List[str]] = None,
) -> StressReport:
    """Execute the full harness and return its report."""
    backends = list(backends or available_backends())
    # the reference backend leads (cross-backend checks anchor on it)
    if "solaris" in backends:
        backends.remove("solaris")
        backends.insert(0, "solaris")
    report = StressReport()
    for name, plan, expect_complete in _fixtures(scale):
        for cpus in cpu_counts:
            _check_cell(
                report, name, plan, cpus, backends,
                expect_complete=expect_complete,
            )
    return report


def main(argv: Optional[List[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="cross-backend scheduler stress/parity harness"
    )
    parser.add_argument("--scale", type=float, default=0.3)
    parser.add_argument(
        "--cpus", default="2,4", help="comma-separated CPU counts"
    )
    parser.add_argument(
        "--backends", default=None,
        help="comma-separated backend names (default: all registered)",
    )
    args = parser.parse_args(argv)
    cpu_counts = tuple(int(v) for v in args.cpus.split(","))
    backends = args.backends.split(",") if args.backends else None
    report = run_stress(
        scale=args.scale, cpu_counts=cpu_counts, backends=backends
    )
    print(report.describe())
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
