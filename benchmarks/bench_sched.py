"""Scheduler-backend replay cost: Clutch/CFS vs the Solaris fast path.

Not a paper table — this benchmark backs the pluggable-backend
performance claim: routing every dispatch decision through a
:class:`repro.sched.SchedulerBackend` keeps the compiled-plan fast path
intact, and the non-Solaris policies (CFS's vruntime queue, Clutch's
decay-ordered timeshare bucket) stay within a small constant factor of
the Solaris backend's fast-path cost on the same trace.

Two fixture sets, because backend cost only shows where dispatch
decisions happen:

* ``lock-ladder`` (uncontended sync-heavy replay: pure interpreter
  dispatch), a contended producer/consumer, and a barrier-structured
  numeric workload, each with at most one thread per CPU.  Here every
  backend replays about as many engine events, so the gate compares the
  cost per replay.
* an **oversubscribed** set — ``water`` and ``ocean`` at 8 threads on
  1, 2 and 4 CPUs, the regime of the cross-OS sweeps.  CFS and Clutch
  slice and wake-preempt here, so they replay 1.4–7x as many engine
  events as Solaris on the same trace.  Those events are the model, so
  this set is gated on the cost *per event*, summed over its cells.

Output: ``benchmarks/results/BENCH_sched.json`` with per-fixture,
per-backend events/sec and each backend's cost ratio against Solaris
(same machine, same run, so the ratio is hardware-independent).

``--check`` gates the measured ratios: every non-Solaris backend must
replay the first set within ``--max-ratio`` (default 1.5) of the Solaris
fast path per replay, and the oversubscribed set within
:data:`MAX_PER_EVENT_RATIO` of Solaris's cost per event.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

from _common import BENCH_RUNS, BENCH_SCALE, emit, save_json  # noqa: E402

from repro import Program, SimConfig, record_program  # noqa: E402
from repro.core.predictor import compile_trace  # noqa: E402
from repro.core.simulator import Simulator  # noqa: E402
from repro.program import ops as op  # noqa: E402
from repro.sched import available_backends  # noqa: E402
from repro.workloads import get_workload  # noqa: E402

BASELINE = "BENCH_sched.json"
REFERENCE = "solaris"
#: allowed cost per replayed engine event, relative to Solaris, on the
#: oversubscribed fixtures
MAX_PER_EVENT_RATIO = 2.0


def make_lock_ladder(scale: float) -> Program:
    """One thread hammering an uncontended mutex: no blocking, no
    preemption, so replay time is pure interpreter dispatch plus
    sync-table bookkeeping."""
    rounds = max(1_000, int(20_000 * scale))

    def main(ctx):
        for _ in range(rounds):
            yield op.MutexLock("m")
            yield op.MutexUnlock("m")

    return Program("lock-ladder", main)


def _fixtures(scale: float):
    """At most one thread per CPU: every backend replays about as many
    engine events."""
    return [
        ("lock-ladder", make_lock_ladder(scale), 1),
        ("prodcons", get_workload("prodcons").make_program(4, max(0.2, scale)), 4),
        ("barrier-fft", get_workload("fft").make_program(4, max(0.2, scale)), 4),
    ]


def _oversubscribed(scale: float):
    """8 threads on fewer CPUs: where CFS and Clutch slice."""
    return [
        (f"{name}-8t", get_workload(name).make_program(8, max(0.2, scale)), cpus)
        for name in ("water", "ocean")
        for cpus in (1, 2, 4)
    ]


def _replay_s(plan, config) -> float:
    sim = Simulator(config)
    start = time.perf_counter()
    sim.run_replay(plan)
    return time.perf_counter() - start


def bench_fixture(name: str, program: Program, cpus: int, runs: int, backends) -> dict:
    plan = compile_trace(record_program(program).trace)

    configs = {b: SimConfig(cpus=cpus, scheduler=b) for b in backends}
    # determinism sanity before timing: every backend must replay the
    # plan to the same result twice (a nondeterministic backend would
    # make the timing numbers meaningless).  Event counts are
    # per-backend — tickless backends drive far fewer engine events
    # than the always-ticking Solaris model on the same plan.
    events = {}
    for b, config in configs.items():
        first = Simulator(config).run_replay(plan)
        second = Simulator(config).run_replay(plan)
        if first != second:
            raise SystemExit(f"{name}/{b}: nondeterministic replay")
        events[b] = first.engine_events

    # interleave backends so machine noise hits all of them alike
    times = {b: [] for b in backends}
    for _ in range(runs):
        for b in backends:
            times[b].append(_replay_s(plan, configs[b]))

    per_backend = {}
    ref_best = min(times[REFERENCE])
    for b in backends:
        ordered = sorted(times[b])
        best = ordered[0]
        per_backend[b] = {
            "best_s": round(best, 6),
            "p50_s": round(statistics.median(ordered), 6),
            "engine_events": events[b],
            "events_per_s": round(events[b] / best),
            "vs_solaris": round(best / ref_best, 3),
        }
    return {
        "name": name,
        "cpus": cpus,
        "backends": per_backend,
    }


def per_event(fixtures, backends) -> dict:
    """Each backend's events, events/s and cost per event against
    Solaris, summed over *fixtures*."""
    totals = {}
    for b in backends:
        events = sum(f["backends"][b]["engine_events"] for f in fixtures)
        seconds = sum(f["backends"][b]["best_s"] for f in fixtures)
        totals[b] = {"engine_events": events, "best_s": round(seconds, 6),
                     "events_per_s": round(events / seconds)}
    ref = totals[REFERENCE]
    for b, t in totals.items():
        t["per_event_vs_solaris"] = round(ref["events_per_s"] / t["events_per_s"], 3)
        t["per_replay_vs_solaris"] = round(t["best_s"] / ref["best_s"], 3)
    return totals


def run_bench(runs: int, scale: float) -> dict:
    backends = list(available_backends())
    backends.remove(REFERENCE)
    backends.insert(0, REFERENCE)
    fixtures = [
        bench_fixture(name, program, cpus, runs, backends)
        for name, program, cpus in _fixtures(scale)
    ]
    oversubscribed = [
        bench_fixture(name, program, cpus, runs, backends)
        for name, program, cpus in _oversubscribed(scale)
    ]
    worst = {
        b: max(f["backends"][b]["vs_solaris"] for f in fixtures)
        for b in backends
        if b != REFERENCE
    }
    totals = per_event(oversubscribed, backends)
    return {
        "benchmark": "sched-backends",
        "config": {
            "scale": scale,
            "runs": runs,
            "python": sys.version.split()[0],
        },
        "fixtures": fixtures,
        "oversubscribed": {"fixtures": oversubscribed, "backends": totals},
        "headline": {
            "worst_ratio_vs_solaris": worst,
            "per_event_vs_solaris": {
                b: t["per_event_vs_solaris"]
                for b, t in totals.items()
                if b != REFERENCE
            },
            "note": (
                "fast-path replay cost per backend relative to the "
                "Solaris backend on the same trace and machine: per "
                "replay on the fixtures, per engine event summed over "
                "the oversubscribed fixtures"
            ),
        },
    }


def check(report: dict, max_ratio: float) -> list:
    failures = []
    for fixture in report["fixtures"]:
        for backend, stats in fixture["backends"].items():
            if backend == REFERENCE:
                continue
            if stats["vs_solaris"] > max_ratio:
                failures.append(
                    f"{fixture['name']}/{backend}: {stats['vs_solaris']:.2f}x "
                    f"the Solaris fast-path cost (limit {max_ratio:.2f}x)"
                )
    for backend, ratio in report["headline"]["per_event_vs_solaris"].items():
        if ratio > MAX_PER_EVENT_RATIO:
            failures.append(
                f"oversubscribed/{backend}: {ratio:.2f}x the Solaris cost per "
                f"event (limit {MAX_PER_EVENT_RATIO:.2f}x)"
            )
    return failures


def _render_table(report: dict) -> str:
    lines = [
        f"Replay cost per scheduler backend (fast path, scale "
        f"{report['config']['scale']}, best of {report['config']['runs']})",
        f"{'fixture':<14} {'cpus':>4} {'backend':<9} {'events':>8} {'events/s':>12} "
        f"{'vs solaris':>11}",
    ]
    for f in report["fixtures"] + report["oversubscribed"]["fixtures"]:
        for backend, stats in f["backends"].items():
            lines.append(
                f"{f['name']:<14} {f['cpus']:>4} {backend:<9} {stats['engine_events']:>8} "
                f"{stats['events_per_s']:>12,} {stats['vs_solaris']:>10.2f}x"
            )
    lines.append("oversubscribed, summed over its cells:")
    for backend, t in report["oversubscribed"]["backends"].items():
        lines.append(
            f"  {backend:<9} {t['engine_events']:>8} events {t['events_per_s']:>10,} events/s "
            f"{t['per_replay_vs_solaris']:>6.2f}x per replay "
            f"{t['per_event_vs_solaris']:>6.2f}x per event"
        )
    worst = report["headline"]["worst_ratio_vs_solaris"]
    lines.append(
        "worst per-replay ratios: "
        + ", ".join(f"{b} {r:.2f}x" for b, r in sorted(worst.items()))
    )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=max(3, BENCH_RUNS))
    parser.add_argument("--scale", type=float, default=BENCH_SCALE)
    parser.add_argument(
        "--check", action="store_true",
        help="gate measured backend cost ratios against --max-ratio "
        f"(per replay) and {MAX_PER_EVENT_RATIO}x (per oversubscribed event)",
    )
    parser.add_argument(
        "--max-ratio", type=float, default=1.5,
        help="allowed backend cost per replay relative to the Solaris "
        "fast path on the first fixture set in --check mode (default 1.5)",
    )
    parser.add_argument(
        "--artifact", default=BASELINE,
        help=f"result JSON filename under benchmarks/results/ (default {BASELINE})",
    )
    args = parser.parse_args(argv)

    report = run_bench(args.runs, args.scale)
    save_json(args.artifact, report)
    emit(_render_table(report))

    if args.check:
        failures = check(report, args.max_ratio)
        if failures:
            emit("GATE FAILED: " + "; ".join(failures))
            return 1
        worst = report["headline"]["worst_ratio_vs_solaris"]
        per_event = report["headline"]["per_event_vs_solaris"]
        emit(
            "gate passed: "
            + ", ".join(f"{b} {r:.2f}x" for b, r in sorted(worst.items()))
            + f" of the Solaris fast-path cost per replay (limit "
            f"{args.max_ratio:.2f}x); oversubscribed "
            + ", ".join(f"{b} {r:.2f}x" for b, r in sorted(per_event.items()))
            + f" per event (limit {MAX_PER_EVENT_RATIO:.2f}x)"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
