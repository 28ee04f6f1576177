"""Scheduler-backend replay cost: Clutch/CFS vs the Solaris fast path.

Not a paper table — this benchmark backs the pluggable-backend
performance claim: routing every dispatch decision through a
:class:`repro.sched.SchedulerBackend` keeps the compiled-plan fast path
intact, and the richer non-Solaris policies (EDF bucket ranking,
vruntime bookkeeping) stay within a small constant factor of the
Solaris backend's fast-path cost on the same trace.

Fixtures are ``bench_replay.py``'s (imported from it) — uncontended
sync-heavy replay, a contended producer/consumer, and a
barrier-structured numeric workload — because backend cost only shows
where dispatch decisions happen.

Output: ``benchmarks/results/BENCH_sched.json`` with per-fixture,
per-backend events/sec and each backend's cost ratio against Solaris
(same machine, same run, so the ratio is hardware-independent).

``--check`` gates the measured ratios: every non-Solaris backend must
replay within ``--max-ratio`` (default 1.5) of the Solaris fast path.
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
from bench_replay import _fixtures  # noqa: E402

from repro import Program, SimConfig, record_program  # noqa: E402
from repro.core.predictor import compile_trace  # noqa: E402
from repro.core.simulator import Simulator  # noqa: E402
from repro.sched import available_backends  # noqa: E402

BASELINE = "BENCH_sched.json"
REFERENCE = "solaris"


def _replay_s(plan, config) -> float:
    sim = Simulator(config)
    start = time.perf_counter()
    sim.run_replay(plan, replay_engine="fast")
    return time.perf_counter() - start


def bench_fixture(name: str, program: Program, cpus: int, runs: int, backends) -> dict:
    trace = record_program(program).trace
    plan = compile_trace(trace)
    if not plan.fast_replayable():
        raise SystemExit(f"{name}: plan did not lower to the fast form")

    configs = {b: SimConfig(cpus=cpus, scheduler=b) for b in backends}
    # determinism sanity before timing: every backend must replay the
    # plan to the same result twice (a nondeterministic backend would
    # make the timing numbers meaningless).  Event counts are
    # per-backend — tickless backends drive far fewer engine events
    # than the always-ticking Solaris model on the same plan.
    events = {}
    for b, config in configs.items():
        first = Simulator(config).run_replay(plan, replay_engine="fast")
        second = Simulator(config).run_replay(plan, replay_engine="fast")
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


def run_bench(runs: int, scale: float) -> dict:
    backends = list(available_backends())
    backends.remove(REFERENCE)
    backends.insert(0, REFERENCE)
    fixtures = [
        bench_fixture(name, program, cpus, runs, backends)
        for name, program, cpus in _fixtures(scale)
    ]
    worst = {
        b: max(f["backends"][b]["vs_solaris"] for f in fixtures)
        for b in backends
        if b != REFERENCE
    }
    return {
        "benchmark": "sched-backends",
        "config": {
            "scale": scale,
            "runs": runs,
            "python": sys.version.split()[0],
        },
        "fixtures": fixtures,
        "headline": {
            "worst_ratio_vs_solaris": worst,
            "note": (
                "fast-path replay cost per backend relative to the "
                "Solaris backend on the same trace and machine"
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
    return failures


def _render_table(report: dict) -> str:
    lines = [
        f"Replay cost per scheduler backend (fast path, scale "
        f"{report['config']['scale']}, best of {report['config']['runs']})",
        f"{'fixture':<14} {'backend':<9} {'events':>8} {'events/s':>12} "
        f"{'vs solaris':>11}",
    ]
    for f in report["fixtures"]:
        for backend, stats in f["backends"].items():
            lines.append(
                f"{f['name']:<14} {backend:<9} {stats['engine_events']:>8} "
                f"{stats['events_per_s']:>12,} {stats['vs_solaris']:>10.2f}x"
            )
    worst = report["headline"]["worst_ratio_vs_solaris"]
    lines.append(
        "worst ratios: "
        + ", ".join(f"{b} {r:.2f}x" for b, r in sorted(worst.items()))
    )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=max(3, BENCH_RUNS))
    parser.add_argument("--scale", type=float, default=BENCH_SCALE)
    parser.add_argument(
        "--check", action="store_true",
        help="gate measured backend cost ratios against --max-ratio",
    )
    parser.add_argument(
        "--max-ratio", type=float, default=1.5,
        help="allowed backend cost relative to the Solaris fast path "
        "in --check mode (default 1.5)",
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
        emit(
            "gate passed: "
            + ", ".join(f"{b} {r:.2f}x" for b, r in sorted(worst.items()))
            + f" of the Solaris fast-path cost (limit {args.max_ratio:.2f}x)"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
