"""VPPB end-to-end benchmark: four workloads, one command.

Run one workload (the last stdout line is the JSON result)::

    python3 benchmarks/e2e/bench.py --workload sweep-xos --seed 1 --seconds 20 --trace 0

Run all four, each in its own fresh child process, and keep the runs::

    python3 benchmarks/e2e/bench.py [--seed S] [--traced] [--out runs.json]
    python3 benchmarks/e2e/bench.py --stability 5 --out results/set-a.json
    python3 benchmarks/e2e/bench.py compare PARENT.json CHANGE.json

Every metric is printed as ``workload metric value unit``.  See
``benchmarks/e2e/README.md`` for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK_ROOT = HERE / ".work"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]
#: printed results that must not change between runs of one seed, nor
#: between commits that do not mean to change what is simulated
IDENTICAL = ("makespan_digest", "speedup_error_max_pct") + tuple(
    f"sched.{name}.events_per_cell" for name in ("solaris", "cfs", "clutch")
)


def _import_program():
    """The benchmark modules, importing the program from this checkout's ``src/``."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import repro

    if (ROOT / "src") not in Path(repro.__file__).resolve().parents:
        raise ImportError(f"repro imported from {repro.__file__}, not this checkout")
    import tracer
    import workloads

    return tracer, workloads


def _emit(workload: str, metric: str, value, unit: str) -> None:
    print(f"{workload} {metric} {value} {unit}", flush=True)


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# ---------------------------------------------------------------------------
# one workload, in this process
# ---------------------------------------------------------------------------


def _check(wl, ops, workloads):
    """Oracle + workload checks: (failed op count, printed extras, wrong ops)."""
    wrong, digest, checked = workloads.oracle(wl, ops)
    extra_wrong, extras = wl.extra_checks(ops)
    wrong.update(extra_wrong)
    failed = [op for op in ops if op.error or op.index in wrong]
    for op in failed[:5]:
        print(f"{wl.name}: op {op.index} failed: {op.error or wrong[op.index]}",
              file=sys.stderr)
    extras.update({
        "makespan_digest": (digest, "sha256"),
        "oracle_cells": (checked, "count"),
        "error_rate": (len(failed) / len(ops), "ratio"),
    })
    return len(failed), extras, wrong


def _kind_median(wl, ops, value) -> float:
    """Median of ``value(op)``; where a workload alternates kinds of input
    of unequal cost, the mean of each kind's median, because a median over
    all ops falls in the gap between the kinds and jumps with one op."""
    by_kind = {}
    for op in ops:
        by_kind.setdefault(wl.kind_of(op.index), []).append(value(op))
    return statistics.fmean(statistics.median(v) for v in by_kind.values()) if by_kind else 0.0


def measure(wl, seconds: float, setups: int, workloads):
    """The untraced, pooled run: the end-to-end numbers.

    The timed phase runs in slices of ``wl.slice_s`` (at least one batch
    of ops), with every client idle between them.  Between slices the
    host probe (:mod:`hostspeed`) times its loop, and every time measured
    in a slice is scaled by the mean of the probes on either side of it,
    so the gated times refer to one nominal host speed.  The unscaled
    numbers are printed too, prefixed ``wall.``.

    The program the ops run against is set up once.  The other set-ups
    are throwaway instances, set up and closed off the clock at even
    points of the run, each followed by a probe.
    """
    with hostspeed.HostProbe(workloads.WORKERS) as probe:
        setups_done = [(wl.start(), probe.scale())]  # (set-up s, scale)
        wl.warm_up()
        before = probe.scale()
        slices = []  # (ops, scale)
        ops, wall = [], 0.0
        while wall < seconds or len(ops) < wl.min_ops:
            part, part_wall = workloads.drive(wl, len(ops), wl.slice_s, wl.batch)
            after = probe.scale()
            slices.append((part, (before + after) / 2))
            before = after
            ops += part
            wall += part_wall
            if len(setups_done) < setups and wall >= seconds * len(setups_done) / setups:
                setups_done.append((wl.probe_setup(), probe.scale()))
                before = setups_done[-1][1]
        while len(setups_done) < setups:
            setups_done.append((wl.probe_setup(), probe.scale()))
        probe_ms = statistics.median(probe.samples) * 1e3
    # a sweep's engine lives in this process; a server's does not
    own_rss = 0.0 if wl.over_http else workloads.peak_rss_mb(resource.RUSAGE_SELF)
    failed, extras, wrong = _check(wl, ops, workloads)
    wl.stop()
    rss = max(own_rss, workloads.peak_rss_mb(resource.RUSAGE_CHILDREN))

    scale_of = {op.index: scale for part, scale in slices for op in part}
    good = [op for op in ops if not op.error and op.index not in wrong]
    # the clients are closed loops without think time, so they are busy
    # throughout: clients x work done / summed latency is the throughput
    spent = sum(op.latency_s * scale_of[op.index] for op in ops) / wl.concurrency
    scaled_ms = sorted(op.latency_s * 1e3 * scale_of[op.index] for op in good) or [0.0]
    p90 = statistics.quantiles(scaled_ms, n=10)[-1] if len(scaled_ms) > 1 else scaled_ms[0]
    busy = wall - sum(op.gen_s for op in ops)
    metrics = {
        "setup_s": statistics.median(s * scale for s, scale in setups_done),
        "cells_per_s": sum(op.cells for op in good) / spent,
        "goodput_rps": len(good) / spent,
        "latency_p50_ms": _kind_median(
            wl, good, lambda op: op.latency_s * 1e3 * scale_of[op.index]
        ),
        "rss_peak_mb": rss,
    }
    extras.update({
        "latency_p90_ms": (p90, "ms"),
        "latency_samples": (len(good), "count"),
        "wall.setup_s": (statistics.median(s for s, _ in setups_done), "s"),
        "wall.cells_per_s": (sum(op.cells for op in good) / busy, "cells/s"),
        "wall.goodput_rps": (len(good) / busy, "1/s"),
        "wall.latency_p50_ms": (_kind_median(wl, good, lambda op: op.latency_s * 1e3), "ms"),
        "host.probe_ms": (probe_ms, "ms"),
        "slices": (len(slices), "count"),
        "ops": (len(ops), "count"),
    })
    return ops, failed, metrics, extras


def measure_traced(wl, seconds: float, tracer_mod, workloads, trace_out: Path):
    """The traced inline run: per-layer numbers plus tracing overhead."""
    wl.start()
    wl.warm_up()
    tracer = tracer_mod.Tracer()
    wl.offstage = tracer.muted
    with tracer:
        ops, wall = workloads.drive(wl, 0, seconds / 2, wl.min_ops)
    wl.offstage = contextlib.nullcontext
    # the same number of fresh ops again, untraced: the overhead baseline
    plain, plain_wall = workloads.drive(wl, len(ops), 0.0, len(ops))
    failed, extras, _ = _check(wl, ops, workloads)
    wl.stop()

    busy = wall - sum(op.gen_s for op in ops)
    plain_busy = plain_wall - sum(op.gen_s for op in plain)
    client_s = sum(op.latency_s for op in ops) if wl.over_http else 0.0
    metrics = tracer_mod.layer_metrics(
        tracer.spans,
        ops=len(ops),
        wall_s=busy,
        concurrency=wl.concurrency,
        client_s=client_s,
    )
    metrics["tracing.overhead_pct"] = (busy / len(ops)) / (plain_busy / len(plain)) * 100 - 100
    if not wl.over_http:
        extras["trace_coverage"] = (tracer_mod.manifest_coverage(tracer.spans), "ratio")
    tracer.chrome_trace(trace_out)
    print(f"{wl.name}: wrote {len(tracer.spans)} spans to {trace_out}", file=sys.stderr)
    return ops, failed, metrics, extras


def run_workload(args) -> int:
    try:
        tracer_mod, workloads = _import_program()
    except ImportError as exc:
        print(f"bench: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    smoke = args.smoke
    # a terminated run still stops its worker pools and servers
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    wl = workloads.WORKLOADS[args.workload](
        args.seed, work, inline=args.trace,
        scale=workloads.SMOKE_SCALE if smoke else None,
    )
    try:
        wl.prepare()
        if args.trace:
            out = args.trace_out or WORK_ROOT / f"trace-{args.workload}-seed{args.seed}.json"
            ops, failed, metrics, extras = measure_traced(
                wl, args.seconds, tracer_mod, workloads, Path(out)
            )
            listed = SPEC["per_layer"]
        else:
            ops, failed, metrics, extras = measure(
                wl, args.seconds, 1 if smoke else wl.setups, workloads
            )
            listed = SPEC["end_to_end"]
    finally:
        wl.stop()
        shutil.rmtree(work, ignore_errors=True)

    result = {}
    for entry in listed:
        value = metrics[entry["name"]]
        _emit(wl.name, entry["name"], value, entry["unit"])
        result[entry["name"]] = {"value": value, "unit": entry["unit"]}
    for name, (value, unit) in sorted(extras.items()):
        if name not in result:  # a traced run's per-layer value wins
            _emit(wl.name, name, value, unit)
    correct = failed == 0 and int(extras["oracle_cells"][0]) > 0
    print(json.dumps({
        "correct": correct, "attempted": len(ops), "failed": failed, "metrics": result,
    }), flush=True)
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# all workloads, each in a fresh child process
# ---------------------------------------------------------------------------


def _parse_printed(workload: str, text: str):
    printed = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0] == workload:
            try:
                value = float(parts[2])
            except ValueError:
                value = parts[2]
            printed[parts[1]] = {"value": value, "unit": parts[3]}
    return printed


def run_children(args):
    """One pass over the workloads; returns the run records."""
    runs = []
    for name in [args.workload] if args.workload else NAMES:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", "1" if args.trace else "0",
        ] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            raise SystemExit(f"bench: {name} exited {proc.returncode} without a result")
        runs.append({
            "workload": name, "seed": args.seed, "seconds": args.seconds,
            "trace": bool(args.trace), "result": result,
            "printed": _parse_printed(name, proc.stdout),
        })
    return runs


def _save(path: Path, runs) -> None:
    data = json.loads(path.read_text()) if path.exists() else {"runs": []}
    data["runs"].extend(runs)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=1) + "\n")


def _by_workload(runs):
    grouped = {}
    for run in runs:
        if not run["trace"]:
            grouped.setdefault(run["workload"], []).append(run)
    return grouped


def _values(runs, metric):
    return [run["printed"][metric]["value"] for run in runs if metric in run["printed"]]


def stability(runs) -> None:
    """Print each end-to-end metric's relative IQR over same-code runs."""
    print(f"{'workload':<14} {'metric':<16} {'n':>3} {'median':>12} {'rel IQR':>8} {'2x':>7}")
    for name, group in _by_workload(runs).items():
        for entry in SPEC["end_to_end"]:
            values = _values(group, entry["name"])
            q1, median, q3 = _quartiles(values)
            spread = (q3 - q1) / abs(median) if median else math.inf
            print(f"{name:<14} {entry['name']:<16} {len(values):>3} {median:>12.4f} "
                  f"{spread:>8.2%} {2 * spread:>7.2%}")
        for metric in IDENTICAL + ("error_rate",):
            seen = sorted({str(v) for v in _values(group, metric)})
            if seen:
                status = "identical" if len(seen) == 1 else f"{len(seen)} distinct"
                print(f"{name:<14} {metric:<16} {status}: {seen[0][:16]}")


# ---------------------------------------------------------------------------
# compare two sets of runs
# ---------------------------------------------------------------------------


def verdict(parent, change, better: str, bound: float) -> str:
    """improved / unchanged / worse / unresolved, by choosing-metrics §8."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    q1, mp, q3 = _quartiles(parent)
    mc = statistics.median(change)
    gain = sign * (mc - mp)
    if -gain > bound * abs(mp):
        return "worse"
    if gain > q3 - q1:
        if len(pairs) >= 10 and wins >= 0.9 * len(pairs):
            return "improved"
        return "unresolved"
    worst_change = min(change) if sign > 0 else max(change)
    best_parent = max(parent) if sign > 0 else min(parent)
    every_better = sign * (worst_change - best_parent) > 0
    if (q3 - q1) > bound * abs(mp) and not every_better:
        return "unresolved"
    return "unchanged"


def compare(parent_path: Path, change_path: Path) -> int:
    parent = _by_workload(json.loads(parent_path.read_text())["runs"])
    change = _by_workload(json.loads(change_path.read_text())["runs"])
    print(f"{'workload':<14} {'metric':<16} {'parent median [q1, q3]':>30} "
          f"{'change median [q1, q3]':>30} {'wins':>6}  verdict")
    worse = 0
    for name in NAMES:
        if name not in parent or name not in change:
            continue
        n = min(len(parent[name]), len(change[name]))
        if n < 10:
            print(f"{name}: only {n} pairs; a gain needs >= 10 alternating pairs")
        for entry in SPEC["end_to_end"]:
            p = _values(parent[name][:n], entry["name"])
            c = _values(change[name][:n], entry["name"])
            label = verdict(p, c, entry["better"], entry["bound"])
            worse += label == "worse"
            sign = 1 if entry["better"] == "higher" else -1
            wins = sum(1 for a, b in zip(p, c) if sign * (b - a) > 0)
            pq, cq = _quartiles(p), _quartiles(c)
            print(f"{name:<14} {entry['name']:<16} "
                  f"{pq[1]:>12.4f} [{pq[0]:.4f}, {pq[2]:.4f}] "
                  f"{cq[1]:>12.4f} [{cq[0]:.4f}, {cq[2]:.4f}] {wins:>3}/{len(p):<2}  {label}")
        for metric in IDENTICAL:
            before = {str(v) for v in _values(parent[name], metric)}
            after = {str(v) for v in _values(change[name], metric)}
            if before or after:
                label = "identical" if before == after and len(before) == 1 else "changed"
                print(f"{name:<14} {metric:<16} {label}")
    return 1 if worse else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: bench.py compare PARENT.json CHANGE.json", file=sys.stderr)
            return 2
        return compare(Path(argv[1]), Path(argv[2]))

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=NAMES)
    parser.add_argument("--seed", type=int, default=1,
                        help="input seed (default 1; seed 2 is held out for confirming claims)")
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                        help="timed phase length (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced inline run reporting the per-layer metrics")
    parser.add_argument("--traced", dest="trace", action="store_const", const=1,
                        help="same as --trace 1")
    parser.add_argument("--trace-out", help="Chrome trace-event JSON output path")
    parser.add_argument("--smoke", action="store_true",
                        help="miniature inputs and one set-up (for the test suite)")
    parser.add_argument("--stability", type=int, metavar="N",
                        help="run every workload N times and print each metric's spread")
    parser.add_argument("--out", help="append the runs to this result JSON")
    args = parser.parse_args(argv)

    if args.workload and not args.stability:
        return run_workload(args)
    runs = []
    for _ in range(args.stability or 1):
        runs.extend(run_children(args))
    if args.out:
        _save(Path(args.out), runs)
    if args.stability:
        stability(runs)
    return 0 if all(run["result"]["correct"] for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
