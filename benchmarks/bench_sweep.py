"""Batch engine throughput: serial vs pooled sweeps, cold vs warm cache.

Not a paper table — this one validates the batch subsystem's two
performance claims on a real workload trace:

* a pooled :class:`~repro.jobs.engine.JobEngine` runs a CPU sweep's
  points concurrently (wall-clock below the serial sum once the trace is
  large enough to amortise pool start-up);
* a warm content-addressed cache answers a repeated sweep from disk —
  the second run must be dominated by cache reads, not simulation.

``VPPB_BENCH_SCALE`` scales the traced workload as in the other
benchmarks.
"""

from __future__ import annotations

import time

import pytest

from repro.core.config import SimConfig
from repro.jobs import JobEngine, ResultCache, TraceRef
from repro.jobs.manifest import curve_cells, run_grid
from repro.program.uniexec import record_program
from repro.workloads import get_workload

from _common import BENCH_SCALE, emit, save_json

SWEEP_CPUS = list(range(1, 9))
POOL_WORKERS = 4
CELLS = curve_cells(SimConfig(), SWEEP_CPUS)


@pytest.fixture(scope="module")
def trace():
    program = get_workload("fft").make_program(8, BENCH_SCALE)
    return record_program(program).trace


@pytest.fixture(scope="module")
def trace_ref(trace):
    return TraceRef.from_trace(trace)


def _sweep(engine, trace_ref, **kw):
    """The speed-up curve over SWEEP_CPUS, through the grid runner."""
    return run_grid(engine, trace_ref, CELLS, **kw).speedups()


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def test_sweep_throughput(benchmark, trace_ref, tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("sweep-cache")

    # serial reference: inline engine, no cache
    def serial():
        return _sweep(JobEngine(mode="inline"), trace_ref, use_cache=False)

    serial_preds, serial_s = _timed(serial)

    # pooled, cold: fresh pool + fresh disk cache
    pooled_engine = JobEngine(workers=POOL_WORKERS, cache=ResultCache(cache_dir))
    with pooled_engine:
        pooled_preds, cold_s = _timed(lambda: _sweep(pooled_engine, trace_ref))

        # warm: identical sweep, same cache — benchmark fixture times this
        warm_preds = benchmark.pedantic(
            lambda: _sweep(pooled_engine, trace_ref), rounds=1, iterations=1
        )
        _, warm_s = _timed(lambda: _sweep(pooled_engine, trace_ref))
        cache_stats = pooled_engine.cache.stats()

    # determinism across execution modes is part of the contract
    key = lambda preds: [(p.cpus, p.makespan_us) for p in preds]
    assert key(serial_preds) == key(pooled_preds) == key(warm_preds)
    assert cache_stats["hits"] >= 2 * (len(SWEEP_CPUS) + 1)

    # a warm cache must beat cold simulation outright
    assert warm_s < cold_s

    lines = [
        f"Batch sweep throughput (fft, scale {BENCH_SCALE}, "
        f"{len(SWEEP_CPUS)}-point sweep, pool of {POOL_WORKERS})",
        f"{'mode':<24} {'wall (s)':>10} {'vs serial':>10}",
        f"{'serial (inline)':<24} {serial_s:>10.3f} {'1.00x':>10}",
        f"{'pooled, cold cache':<24} {cold_s:>10.3f} "
        f"{serial_s / cold_s:>9.2f}x",
        f"{'pooled, warm cache':<24} {warm_s:>10.3f} "
        f"{serial_s / warm_s:>9.2f}x",
        f"cache: {cache_stats['hits']} hits / {cache_stats['misses']} misses "
        f"(hit rate {cache_stats['hit_rate']:.0%})",
    ]
    emit("\n" + "\n".join(lines), artifact="sweep.txt")
    save_json(
        "BENCH_sweep.json",
        {
            "benchmark": "batch-sweep",
            "config": {
                "workload": "fft",
                "scale": BENCH_SCALE,
                "sweep_cpus": SWEEP_CPUS,
                "pool_workers": POOL_WORKERS,
            },
            "results": {
                "serial_s": round(serial_s, 6),
                "pooled_cold_s": round(cold_s, 6),
                "pooled_warm_s": round(warm_s, 6),
                "pooled_speedup": round(serial_s / cold_s, 3),
                "warm_speedup": round(serial_s / warm_s, 3),
                "cache": cache_stats,
            },
        },
    )
