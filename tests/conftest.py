"""Shared fixtures and program builders for the test suite."""

from __future__ import annotations

import pytest

from repro import Program, SimConfig
from repro.program import ops as op
from repro.program.program import barrier
from repro.solaris import costs as costs_mod

#: Job outcome fields that legitimately differ between inline, pooled and
#: cached answers to the same question.
VOLATILE = ("elapsed_s", "attempts", "plan_cache_hits", "plan_cache_misses")


# ---------------------------------------------------------------------------
# canonical little programs
# ---------------------------------------------------------------------------


def make_fig2_program(work_us: int = 100_000) -> Program:
    """The paper's fig. 2 example: main creates thr_a and thr_b, joins both."""

    def thread(ctx):
        yield op.Compute(work_us)

    def main(ctx):
        thr_a = yield op.ThrCreate(thread, name="thread")
        thr_b = yield op.ThrCreate(thread, name="thread")
        yield op.ThrJoin(thr_a)
        yield op.ThrJoin(thr_b)

    return Program("fig2", main)


def make_barrier_program(
    nthreads: int = 4, iters: int = 3, work_us: int = 10_000
) -> Program:
    """Barrier-phase program (the SPLASH-2 skeleton)."""

    def worker(ctx):
        for _ in range(iters):
            yield op.Compute(work_us)
            yield from barrier(ctx, "ph", nthreads)

    def main(ctx):
        tids = []
        for _ in range(nthreads):
            tids.append((yield op.ThrCreate(worker)))
        for tid in tids:
            yield op.ThrJoin(tid)

    return Program("barrier", main)


def make_mutex_program(nthreads: int = 3, iters: int = 4) -> Program:
    """Threads hammering one mutex (serialisation bottleneck)."""

    def worker(ctx):
        for _ in range(iters):
            yield op.Compute(1_000)
            yield op.MutexLock("m")
            ctx.shared["count"] = ctx.shared.get("count", 0) + 1
            yield op.Compute(100)
            yield op.MutexUnlock("m")

    def main(ctx):
        tids = []
        for _ in range(nthreads):
            tids.append((yield op.ThrCreate(worker)))
        for tid in tids:
            yield op.ThrJoin(tid)

    return Program("mutex", main)


def make_prodcons_program(
    producers: int = 2, consumers: int = 2, items_per_producer: int = 4
) -> Program:
    """Semaphore-mediated producer/consumer."""
    total = producers * items_per_producer
    per_consumer, extra = divmod(total, consumers)

    def producer(ctx):
        for _ in range(items_per_producer):
            yield op.Compute(2_000)
            yield op.MutexLock("buf")
            yield op.Compute(50)
            yield op.MutexUnlock("buf")
            yield op.SemaPost("items")

    def consumer(ctx):
        n = per_consumer + (1 if ctx.args and ctx.args[0] else 0)
        for _ in range(n):
            yield op.SemaWait("items")
            yield op.MutexLock("buf")
            yield op.Compute(50)
            yield op.MutexUnlock("buf")
            yield op.Compute(2_000)

    def main(ctx):
        tids = []
        for _ in range(producers):
            tids.append((yield op.ThrCreate(producer)))
        for i in range(consumers):
            tids.append((yield op.ThrCreate(consumer, args=(i < extra,))))
        for tid in tids:
            yield op.ThrJoin(tid)

    return Program("prodcons", main)


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------


@pytest.fixture
def fig2_program() -> Program:
    return make_fig2_program()


@pytest.fixture
def barrier_program() -> Program:
    return make_barrier_program()


@pytest.fixture
def free_costs():
    """Zero-cost model for exact-time assertions."""
    return costs_mod.free()


@pytest.fixture
def free_config(free_costs) -> SimConfig:
    return SimConfig(cpus=1, lwps=1, costs=free_costs)
