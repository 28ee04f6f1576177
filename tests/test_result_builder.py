"""Unit tests for SimulationResult assembly (ResultBuilder)."""

import pytest

from repro.core.config import SimConfig
from repro.core.events import Primitive
from repro.core.ids import ThreadId
from repro.core.result import (
    PlacedEvent,
    ResultBuilder,
    SegmentKind,
    ThreadSegment,
    ThreadSummary,
)
from repro.solaris.thread_model import ThreadState


def make_builder(cpus=2):
    return ResultBuilder(SimConfig(cpus=cpus))


def flip(b, tid, state, time_us, cpu=None):
    """One thread-state change, as the scheduler logs it."""
    b.flips.append((tid, state, time_us, cpu))


def thread(tid):
    """One thread's build() row: (tid, func_name, created, start, end)."""
    return (ThreadId(tid), "f", 0, 0, 100)


def summary(tid, **kw):
    defaults = dict(
        tid=ThreadId(tid),
        func_name="f",
        created_at_us=0,
        start_us=0,
        end_us=100,
        work_us=50,
    )
    defaults.update(kw)
    return ThreadSummary(**defaults)


class TestSegments:
    def test_transitions_close_previous_segment(self):
        b = make_builder()
        tid = ThreadId(4)
        flip(b, tid, ThreadState.RUNNABLE, 0)
        flip(b, tid, ThreadState.RUNNING, 10, cpu=1)
        flip(b, tid, ThreadState.BLOCKED, 30)
        res = b.build(makespan_us=50, threads=[thread(4)])
        kinds = [(s.kind, s.start_us, s.end_us) for s in res.segments[tid]]
        assert kinds == [
            (SegmentKind.RUNNABLE, 0, 10),
            (SegmentKind.RUNNING, 10, 30),
            (SegmentKind.BLOCKED, 30, 50),
        ]

    def test_zero_length_segments_dropped(self):
        b = make_builder()
        tid = ThreadId(4)
        flip(b, tid, ThreadState.RUNNABLE, 5)
        flip(b, tid, ThreadState.RUNNING, 5, cpu=0)
        flip(b, tid, ThreadState.ZOMBIE, 20)
        res = b.build(makespan_us=20, threads=[thread(4)])
        assert [s.kind for s in res.segments[tid]] == [SegmentKind.RUNNING]

    def test_cpu_busy_accounting(self):
        b = make_builder(cpus=2)
        t4, t5 = ThreadId(4), ThreadId(5)
        flip(b, t4, ThreadState.RUNNING, 0, cpu=0)
        flip(b, t5, ThreadState.RUNNING, 0, cpu=1)
        flip(b, t4, ThreadState.ZOMBIE, 30)
        flip(b, t5, ThreadState.ZOMBIE, 50)
        res = b.build(
            makespan_us=50, threads=[thread(4), thread(5)]
        )
        assert res.cpu_busy_us == [30, 50]
        assert res.total_cpu_time_us() == 80
        assert res.utilisation() == pytest.approx(0.8)

    def test_open_segments_closed_at_build(self):
        b = make_builder()
        tid = ThreadId(4)
        flip(b, tid, ThreadState.RUNNING, 0, cpu=0)
        res = b.build(makespan_us=42, threads=[thread(4)])
        assert res.segments[tid][-1].end_us == 42

    def test_segment_validation(self):
        with pytest.raises(ValueError):
            ThreadSegment(ThreadId(1), SegmentKind.RUNNING, 10, 5)


class TestEvents:
    def test_events_sorted_and_reindexed(self):
        b = make_builder()
        t4 = ThreadId(4)
        b.event_placed(
            tid=t4, primitive=Primitive.MUTEX_UNLOCK, start_us=50, end_us=52, cpu=0
        )
        b.event_placed(
            tid=t4, primitive=Primitive.MUTEX_LOCK, start_us=10, end_us=12, cpu=0
        )
        res = b.build(makespan_us=60, threads=[thread(4)])
        assert [e.primitive for e in res.events] == [
            Primitive.MUTEX_LOCK,
            Primitive.MUTEX_UNLOCK,
        ]
        assert [e.index for e in res.events] == [0, 1]

    def test_events_for_filters_by_thread(self):
        b = make_builder()
        t4, t5 = ThreadId(4), ThreadId(5)
        b.event_placed(
            tid=t4, primitive=Primitive.SEMA_POST, start_us=1, end_us=2, cpu=0
        )
        b.event_placed(
            tid=t5, primitive=Primitive.SEMA_WAIT, start_us=3, end_us=4, cpu=1
        )
        res = b.build(
            makespan_us=10, threads=[thread(4), thread(5)]
        )
        assert [int(e.tid) for e in res.events_for(t4)] == [4]


class TestSummaries:
    def test_total_time(self):
        s = summary(4, start_us=10, end_us=110)
        assert s.total_us == 100

    def test_total_time_unknown_when_never_ran(self):
        s = summary(4, start_us=None, end_us=None)
        assert s.total_us is None

    def test_speedup_vs(self):
        b = make_builder()
        res = b.build(makespan_us=50, threads=[])
        assert res.speedup_vs(100) == 2.0
