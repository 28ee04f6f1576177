"""Tests for the live Python ``threading`` interposer."""

import threading
import time

import pytest

from repro import SimConfig, compile_trace, predict
from repro.core.events import Phase, Primitive, Status
from repro.recorder import PyThreadsRecorder
from repro.recorder.srcmap import AddressMap, capture_call_site


def _spin(seconds: float) -> None:
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        pass


class TestSrcMap:
    def test_capture_here(self):
        site = capture_call_site(depth=1)
        assert site is not None
        assert site.code.co_filename.endswith("test_pythreads.py")

    def test_resolve_caches(self):
        site = capture_call_site(depth=1)
        amap = AddressMap()
        a = amap.resolve(site)
        b = amap.resolve(site)
        assert a is b
        assert len(amap) == 1

    def test_resolve_none(self):
        assert AddressMap().resolve(None) is None


class TestRecorderBasics:
    def test_thread_lifecycle_recorded(self):
        rec = PyThreadsRecorder("t")

        def worker():
            _spin(0.002)

        t = rec.Thread(target=worker)
        with rec.collecting():
            t.start()
            t.join()
        trace = rec.trace()
        prims = [r.primitive for r in trace]
        assert Primitive.THR_CREATE in prims
        assert Primitive.THREAD_START in prims
        assert Primitive.THR_EXIT in prims
        assert Primitive.THR_JOIN in prims
        assert prims[0] is Primitive.START_COLLECT
        assert prims[-1] is Primitive.END_COLLECT

    def test_main_is_thread_one_children_from_four(self):
        rec = PyThreadsRecorder("t")
        t = rec.Thread(target=lambda: None)
        with rec.collecting():
            t.start()
            t.join()
        tids = {int(r.tid) for r in rec.trace()}
        assert 1 in tids and 4 in tids

    def test_sequential_threads_record_distinct_tids(self):
        """The OS hands a finished thread's ident to the next one; each
        thread still records under its own tid."""
        rec = PyThreadsRecorder("t")
        with rec.collecting():
            for _ in range(6):
                t = rec.Thread(target=lambda: None)
                t.start()
                t.join()
        trace = rec.trace()
        created = [
            int(r.target) for r in trace
            if r.primitive is Primitive.THR_CREATE and r.phase is Phase.RET
        ]
        joined = [
            int(r.target) for r in trace
            if r.primitive is Primitive.THR_JOIN and r.phase is Phase.RET
        ]
        assert created == joined == list(range(4, 10))
        assert {int(r.tid) for r in trace} == {1, *range(4, 10)}

    def test_thread_function_names_resolved(self):
        rec = PyThreadsRecorder("t")

        def my_worker():
            pass

        t = rec.Thread(target=my_worker)
        with rec.collecting():
            t.start()
            t.join()
        assert "my_worker" in rec.trace().meta.thread_functions.values()

    def test_events_outside_collection_ignored(self):
        rec = PyThreadsRecorder("t")
        lock = rec.Lock("m")
        with rec.collecting():
            pass
        lock.acquire()
        lock.release()
        assert len(rec.trace()) == 2  # just the collect markers


class TestLock:
    def test_acquire_release_recorded_with_source(self):
        rec = PyThreadsRecorder("t")
        lock = rec.Lock("m")
        with rec.collecting():
            with lock:
                pass
        trace = rec.trace()
        locks = [r for r in trace if r.primitive is Primitive.MUTEX_LOCK]
        unlocks = [r for r in trace if r.primitive is Primitive.MUTEX_UNLOCK]
        assert len(locks) == 2 and len(unlocks) == 2  # call + ret each
        assert locks[0].obj.name == "m"
        assert locks[0].source is not None

    def test_trylock_status(self):
        rec = PyThreadsRecorder("t")
        lock = rec.Lock("m")
        with rec.collecting():
            assert lock.acquire(blocking=False) is True
            assert lock.acquire(blocking=False) is False
            lock.release()
        rets = [
            r
            for r in rec.trace()
            if r.primitive is Primitive.MUTEX_TRYLOCK and r.phase is Phase.RET
        ]
        assert [r.status for r in rets] == [Status.OK, Status.BUSY]


class TestSemaphore:
    def test_init_count_recorded(self):
        rec = PyThreadsRecorder("t")
        with rec.collecting():
            sem = rec.Semaphore(3, "s")
            sem.acquire()
            sem.release()
        inits = [r for r in rec.trace() if r.primitive is Primitive.SEMA_INIT]
        assert inits and inits[0].arg == 3

    def test_wait_post_pairing(self):
        rec = PyThreadsRecorder("t")
        with rec.collecting():
            sem = rec.Semaphore(1, "s")
            sem.acquire()
            sem.release()
        prims = [r.primitive for r in rec.trace()]
        assert Primitive.SEMA_WAIT in prims and Primitive.SEMA_POST in prims


class TestCondition:
    def test_timedwait_timeout_status(self):
        rec = PyThreadsRecorder("t")
        with rec.collecting():
            cond = rec.Condition()
            with cond:
                cond.wait(timeout=0.002)
        rets = [
            r
            for r in rec.trace()
            if r.primitive is Primitive.COND_TIMEDWAIT and r.phase is Phase.RET
        ]
        assert rets and rets[0].status is Status.TIMEOUT

    def test_notify_all_recorded(self):
        rec = PyThreadsRecorder("t")
        cond = rec.Condition()
        done = threading.Event()

        def waiter():
            with cond:
                done.set()
                cond.wait(timeout=2)

        t = rec.Thread(target=waiter)
        with rec.collecting():
            t.start()
            done.wait()
            time.sleep(0.01)
            with cond:
                cond.notify_all()
            t.join()
        prims = [r.primitive for r in rec.trace()]
        assert Primitive.COND_BROADCAST in prims


class TestEndToEnd:
    def test_gil_trace_feeds_the_predictor(self):
        """Record a real GIL-serialised Python program and replay it.

        CPU-demand numbers from a GIL run are approximate (threads'
        wall-clock windows overlap under the 5 ms switch interval — the
        repro-band's "GIL distorts thread timing"), so this asserts the
        structural pipeline: the live trace compiles, replays on a
        multiprocessor model, and never predicts a slowdown.
        """
        rec = PyThreadsRecorder("gil-demo")

        def worker():
            _spin(0.02)

        threads = [rec.Thread(target=worker) for _ in range(2)]
        with rec.collecting():
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        trace = rec.trace()
        plan = compile_trace(trace)
        assert set(plan.steps) >= {1, 4, 5}
        res = predict(trace, SimConfig(cpus=2), plan=plan)
        assert 0 < res.makespan_us <= trace.duration_us * 1.10
        assert len(res.events) > 0

    def test_sleeping_threads_predicted_to_overlap(self):
        """Threads that wait (sleep/IO) release the GIL; their waits are
        genuinely overlappable and the prediction shows it."""
        rec = PyThreadsRecorder("sleepy")

        def worker():
            time.sleep(0.02)

        threads = [rec.Thread(target=worker) for _ in range(3)]
        with rec.collecting():
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        trace = rec.trace()
        res = predict(trace, SimConfig(cpus=4))
        # three 20ms waits overlap on 4 CPUs: well under the 60ms a
        # serial machine would need
        assert res.makespan_us < trace.duration_us * 1.05
        assert res.makespan_us < 45_000

    def test_patched_module_records_unmodified_code(self):
        rec = PyThreadsRecorder("patched")

        def unmodified():
            lock = threading.Lock()
            with lock:
                pass

        with rec.patched(), rec.collecting():
            unmodified()
        prims = [r.primitive for r in rec.trace()]
        assert Primitive.MUTEX_LOCK in prims
        # and the patch is gone afterwards
        assert threading.Lock().__class__.__module__ == "_thread"
