"""Tests for the extension features: POSIX names, I/O modeling, the
excluded-workload failure modes, what-if sweeps and the stats view."""

from dataclasses import replace

import pytest

from repro import Program, SimConfig, predict, record_program
from repro.analysis import find_knee, lwp_sensitivity, speedup_curve
from repro.core.config import ThreadPolicy
from repro.core.errors import MonitorabilityError
from repro.core.events import Phase, Primitive, Status
from repro.program import ops as op
from repro.program.mpexec import run_multiprocessor
from repro.program.uniexec import record_program as record
from repro.recorder import logfile
from repro.recorder.posix import (
    POSIX_NAMES,
    from_posix_name,
    primitive_for_name,
    to_posix_name,
)
from repro.visualizer import format_thread_stats, thread_stats
from repro.workloads import get_workload
from repro.workloads.excluded import (
    make_spinner,
    make_task_stealer,
    stealing_degeneracy,
    work_distribution,
)
from tests.conftest import make_barrier_program, make_fig2_program


class TestPosixNames:
    def test_every_library_primitive_has_a_posix_name(self):
        from repro.core.events import ACCESS_PRIMITIVES

        # markers and access probes are recorder instrumentation, not
        # thread-library calls — they have no POSIX spelling
        markers = {
            Primitive.START_COLLECT,
            Primitive.END_COLLECT,
            Primitive.THREAD_START,
            Primitive.IO_WAIT,
        } | set(ACCESS_PRIMITIVES)
        for prim in Primitive:
            if prim in markers:
                continue
            assert prim in POSIX_NAMES, prim

    def test_roundtrip(self):
        for prim, name in POSIX_NAMES.items():
            assert from_posix_name(name) is prim
            assert to_posix_name(prim) == name

    def test_primitive_for_name_accepts_both(self):
        assert primitive_for_name("mutex_lock") is Primitive.MUTEX_LOCK
        assert primitive_for_name("pthread_mutex_lock") is Primitive.MUTEX_LOCK
        assert primitive_for_name("warp_drive") is None

    def test_markers_keep_native_names(self):
        assert to_posix_name(Primitive.START_COLLECT) == "start_collect"

    def test_posix_log_roundtrips(self):
        run = record(make_fig2_program(1_000))
        text = logfile.dumps(run.trace, posix_names=True)
        assert "pthread_create" in text and "thr_create" not in text
        back = logfile.loads(text)
        assert list(back) == list(run.trace)

    def test_posix_log_predicts_identically(self):
        run = record(make_barrier_program(nthreads=2, iters=1))
        posix = logfile.loads(logfile.dumps(run.trace, posix_names=True))
        a = predict(run.trace, SimConfig(cpus=2))
        b = predict(posix, SimConfig(cpus=2))
        assert a.makespan_us == b.makespan_us


class TestIoModeling:
    def _io_program(self, nthreads=3, io_us=5_000):
        def worker(ctx):
            yield op.Compute(1_000)
            yield op.IoWait(io_us)
            yield op.Compute(1_000)

        def main(ctx):
            tids = []
            for _ in range(nthreads):
                tids.append((yield op.ThrCreate(worker)))
            for t in tids:
                yield op.ThrJoin(t)

        return Program("io", main)

    def test_io_recorded_with_duration(self):
        run = record(self._io_program())
        ios = [r for r in run.trace if r.primitive is Primitive.IO_WAIT]
        assert len(ios) == 6  # call + ret per thread
        calls = [r for r in ios if r.phase is Phase.CALL]
        assert all(r.arg == 5_000 for r in calls)

    def test_io_waits_overlap_on_the_monitored_run(self):
        # sleeping threads release the LWP, so even one processor
        # overlaps the waits (Solaris libthread's async-I/O behaviour)
        run = record(self._io_program(nthreads=4, io_us=20_000))
        serial = 4 * 22_000
        assert run.monitored_makespan_us < serial * 0.6

    def test_io_replay_reproduces_waits(self):
        run = record(self._io_program(), overhead_us=0)
        res = predict(run.trace, SimConfig(cpus=1, lwps=1))
        assert res.makespan_us == pytest.approx(
            run.monitored_makespan_us, rel=0.05
        )
        ios = [e for e in res.events if e.primitive is Primitive.IO_WAIT]
        assert all(e.duration_us >= 5_000 for e in ios)

    def test_io_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            op.IoWait(-1)

    def test_io_wait_roundtrips_through_logfile(self):
        run = record(self._io_program())
        back = logfile.loads(logfile.dumps(run.trace))
        assert any(r.primitive is Primitive.IO_WAIT for r in back)


class TestExcludedWorkloads:
    def test_spinner_unmonitorable(self):
        # §4: Barnes et al. "could not run in one single LWP"
        with pytest.raises(MonitorabilityError):
            record(make_spinner(), max_events=100_000)

    def test_spinner_fine_on_a_real_multiprocessor(self):
        # the *program* is fine — only the monitoring regime fails
        res = run_multiprocessor(make_spinner(), SimConfig(cpus=2))
        assert res.makespan_us > 0

    def test_task_stealer_degenerates_on_one_lwp(self):
        # §4: "only one thread steals all tasks"
        run = record(make_task_stealer(nthreads=4, scale=0.5))
        degeneracy = stealing_degeneracy(run.trace)
        assert degeneracy > 0.9, f"only {degeneracy:.0%} taken by one thread"

    def test_task_stealer_balanced_on_a_real_machine(self):
        res = run_multiprocessor(
            make_task_stealer(nthreads=4, scale=0.5), SimConfig(cpus=4)
        )
        # on 4 CPUs the pool is shared: every worker gets a decent cut
        # (counted in the program's own shared state)
        assert res.makespan_us > 0

    def test_work_distribution_counts_pool_accesses(self):
        run = record(make_task_stealer(nthreads=2, scale=0.3))
        counts = work_distribution(run.trace)
        # every task take and every final failed take goes via the pool
        assert sum(counts.values()) >= 2

    def test_prediction_misleads_for_stealing_programs(self):
        """The reason the paper excludes them: the degenerate log makes
        the prediction useless (it predicts ~no speed-up)."""
        from repro import predict_speedup
        from repro.program.mpexec import measure_speedup

        program = make_task_stealer(nthreads=4, scale=0.5)
        run = record(program)
        pred = predict_speedup(run.trace, 4)
        real = measure_speedup(program, 4, runs=3)
        # the real program scales fine; the prediction can't see it
        assert real.speedup > 2.0
        assert pred.speedup < real.speedup * 0.6


class TestWhatIf:
    @pytest.fixture(scope="class")
    def trace(self):
        return record(make_barrier_program(nthreads=4, iters=2)).trace

    def test_speedup_curve_monotone(self, trace):
        curve = speedup_curve(trace, 6)
        assert len(curve) == 6
        speeds = [p.speedup for p in curve]
        assert all(b >= a - 0.05 for a, b in zip(speeds, speeds[1:]))

    def test_find_knee_reasonable(self, trace):
        knee = find_knee(trace, target_fraction=0.8)
        assert 2 <= knee.cpus <= 8
        assert knee.fraction_of_bound >= 0.8

    def test_find_knee_validates_inputs(self, trace):
        with pytest.raises(ValueError):
            find_knee(trace, target_fraction=0.0)

    def test_find_knee_respects_max(self, trace):
        knee = find_knee(trace, target_fraction=1.0, max_cpus=2)
        assert knee.cpus <= 2

    def test_lwp_sensitivity(self, trace):
        makespans = lwp_sensitivity(trace, cpus=4, lwp_counts=(1, 4, None))
        assert makespans[1] >= makespans[4] * 0.99
        assert set(makespans) == {1, 4, None}

    def test_speedup_curve_rejects_bad_range(self, trace):
        with pytest.raises(ValueError):
            speedup_curve(trace, 0)

    @pytest.mark.parametrize(
        "cpus,policy,rt_quantum_us",
        [(4, ThreadPolicy(bound=True), 100_000), (2, ThreadPolicy(rt_priority=10), 1000)],
        ids=["all-bound", "rt"],
    )
    def test_lwp_sensitivity_keeps_the_base_config(self, cpus, policy, rt_quantum_us):
        trace = record(get_workload("prodcons").make_program(4, 0.05)).trace
        base = SimConfig(
            thread_policies={int(t): policy for t in trace.thread_ids()},
            rt_quantum_us=rt_quantum_us,
        )
        makespans = lwp_sensitivity(trace, cpus, (1, None), base_config=base)
        for lwps, makespan in makespans.items():
            config = replace(base, cpus=cpus, lwps=lwps)
            assert makespan == predict(trace, config).makespan_us


class TestStatsView:
    @pytest.fixture(scope="class")
    def result(self):
        run = record(make_barrier_program(nthreads=3, iters=2))
        return predict(run.trace, SimConfig(cpus=2))

    def test_decomposition_sums_to_lifetime(self, result):
        for s in thread_stats(result):
            assert s.lifetime_us == (
                s.running_us + s.runnable_us + s.blocked_us + s.sleeping_us
            )
            assert 0.0 <= s.utilisation <= 1.0

    def test_workers_present(self, result):
        stats = {s.tid: s for s in thread_stats(result)}
        assert set(stats) == {1, 4, 5, 6}
        assert stats[4].running_us > 0

    def test_format_table(self, result):
        text = format_thread_stats(result)
        assert "T1 main" in text and "util" in text

    def test_format_top_ranks_by_utilisation(self, result):
        text = format_thread_stats(result, top=1)
        # main mostly blocks on joins: worst utilisation
        assert "T1 main" in text
        assert "T4" not in text
