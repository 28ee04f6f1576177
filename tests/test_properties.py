"""Property-based tests over randomly generated programs.

Hypothesis drives :func:`repro.workloads.synthetic.random_program` through
the full pipeline and checks the invariants that must hold for *any*
well-formed program:

* machine limits — never more running threads than processors, never more
  on-LWP threads than LWPs;
* accounting — per-thread segments are non-overlapping and within the
  run, CPU busy time equals total running time, work is conserved between
  machines;
* pipeline — record → log → parse → compile → replay is lossless, and a
  uni-processor replay reproduces the monitored makespan;
* determinism — every stage is bit-stable for a fixed seed.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import SimConfig, compile_trace, predict
from repro.core.result import SegmentKind
from repro.program.uniexec import record_program, uniprocessor_config, unmonitored_run
from repro.recorder import logfile
from repro.visualizer.parallelism import ParallelismGraph
from repro.workloads.synthetic import random_program

_SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    # a failing draw prints its @reproduce_failure line, so a CI log
    # is enough to replay it
    print_blob=True,
)

_programs = st.builds(
    random_program,
    seed=st.integers(min_value=0, max_value=10_000),
    nthreads=st.integers(min_value=1, max_value=5),
    steps=st.integers(min_value=1, max_value=8),
    n_mutexes=st.integers(min_value=1, max_value=4),
    n_semas=st.integers(min_value=1, max_value=3),
    use_barriers=st.booleans(),
)

_cpus = st.integers(min_value=1, max_value=6)


def _spawn_join(seed):
    """The smallest generated program: main spawns and joins one child."""
    return random_program(
        seed=seed, nthreads=1, steps=1, n_mutexes=1, n_semas=1, use_barriers=False
    )


class TestMachineInvariants:
    @_SETTINGS
    @given(program=_programs, cpus=_cpus)
    def test_running_never_exceeds_cpus(self, program, cpus):
        res = unmonitored_run(program) if cpus == 1 else None
        from repro.program.mpexec import run_multiprocessor

        res = run_multiprocessor(program, SimConfig(cpus=cpus))
        graph = ParallelismGraph.from_result(res)
        assert graph.max_running() <= cpus

    @_SETTINGS
    @given(program=_programs, lwps=st.integers(min_value=1, max_value=3))
    def test_running_never_exceeds_lwps(self, program, lwps):
        from repro.program.mpexec import run_multiprocessor

        res = run_multiprocessor(program, SimConfig(cpus=8, lwps=lwps))
        graph = ParallelismGraph.from_result(res)
        assert graph.max_running() <= lwps

    @_SETTINGS
    @given(program=_programs, cpus=_cpus)
    def test_segments_sane_and_busy_time_consistent(self, program, cpus):
        from repro.program.mpexec import run_multiprocessor

        res = run_multiprocessor(program, SimConfig(cpus=cpus))
        running_total = 0
        for tid, segments in res.segments.items():
            prev_end = 0
            for seg in segments:
                assert 0 <= seg.start_us <= seg.end_us <= res.makespan_us
                assert seg.start_us >= prev_end
                prev_end = seg.end_us
                if seg.kind is SegmentKind.RUNNING:
                    running_total += seg.duration_us
                    assert seg.cpu is not None and 0 <= seg.cpu < cpus
        assert running_total == res.total_cpu_time_us()

    @_SETTINGS
    @given(program=_programs, cpus=_cpus)
    def test_events_well_formed(self, program, cpus):
        from repro.program.mpexec import run_multiprocessor

        res = run_multiprocessor(program, SimConfig(cpus=cpus))
        for ev in res.events:
            assert 0 <= ev.start_us <= ev.end_us <= res.makespan_us
            assert int(ev.tid) in {int(t) for t in res.summaries}


class TestWorkConservation:
    @_SETTINGS
    @given(program=_programs, cpus=st.integers(min_value=2, max_value=6))
    def test_more_cpus_never_slower_without_timeslice_effects(self, program, cpus):
        # not strictly guaranteed in general schedulers, but holds for the
        # deadlock-free fork/join programs the generator emits
        from repro.program.mpexec import run_multiprocessor

        uni = run_multiprocessor(program, uniprocessor_config())
        mp = run_multiprocessor(program, SimConfig(cpus=cpus))
        assert mp.makespan_us <= uni.makespan_us * 1.05

    @_SETTINGS
    @given(program=_programs, cpus=_cpus)
    @example(program=_spawn_join(904), cpus=1)
    @example(program=_spawn_join(2276), cpus=1)
    def test_speedup_bounded_by_machine(self, program, cpus):
        # Both sides in one LWP regime (an LWP per thread).  Against the
        # one-LWP uniprocessor the bound does not hold: that run pays
        # user-level thread switches which the paper's model makes free
        # once each thread has its own LWP (see TestLwpSwitchApproximation).
        from repro.program.mpexec import run_multiprocessor

        one = run_multiprocessor(program, SimConfig(cpus=1))
        mp = run_multiprocessor(program, SimConfig(cpus=cpus))
        assert one.makespan_us / max(1, mp.makespan_us) <= cpus * 1.05


class TestLwpSwitchApproximation:
    """The §6 approximation, pinned where it shows.

    ``lwp_switch_us=0``: the paper's simulator does not charge an LWP
    context switch on a multiprocessor.  A one-child spawn-and-join
    program on one CPU therefore runs faster with an LWP per thread than
    on the Recorder's single LWP, which pays two ``thread_switch_us``
    charges.  Charging the LWP switch closes the gap.
    """

    @pytest.mark.parametrize(
        "seed, one_lwp_us, lwp_per_thread_us", [(904, 323, 303), (2276, 233, 213)]
    )
    def test_one_cpu_beats_one_lwp_by_the_uncharged_switches(
        self, seed, one_lwp_us, lwp_per_thread_us
    ):
        from repro.program.mpexec import run_multiprocessor
        from repro.solaris.costs import CostModel

        def makespan(config):
            return run_multiprocessor(_spawn_join(seed), config).makespan_us

        assert makespan(uniprocessor_config()) == one_lwp_us
        assert makespan(SimConfig(cpus=1)) == lwp_per_thread_us
        charged = CostModel(lwp_switch_us=10)
        assert makespan(uniprocessor_config(SimConfig(costs=charged))) == one_lwp_us
        assert makespan(SimConfig(cpus=1, costs=charged)) == one_lwp_us


class TestPipelineInvariants:
    @_SETTINGS
    @given(program=_programs)
    def test_uniprocessor_replay_reproduces_monitored_run(self, program):
        # replay is not bit-identical (try-operation pinning and context
        # switch placement differ by a few ops), but must track the
        # monitored makespan closely: 5% plus a couple of hundred µs of
        # absolute slack for sub-millisecond programs
        run = record_program(program, overhead_us=0)
        replay = predict(run.trace, uniprocessor_config())
        assert replay.makespan_us == pytest.approx(
            run.monitored_makespan_us, rel=0.05, abs=200
        )

    @_SETTINGS
    @given(program=_programs, cpus=_cpus)
    def test_log_roundtrip_lossless_for_prediction(self, program, cpus):
        run = record_program(program)
        reparsed = logfile.loads(logfile.dumps(run.trace))
        a = predict(run.trace, SimConfig(cpus=cpus))
        b = predict(reparsed, SimConfig(cpus=cpus))
        assert a.makespan_us == b.makespan_us

    @_SETTINGS
    @given(program=_programs)
    def test_recording_deterministic(self, program):
        a = record_program(program)
        b = record_program(program)
        assert logfile.dumps(a.trace) == logfile.dumps(b.trace)

    @_SETTINGS
    @given(program=_programs, cpus=_cpus)
    def test_replay_deterministic(self, program, cpus):
        run = record_program(program)
        plan = compile_trace(run.trace)
        a = predict(run.trace, SimConfig(cpus=cpus), plan=plan)
        b = predict(run.trace, SimConfig(cpus=cpus), plan=plan)
        assert a.makespan_us == b.makespan_us
        assert [e.start_us for e in a.events] == [e.start_us for e in b.events]

    @_SETTINGS
    @given(program=_programs)
    def test_every_recorded_thread_replayed(self, program):
        run = record_program(program)
        plan = compile_trace(run.trace)
        res = predict(run.trace, SimConfig(cpus=4), plan=plan)
        assert {int(t) for t in res.summaries} == set(plan.steps)
