"""A result's timeline is assembled on first read, once, from raw rows
that the result alone owns.

A prediction reads only the makespan, the engine event count and the
run status; segments, placed events, thread summaries and CPU busy time
are the Visualizer's, and are built only when something reads them.
"""

import gc
import types

import pytest

from repro import SimConfig, record_program
from repro.core import result as result_mod
from repro.core.predictor import compile_trace
from repro.core.result import ResultBuilder, RunStatus
from repro.core.simulator import Simulator
from repro.solaris.thread_model import ThreadState
from repro.workloads import get_workload
from tests.conftest import make_prodcons_program


@pytest.fixture(scope="module")
def plan():
    return compile_trace(record_program(make_prodcons_program()).trace)


@pytest.fixture
def builds(monkeypatch):
    """Counts timeline assemblies."""
    calls = []
    assemble = result_mod._assemble

    def counting(*args):
        calls.append(args)
        return assemble(*args)

    monkeypatch.setattr(result_mod, "_assemble", counting)
    return calls


class TestOnDemand:
    def test_prediction_fields_do_not_build_the_timeline(self, plan, builds):
        res = Simulator(SimConfig(cpus=2)).run_replay(plan)
        assert res.makespan_us > 0
        assert res.engine_events > 0
        assert res.status is RunStatus.COMPLETE
        assert res.incompleteness is None
        assert res.speedup_vs(2 * res.makespan_us) == 2.0
        assert builds == []

    def test_first_read_builds_once_and_later_reads_share_it(self, plan, builds):
        res = Simulator(SimConfig(cpus=2)).run_replay(plan)
        segments = res.segments
        assert len(builds) == 1
        events, summaries, busy = res.events, res.summaries, res.cpu_busy_us
        assert res.segments is segments
        assert res.events is events
        assert res.summaries is summaries
        assert res.cpu_busy_us is busy
        assert res.total_cpu_time_us() == sum(busy)
        assert len(builds) == 1

    def test_equality_compares_timelines(self, plan):
        config = SimConfig(cpus=1)

        def built(flips):
            b = ResultBuilder(config)
            b.flips.extend(flips)
            return b.build(makespan_us=10, threads=[])

        running = ThreadState.RUNNING
        assert built([(4, running, 0, 0)]) == built([(4, running, 0, 0)])
        # same makespan, config and event count: only the timelines differ
        assert built([(4, running, 0, 0)]) != built([(4, running, 2, 0)])

        config = SimConfig(cpus=2)
        a = Simulator(config).run_replay(plan)
        b = Simulator(config).run_replay(plan)
        a.segments  # one side built, the other still raw
        assert a == b

    def test_result_alone_owns_the_rows(self, plan):
        sim = Simulator(SimConfig(cpus=2))  # kept alive, with its cycles
        res = sim.run_replay(plan)
        raw = res._raw
        for i in (0, 1):  # the flip log, the event rows
            holders = [
                r for r in gc.get_referrers(raw[i])
                if not isinstance(r, types.FrameType)
            ]
            assert len(holders) == 1 and holders[0] is raw
        del raw
        res.events
        assert res._raw is None  # building released the rows


class TestPartialRun:
    def test_open_running_stretch_is_busy_time_but_not_work(self):
        """A RUNNING stretch still open when a partial run stops is
        closed at the makespan and counted in the CPU busy time, but not
        in the thread's work."""
        program = get_workload("water").make_program(8, 0.05, seed=0)
        plan = compile_trace(record_program(program).trace)
        res = Simulator(SimConfig(cpus=4), max_events=300, strict=False).run_replay(
            plan
        )
        assert res.status is RunStatus.LIVELOCK
        work = sum(s.work_us for s in res.summaries.values())
        assert sum(res.cpu_busy_us) - work == 92
