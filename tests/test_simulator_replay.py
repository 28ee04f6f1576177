"""Tests of replay-specific simulator paths (§3.2/§6 rules in action)."""

import pytest

from repro import Program, SimConfig, compile_trace, predict, record_program
from repro.core.events import Primitive, Status
from repro.core.ids import MAIN_THREAD_ID
from repro.core.simulator import ReplayPlan, ReplayThreadMeta, Simulator
from repro.program import ops as op
from repro.program.behavior import Step
from repro.solaris import costs as costs_mod

FREE = costs_mod.free()


def run_plan(steps_by_tid, meta=None, *, cpus=2, costs=FREE):
    plan = ReplayPlan(
        steps={tid: list(steps) for tid, steps in steps_by_tid.items()},
        meta=meta or {},
    )
    sim = Simulator(SimConfig(cpus=cpus, costs=costs))
    return sim.run_replay(plan)


class TestHandAuthoredPlans:
    def test_minimal_plan(self):
        res = run_plan({1: [Step(100, op.ThrExit())]})
        assert res.makespan_us == 100

    def test_plan_without_main_rejected(self):
        from repro.core.errors import SimulationError

        with pytest.raises(SimulationError):
            run_plan({4: [Step(0, op.ThrExit())]})

    def test_probe_on_replay_rejected(self):
        from repro.core.errors import SimulationError
        from repro.recorder.recorder import Recorder

        plan = ReplayPlan(steps={1: [Step(100, op.ThrExit())]}, meta={})
        sim = Simulator(SimConfig(cpus=1), probe=Recorder("a.out"))
        with pytest.raises(SimulationError, match="cannot carry a probe"):
            sim.run_replay(plan)

    def test_create_spawns_replay_thread(self):
        res = run_plan(
            {
                1: [
                    Step(0, op.ThrCreate(replay_tid=4)),
                    Step(0, op.ThrJoin(4)),
                    Step(0, op.ThrExit()),
                ],
                4: [Step(500, op.ThrExit())],
            }
        )
        assert res.makespan_us == 500
        assert set(int(t) for t in res.summaries) == {1, 4}

    def test_create_unknown_tid_rejected(self):
        from repro.core.errors import SimulationError

        with pytest.raises(SimulationError):
            run_plan({1: [Step(0, op.ThrCreate(replay_tid=9)), Step(0, op.ThrExit())]})

    def test_forced_timeout_is_pure_delay(self):
        # §3.2: a timed-out cond_timedwait replays as a delay — nothing
        # touches the condition variable, the thread just sleeps
        res = run_plan(
            {
                1: [
                    Step(
                        0,
                        op.CondTimedWait(
                            "c", "m", timeout_us=750, forced_timeout=True
                        ),
                    ),
                    Step(0, op.ThrExit()),
                ]
            }
        )
        assert res.makespan_us == 750
        ev = [e for e in res.events if e.primitive is Primitive.COND_TIMEDWAIT][0]
        assert ev.status is Status.TIMEOUT

    def test_noop_records_event_without_semantics(self):
        from repro.core.ids import SyncObjectId

        res = run_plan(
            {
                1: [
                    Step(
                        10,
                        op.Noop(
                            noop_primitive=Primitive.MUTEX_TRYLOCK,
                            noop_obj=SyncObjectId("mutex", "m"),
                            busy=True,
                        ),
                    ),
                    Step(0, op.MutexLock("m")),  # must not block: noop left m free
                    Step(0, op.MutexUnlock("m")),
                    Step(0, op.ThrExit()),
                ]
            }
        )
        trylock = [e for e in res.events if e.primitive is Primitive.MUTEX_TRYLOCK]
        assert trylock and trylock[0].status is Status.BUSY

    def test_barrier_broadcast_quota(self):
        # the §6 heuristic: broadcaster waits for its quota of waiters
        res = run_plan(
            {
                1: [
                    Step(0, op.ThrCreate(replay_tid=4)),
                    Step(0, op.ThrCreate(replay_tid=5)),
                    Step(0, op.ThrJoin(4)),
                    Step(0, op.ThrJoin(5)),
                    Step(0, op.ThrExit()),
                ],
                # the broadcaster arrives *first* in this schedule
                4: [
                    Step(0, op.MutexLock("bm")),
                    Step(0, op.CondBroadcast("bc", expected_waiters=1)),
                    Step(0, op.MutexUnlock("bm")),
                    Step(0, op.ThrExit()),
                ],
                5: [
                    Step(1_000, op.MutexLock("bm")),
                    Step(0, op.CondWait("bc", "bm")),
                    Step(0, op.MutexUnlock("bm")),
                    Step(0, op.ThrExit()),
                ],
            },
            cpus=2,
        )
        # both complete: the broadcaster waited for the late waiter
        assert res.makespan_us >= 1_000

    def test_replay_meta_binds_threads(self):
        # thread flagged bound in the log gets its dedicated LWP (and the
        # x6.7 creation cost with real cost models)
        meta = {4: ReplayThreadMeta(tid=4, func_name="w", bound=True)}
        res = run_plan(
            {
                1: [
                    Step(0, op.ThrCreate(replay_tid=4, bound=True)),
                    Step(0, op.ThrJoin(4)),
                    Step(0, op.ThrExit()),
                ],
                4: [Step(100, op.ThrExit())],
            },
            meta=meta,
        )
        assert res.summaries[[t for t in res.summaries if int(t) == 4][0]].func_name == "w"

    def test_wildcard_join_may_reap_any_thread(self):
        # §6: the wildcard "may not be the one that exited in the log"
        res = run_plan(
            {
                1: [
                    Step(0, op.ThrCreate(replay_tid=4)),
                    Step(0, op.ThrCreate(replay_tid=5)),
                    Step(0, op.ThrJoin(None)),
                    Step(0, op.ThrJoin(None)),
                    Step(0, op.ThrExit()),
                ],
                4: [Step(300, op.ThrExit())],
                5: [Step(100, op.ThrExit())],
            },
            cpus=4,
        )
        joins = [e for e in res.events if e.primitive is Primitive.THR_JOIN]
        # the faster thread (T5) is reaped first
        assert int(joins[0].target) == 5


class TestBoundThreadsEndToEnd:
    def test_bound_flag_survives_record_and_replay(self):
        def w(ctx):
            yield op.Compute(1_000)

        def main(ctx):
            t = yield op.ThrCreate(w, bound=True)
            yield op.ThrJoin(t)

        run = record_program(Program("b", main))
        plan = compile_trace(run.trace)
        assert plan.meta[4].bound is True
        creates = [s.op for s in plan.steps[1] if isinstance(s.op, op.ThrCreate)]
        assert creates[0].bound is True

    def test_bound_replay_costs_more_than_unbound(self):
        def w(ctx):
            for _ in range(5):
                yield op.Compute(100)
                yield op.SemaPost("s")

        def make(bound):
            def main(ctx):
                t = yield op.ThrCreate(w, bound=bound)
                yield op.ThrJoin(t)

            return Program("b", main)

        bound_run = record_program(make(True))
        unbound_run = record_program(make(False))
        bound_res = predict(bound_run.trace, SimConfig(cpus=1))
        unbound_res = predict(unbound_run.trace, SimConfig(cpus=1))
        # x6.7 create and x5.9 sema costs show up in the replay too
        assert bound_res.makespan_us > unbound_res.makespan_us
