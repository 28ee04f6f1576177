"""Differential parity suite for the compiled-plan replay fast path.

The opcode interpreter (``replay_engine="fast"``) must produce
**bit-identical** :class:`SimulationResult`\\ s to the legacy ``Step``
walker (``replay_engine="legacy"``) — same placed events, segments,
summaries, makespan, engine event count, and the same
:class:`Incompleteness` diagnosis when a run degrades.  Every test here
replays one plan through both engines and compares the results with
``==``.

One sharp edge the helpers guard against: ``SimulationResult.__eq__``
compares ``config``, and every separately-constructed :class:`SimConfig`
owns its own :class:`DispatchTable` (identity equality).  Both engines
must therefore share **one** config object per compared pair.
"""

from __future__ import annotations

import pytest

from repro import SimConfig, record_program
from repro.core.config import ThreadPolicy
from repro.core.engine import Watchdog
from repro.core.errors import ProgramError, SimulationError
from repro.core.predictor import ReplayPlan, compile_trace
from repro.core.result import RunStatus
from repro.core.simulator import _OPCODE_OF, ReplayThreadMeta, Simulator
from repro.faultinject import drop_wakeups, skew_clock, stall_threads
from repro.program import ops as op_mod
from repro.program.behavior import Step
from repro.recorder import logfile
from repro.workloads import get_workload

from tests.conftest import (
    make_barrier_program,
    make_fig2_program,
    make_mutex_program,
    make_prodcons_program,
)
from tests.test_watchdog import DEADLOCK_LOG


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def run_pair(plan: ReplayPlan, config: SimConfig, **sim_kw):
    """Replay *plan* under both engines with the SAME config object."""
    legacy = Simulator(config, **sim_kw).run_replay(plan, replay_engine="legacy")
    fast_sim = Simulator(config, **sim_kw)
    fast = fast_sim.run_replay(plan, replay_engine="fast")
    # the fast interpreter must actually have engaged, or the test
    # silently compares legacy against itself
    assert fast_sim._fast, "fast path fell back to legacy"
    return legacy, fast


def assert_parity(plan: ReplayPlan, config: SimConfig, **sim_kw) -> None:
    legacy, fast = run_pair(plan, config, **sim_kw)
    assert legacy == fast


def plan_for(program) -> ReplayPlan:
    return compile_trace(record_program(program).trace)


# ---------------------------------------------------------------------------
# fixtures: plans for a spread of workload shapes
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def prodcons_plan():
    return plan_for(make_prodcons_program())


@pytest.fixture(scope="module")
def barrier_plan():
    return plan_for(make_barrier_program())


@pytest.fixture(scope="module")
def mutex_plan():
    return plan_for(make_mutex_program())


@pytest.fixture(scope="module")
def fig2_plan():
    return plan_for(make_fig2_program())


# ---------------------------------------------------------------------------
# fixture workloads x machine grid
# ---------------------------------------------------------------------------


class TestFixtureParity:
    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_prodcons(self, prodcons_plan, cpus):
        assert_parity(prodcons_plan, SimConfig(cpus=cpus))

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_barrier(self, barrier_plan, cpus):
        assert_parity(barrier_plan, SimConfig(cpus=cpus))

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_mutex_hammer(self, mutex_plan, cpus):
        assert_parity(mutex_plan, SimConfig(cpus=cpus))

    def test_fig2(self, fig2_plan):
        assert_parity(fig2_plan, SimConfig(cpus=2))

    @pytest.mark.parametrize("name,nthreads,scale", [
        ("prodcons", 4, 0.05),
        ("fft", 4, 0.05),
        ("lu", 2, 0.02),
        ("radix", 4, 0.05),
        ("water", 2, 0.02),
        ("ocean", 2, 0.02),
    ])
    def test_splash_models(self, name, nthreads, scale):
        wl = get_workload(name)
        plan = compile_trace(record_program(wl.make_program(nthreads, scale)).trace)
        for cpus in (1, 4):
            assert_parity(plan, SimConfig(cpus=cpus))


class TestConfigGridParity:
    """Bindings, pinning, comm-delay, pool limits, FIFO scheduling."""

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("comm_delay_us", [0, 40])
    def test_comm_delay_grid(self, prodcons_plan, cpus, comm_delay_us):
        assert_parity(
            prodcons_plan, SimConfig(cpus=cpus, comm_delay_us=comm_delay_us)
        )

    def test_bound_thread(self, prodcons_plan):
        cfg = SimConfig(cpus=2, thread_policies={4: ThreadPolicy(bound=True)})
        assert_parity(prodcons_plan, cfg)

    def test_pinned_thread(self, barrier_plan):
        cfg = SimConfig(cpus=2, thread_policies={4: ThreadPolicy(cpu=1)})
        assert_parity(barrier_plan, cfg)

    def test_rt_thread(self, barrier_plan):
        cfg = SimConfig(cpus=2, thread_policies={5: ThreadPolicy(rt_priority=10)})
        assert_parity(barrier_plan, cfg)

    def test_small_lwp_pool(self, prodcons_plan):
        assert_parity(prodcons_plan, SimConfig(cpus=2, lwps=1))

    def test_no_time_slicing(self, mutex_plan):
        assert_parity(mutex_plan, SimConfig(cpus=2, time_slicing=False))


class TestSchedulerBackendParity:
    """Each pluggable kernel backend keeps the fast path bit-identical
    to the legacy walker — the compiled interpreter dispatches through
    the same backend-bound mechanism hooks, so policy must never split
    the engines."""

    @pytest.mark.parametrize("scheduler", ["solaris", "clutch", "cfs"])
    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_backend_grid(self, prodcons_plan, scheduler, cpus):
        assert_parity(prodcons_plan, SimConfig(cpus=cpus, scheduler=scheduler))

    @pytest.mark.parametrize("scheduler", ["clutch", "cfs"])
    def test_backend_with_rt_thread(self, barrier_plan, scheduler):
        cfg = SimConfig(
            cpus=2,
            scheduler=scheduler,
            thread_policies={5: ThreadPolicy(rt_priority=10)},
        )
        assert_parity(barrier_plan, cfg)

    @pytest.mark.parametrize("scheduler", ["clutch", "cfs"])
    def test_backend_small_pool_and_delay(self, prodcons_plan, scheduler):
        assert_parity(
            prodcons_plan,
            SimConfig(cpus=2, lwps=2, comm_delay_us=40, scheduler=scheduler),
        )


# ---------------------------------------------------------------------------
# perturbed / degraded traces
# ---------------------------------------------------------------------------


class TestPerturbedParity:
    def test_clock_skew(self, prodcons_plan):
        skewed = skew_clock(prodcons_plan, seed=7, max_skew=0.2)
        assert skewed.fast_replayable()
        assert_parity(skewed, SimConfig(cpus=2))

    def test_stalled_threads(self, barrier_plan):
        stalled = stall_threads(barrier_plan, seed=3, stall_us=20_000)
        assert stalled.fast_replayable()
        assert_parity(stalled, SimConfig(cpus=2))

    def test_dropped_wakeups_degrade_identically(self):
        """A trace missing wake-ups deadlocks (or worse) — both engines
        must diagnose the same Incompleteness at the same point."""
        trace = record_program(make_prodcons_program()).trace
        damaged = drop_wakeups(trace, seed=1, fraction=1.0).trace
        plan = compile_trace(damaged)
        cfg = SimConfig(cpus=2)
        legacy, fast = run_pair(plan, cfg, strict=False)
        assert legacy == fast
        assert legacy.incompleteness == fast.incompleteness

    def test_deadlock_diagnosis_identical(self):
        plan = compile_trace(logfile.loads(DEADLOCK_LOG))
        cfg = SimConfig(cpus=2)
        legacy, fast = run_pair(plan, cfg, strict=False)
        assert legacy == fast
        assert legacy.status is RunStatus.DEADLOCK
        assert legacy.incompleteness.cycle == fast.incompleteness.cycle


class TestWatchdogParity:
    """Budget trips must land on exactly the same engine event."""

    @pytest.mark.parametrize("fraction", [0.25, 0.5, 0.9])
    def test_event_budget_trips_identically(self, prodcons_plan, fraction):
        full = Simulator(SimConfig(cpus=2)).run_replay(prodcons_plan)
        max_events = int(full.engine_events * fraction)
        cfg = SimConfig(cpus=2)
        legacy, fast = run_pair(
            prodcons_plan, cfg,
            watchdog=Watchdog(max_events=max_events), strict=False,
        )
        assert legacy == fast
        assert legacy.status is RunStatus.BUDGET
        assert legacy.engine_events == fast.engine_events

    def test_simulated_time_budget_trips_identically(self, barrier_plan):
        cfg = SimConfig(cpus=2)
        legacy, fast = run_pair(
            barrier_plan, cfg,
            watchdog=Watchdog(max_time_us=5_000), strict=False,
        )
        assert legacy == fast
        assert legacy.status is RunStatus.BUDGET


# ---------------------------------------------------------------------------
# engine selection and fallback
# ---------------------------------------------------------------------------


class TestEngineSelection:
    def test_fast_is_the_default(self, fig2_plan, monkeypatch):
        monkeypatch.delenv("VPPB_REPLAY", raising=False)
        sim = Simulator(SimConfig(cpus=2))
        sim.run_replay(fig2_plan)
        assert sim._fast

    def test_env_selects_legacy(self, fig2_plan, monkeypatch):
        monkeypatch.setenv("VPPB_REPLAY", "legacy")
        sim = Simulator(SimConfig(cpus=2))
        sim.run_replay(fig2_plan)
        assert not sim._fast

    def test_argument_overrides_env(self, fig2_plan, monkeypatch):
        monkeypatch.setenv("VPPB_REPLAY", "legacy")
        sim = Simulator(SimConfig(cpus=2))
        sim.run_replay(fig2_plan, replay_engine="fast")
        assert sim._fast

    def test_unknown_engine_rejected(self, fig2_plan):
        sim = Simulator(SimConfig(cpus=2))
        with pytest.raises(SimulationError, match="unknown replay engine"):
            sim.run_replay(fig2_plan, replay_engine="turbo")

    def test_mutated_plan_falls_back(self, fig2_plan):
        """In-place step mutation invalidates the lowering; the fast
        request silently degrades to the (correct) object walker."""
        plan = compile_trace(record_program(make_fig2_program()).trace)
        steps = plan.steps[1]
        steps.append(steps[-1])
        assert not plan.fast_replayable()
        sim = Simulator(SimConfig(cpus=1))
        sim.run_replay(plan, replay_engine="fast")  # must not raise
        assert not sim._fast

    def test_event_count_matches_total_steps(self, prodcons_plan):
        assert prodcons_plan.event_count == prodcons_plan.total_steps()
        assert prodcons_plan.event_count > 0


# ---------------------------------------------------------------------------
# one handler table
# ---------------------------------------------------------------------------


class _Unhandled(op_mod.Op):
    """An Op subclass outside the simulator's vocabulary."""


class TestOneHandlerTable:
    def test_fast_path_dispatches_to_the_shared_handlers(self, prodcons_plan):
        sim = Simulator(SimConfig(cpus=2))
        sim.run_replay(prodcons_plan, replay_engine="fast")
        assert sim._fast
        assert list(_OPCODE_OF) == list(Simulator._HANDLERS)
        for cls, handler in Simulator._HANDLERS.items():
            assert sim._fh[_OPCODE_OF[cls]].__func__ is handler, cls.__name__

    def test_unhandled_op_does_not_lower(self):
        main = [Step(10, _Unhandled()), Step(0, op_mod.ThrExit())]
        plan = ReplayPlan(steps={1: main}, meta={1: ReplayThreadMeta(1, "main")})
        assert plan.compiled is None
        assert not plan.fast_replayable()
        assert plan.event_count == plan.total_steps() == 2
        for engine in ("fast", "legacy"):
            sim = Simulator(SimConfig(cpus=1))
            with pytest.raises(ProgramError, match="unhandled op _Unhandled"):
                sim.run_replay(plan, replay_engine=engine)
            assert not sim._fast
