"""The replay interpreter on small programs, perturbed plans and runs
that end early.

Each test replays ``fixture/...`` cells of the golden replay digest
(:mod:`tests.test_replay_digest`, which builds them) and holds each to
its pinned answer: makespan, engine events, the sha256 over segments,
placed events and summaries, and for a run that ends early its
:class:`~repro.core.result.Incompleteness`.  The digest test replays
every cell at once; these name the input that moved and check what a
degraded run must diagnose.  The inputs, and the test names, are those
the compiled interpreter was once compared on against an object-walking
reference replay; the pinned answers are the ones both gave.
"""

from __future__ import annotations

import json

import pytest

from repro import SimConfig
from repro.core.errors import ProgramError
from repro.core.result import RunStatus
from repro.core.simulator import _OPCODE_OF, ReplayPlan, ReplayThreadMeta, Simulator
from repro.program import ops as op_mod
from repro.program.behavior import Step

from tests.test_replay_digest import FIXTURE_MODELS, GOLDEN, answer, fixture_cells, replay


@pytest.fixture(scope="module")
def cells():
    return {cell[0]: cell for cell in fixture_cells()}


@pytest.fixture(scope="module")
def pinned(cells):
    """Replay fixture cell *label*, check it against the golden digest
    and return the result."""
    golden = json.loads(GOLDEN.read_text())["cells"]

    def check(label: str):
        label = f"fixture/{label}"
        result = replay(cells[label])
        assert answer(result) == golden[label], label
        return result

    return check


class TestFixtureParity:
    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_prodcons(self, pinned, cpus):
        pinned(f"prodcons/{cpus}cpu")

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_barrier(self, pinned, cpus):
        pinned(f"barrier/{cpus}cpu")

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_mutex_hammer(self, pinned, cpus):
        pinned(f"mutex/{cpus}cpu")

    def test_fig2(self, pinned):
        pinned("fig2/2cpu")

    @pytest.mark.parametrize("name,nthreads,scale", FIXTURE_MODELS)
    def test_splash_models(self, pinned, name, nthreads, scale):
        for cpus in (1, 4):
            pinned(f"{name}-{nthreads}t/{cpus}cpu")


class TestConfigGridParity:
    """Bindings, pinning, comm-delay, pool limits, FIFO scheduling."""

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("comm_delay_us", [0, 40])
    def test_comm_delay_grid(self, pinned, cpus, comm_delay_us):
        pinned(f"prodcons/{cpus}cpu/comm={comm_delay_us}us")

    def test_bound_thread(self, pinned):
        pinned("prodcons/2cpu/bound-T4")

    def test_pinned_thread(self, pinned):
        pinned("barrier/2cpu/pinned-T4")

    def test_rt_thread(self, pinned):
        pinned("barrier/2cpu/rt-T5")

    def test_small_lwp_pool(self, pinned):
        pinned("prodcons/2cpu/lwps=1")

    def test_no_time_slicing(self, pinned):
        pinned("mutex/2cpu/no-slicing")


class TestSchedulerBackendParity:
    """Every kernel backend dispatches the replay through the same
    backend-bound mechanism hooks."""

    @pytest.mark.parametrize("scheduler", ["solaris", "clutch", "cfs"])
    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_backend_grid(self, pinned, scheduler, cpus):
        pinned(f"prodcons/{cpus}cpu/{scheduler}")

    @pytest.mark.parametrize("scheduler", ["clutch", "cfs"])
    def test_backend_with_rt_thread(self, pinned, scheduler):
        pinned(f"barrier/2cpu/rt-T5/{scheduler}")

    @pytest.mark.parametrize("scheduler", ["clutch", "cfs"])
    def test_backend_small_pool_and_delay(self, pinned, scheduler):
        pinned(f"prodcons/2cpu/lwps=2,comm=40us/{scheduler}")


class TestPerturbedParity:
    def test_clock_skew(self, pinned):
        assert not pinned("prodcons-skew/2cpu").incomplete

    def test_stalled_threads(self, pinned):
        assert not pinned("barrier-stall/2cpu").incomplete

    def test_dropped_wakeups_degrade_identically(self, pinned):
        """A trace missing wake-ups deadlocks, diagnosed at a pinned point."""
        result = pinned("prodcons-dropped/2cpu")
        assert result.status is RunStatus.DEADLOCK

    def test_deadlock_diagnosis_identical(self, pinned):
        result = pinned("deadlock-log/2cpu")
        assert result.status is RunStatus.DEADLOCK
        assert sorted(result.incompleteness.cycle) == [4, 5]


class TestWatchdogParity:
    """Budget trips land on a pinned engine event."""

    @pytest.mark.parametrize("fraction", [0.25, 0.5, 0.9])
    def test_event_budget_trips_identically(self, pinned, fraction):
        result = pinned(f"prodcons/2cpu/max-events={fraction:.0%}")
        assert result.status is RunStatus.BUDGET

    def test_simulated_time_budget_trips_identically(self, pinned):
        assert pinned("barrier/2cpu/max-time=5000us").status is RunStatus.BUDGET


# ---------------------------------------------------------------------------
# one handler table
# ---------------------------------------------------------------------------


class _Unhandled(op_mod.Op):
    """An Op subclass outside the simulator's vocabulary."""


class TestOneHandlerTable:
    def test_fast_path_dispatches_to_the_shared_handlers(self, cells):
        sim = Simulator(SimConfig(cpus=2))
        sim.run_replay(cells["fixture/prodcons/2cpu"][1])
        assert list(_OPCODE_OF) == list(Simulator._HANDLERS)
        for cls, handler in Simulator._HANDLERS.items():
            assert sim._fh[_OPCODE_OF[cls]].__func__ is handler, cls.__name__

    def test_unhandled_op_does_not_lower(self):
        """Building the plan rejects the op, before any replay."""
        main = [Step(10, _Unhandled()), Step(0, op_mod.ThrExit())]
        with pytest.raises(ProgramError, match="unhandled op _Unhandled"):
            ReplayPlan(steps={1: main}, meta={1: ReplayThreadMeta(1, "main")})
