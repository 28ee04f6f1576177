"""A rotated quantum expiry equals the general path it stands in for.

Under CFS and Clutch a quantum expiry that yields is rotated in place
(``Scheduler._rotate``): one backend call (``rotate_out``) requeues the
expiring LWP, and when the freed CPU is the only idle one and the head
of the backend's order may run there, a second (``rotate_in``) places
that head on it.  In every other case nothing is placed in place, and
the general ``_kernel_dispatch`` runs from its first pass.

These tests replay each input twice: once as shipped, once with the
backend's ``rotate_out``/``rotate_in`` set to None, so that every
yielding expiry takes ``_preempt`` + ``_kernel_dispatch``, the path
the rotation stands in for.  The two ``SimulationResult``s must be
equal, engine events included.  A spy checks that the in-place branch
and each fallback ran; one fallback no replay input reaches is driven
on hand-built LWPs.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro import SimConfig, record_program
from repro.core.config import ThreadPolicy
from repro.core.predictor import compile_trace
from repro.core.simulator import Simulator
from repro.sched.cfs import CfsBackend
from repro.sched.clutch import ClutchBackend
from repro.solaris.costs import CostModel
from repro.solaris.scheduler import Scheduler
from repro.workloads import get_workload

from tests.test_backend_decisions import Rig

WORKLOADS = ("water", "ocean", "prodcons")
CPUS = range(1, 8)
THREADS = 8
SCALE = 0.05
BACKENDS = {"cfs": CfsBackend, "clutch": ClutchBackend}


@pytest.fixture(scope="module")
def plans():
    out = {}
    for name in WORKLOADS:
        trace = record_program(get_workload(name).make_program(THREADS, SCALE, seed=0)).trace
        tids = sorted(int(t) for t in trace.thread_ids())
        out[name] = (compile_trace(trace), tids)
    return out


def variants(tids):
    """The configurations each input is replayed under, as
    ``(label, SimConfig keyword arguments)``."""
    workers = [t for t in tids if t != 1]
    return [
        ("unbound", {}),
        ("bound", {"thread_policies": {t: ThreadPolicy(bound=True) for t in tids}}),
        ("pin0", {"thread_policies": {workers[2]: ThreadPolicy(cpu=0)}}),
        ("pin1x2", {"thread_policies": {t: ThreadPolicy(cpu=1) for t in workers[:2]}}),
        ("rt", {"thread_policies": {
            workers[0]: ThreadPolicy(rt_priority=10),
            workers[1]: ThreadPolicy(rt_priority=20),
        }}),
        # RT slices short enough to expire: an RT LWP then heads the
        # queue at a rotation
        ("rt/1ms", {"rt_quantum_us": 1_000, "thread_policies": {
            workers[0]: ThreadPolicy(rt_priority=10),
            workers[1]: ThreadPolicy(rt_priority=20),
        }}),
        ("lwps=2", {"lwps": 2}),
        ("lwp_switch", {"costs": CostModel(lwp_switch_us=50)}),
    ]


def spy_on_rotations(monkeypatch, seen: Counter) -> None:
    """Count which branch each rotation took."""
    rotate, place = Scheduler._rotate, Scheduler._place

    def spied_rotate(self, lwp):
        idle = self._idle_cpus  # before the expiring LWP frees its CPU
        placed = seen["in place"]
        rotate(self, lwp)
        if idle:
            seen["fallback: several idle CPUs"] += 1
        elif seen["in place"] == placed:
            seen["fallback: head may not run on the freed CPU"] += 1

    def spied_place(self, lwp, cpu, rotate_in=None):
        if rotate_in is not None:
            seen["in place"] += 1
            seen["in place, RT head"] += lwp.rt
        place(self, lwp, cpu, rotate_in)

    monkeypatch.setattr(Scheduler, "_rotate", spied_rotate)
    monkeypatch.setattr(Scheduler, "_place", spied_place)


@pytest.mark.parametrize("scheduler", sorted(BACKENDS))
def test_rotation_equals_preempt_and_dispatch(plans, monkeypatch, scheduler):
    cells = [
        (f"{name}/{cpus}cpu/{label}", plan, SimConfig(cpus=cpus, scheduler=scheduler, **kw))
        for name, (plan, tids) in plans.items()
        for label, kw in variants(tids)
        for cpus in CPUS
        if not (label == "pin1x2" and cpus == 1)
    ]
    with monkeypatch.context() as m:
        m.setattr(BACKENDS[scheduler], "rotate_out", None)
        m.setattr(BACKENDS[scheduler], "rotate_in", None)
        reference = [Simulator(config).run_replay(plan) for _, plan, config in cells]

    seen: Counter = Counter()
    spy_on_rotations(monkeypatch, seen)
    for (label, plan, config), expected in zip(cells, reference):
        result = Simulator(config).run_replay(plan)
        assert result == expected, label
        assert result.engine_events == expected.engine_events, label

    assert seen["in place"] > 0
    assert seen["fallback: several idle CPUs"] > 0
    assert seen["fallback: head may not run on the freed CPU"] > 0
    if scheduler == "cfs":
        # RT LWPs are not in CFS's fair queue: rotate_in places an RT
        # head without dequeuing it
        assert seen["in place, RT head"] > 0


def clutch_head_may_take_a_lower_idle_cpu():
    """Two timeshare LWPs pinned to CPU 1 round-robin long enough to
    decay a level; a fresh unpinned LWP takes CPU 1 once they block, and
    they queue behind it when they wake.  When CPU 0 has gone idle too,
    the fresh LWP's expiry frees CPU 1 with CPU 0 idle, and the fresh
    LWP itself heads the queue: the general pass moves it to CPU 0, the
    lowest idle CPU, and gives CPU 1 to a pinned LWP."""
    rig = Rig("clutch", 2)
    rig.add("P", cpu=1)
    rig.add("Q", cpu=1)
    rig.add("Y", cpu=0)
    rig.run_until(40_000)
    rig.block_on(1)
    rig.block_on(1)
    rig.add("A")
    rig.wake("P")
    rig.wake("Q")
    rig.block("Y")
    rig.run_until(50_000)
    return rig.timeline


def test_a_head_with_several_idle_cpus_takes_the_lowest(monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(ClutchBackend, "rotate_out", None)
        m.setattr(ClutchBackend, "rotate_in", None)
        reference = clutch_head_may_take_a_lower_idle_cpu()
    seen: Counter = Counter()
    spy_on_rotations(monkeypatch, seen)
    timeline = clutch_head_may_take_a_lower_idle_cpu()
    assert timeline == reference
    assert seen["fallback: several idle CPUs"] == 1
    # A's expiry at 46,000 frees CPU 1 with CPU 0 idle: A moves to CPU 0
    assert timeline[-2:] == ["40000: - A@46000", "46000: A@~ P@52000"]
