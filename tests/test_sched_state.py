"""Cached scheduler state never drifts from the state it caches.

The mechanism counts the run queue's contenders by class and affinity,
and the idle CPUs.  CFS keeps its fair queue in vruntime order, each
CPU's ``vruntime - charge stamp`` base, the contender count each
running slice was sized for, the instant at which ``min_vruntime``
last held the floor, and whether every running slice is sized for its
CPU's contenders.  Clutch keeps its queue in dispatch order and the
CPUs whose slice no re-tick can shorten.  Every one of them stands in
for a scan or a re-tick, so a copy that drifts changes answers only
where a replay happens to read it.

These tests step replays one engine event at a time and, after each
event, recompute every cached value from ``sched._runnable`` and
``sched.cpus``: counts and orders must be equal, and each armed-slice
record must not promise more than the armed timer holds: a re-tick it
lets ``on_contention`` skip would have been a no-op.

The mechanism also keeps no map of what is in flight: a thread's burst
event and an LWP's quantum event say themselves whether they are armed
(the engine disarms an event it runs).  So after every event a thread
must be RUNNING exactly when its burst event is armed, and an LWP ONPROC
under time slicing exactly when its quantum event is armed; the burst
and quantum remainders a preemption saves are read from those events.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro import SimConfig, record_program
from repro.core.config import ThreadPolicy
from repro.core.predictor import compile_trace
from repro.core.simulator import Simulator
from repro.sched.base import TICKLESS_SLICE_US
from repro.sched.cfs import _NO_FAIR, MIN_GRANULARITY_US, SCHED_LATENCY_US
from repro.sched.clutch import DECAY_SHIFT, MIN_RETICK_US, QUANTUM_US
from repro.solaris.lwp import LwpState
from repro.solaris.thread_model import ThreadState
from repro.workloads import get_workload

WORKLOADS = ("water", "ocean")
CPUS = (1, 2, 3, 4)
THREADS = 8
SCALE = 0.05


@pytest.fixture(scope="module")
def plans():
    out = {}
    for name in WORKLOADS:
        trace = record_program(get_workload(name).make_program(THREADS, SCALE, seed=0)).trace
        workers = [t for t in sorted(int(t) for t in trace.thread_ids()) if t != 1]
        out[name] = (compile_trace(trace), workers)
    return out


def _variant(variant: str, cpus: int, workers) -> SimConfig:
    if variant == "pinned":
        return SimConfig(cpus=cpus, thread_policies={workers[2]: ThreadPolicy(cpu=0)})
    if variant == "rt":
        return SimConfig(cpus=cpus, thread_policies={
            workers[0]: ThreadPolicy(rt_priority=10),
            workers[1]: ThreadPolicy(rt_priority=20),
        })
    if variant == "lwps=2":
        return SimConfig(cpus=cpus, lwps=2)
    if variant == "bound":
        return SimConfig(cpus=cpus, thread_policies={
            w: ThreadPolicy(bound=True) for w in workers
        })
    if variant == "no-slicing":
        return SimConfig(cpus=cpus, time_slicing=False)
    return SimConfig(cpus=cpus)


def _same(kept, expected) -> bool:
    return len(kept) == len(expected) and all(a is b for a, b in zip(kept, expected))


def _armed(ev) -> bool:
    return ev is not None and ev.armed


def check_mechanism(sched, threads, seen: Counter) -> None:
    queued = list(sched._runnable.values())
    pinned = [0] * len(sched.cpus)
    for lwp in queued:
        if not lwp.rt and lwp.bound_cpu is not None:
            pinned[lwp.bound_cpu] += 1
    assert sched.queued_rt == sum(1 for lwp in queued if lwp.rt)
    assert sched.queued_free == sum(
        1 for lwp in queued if not lwp.rt and lwp.bound_cpu is None
    )
    assert sched.queued_pinned == pinned
    assert sched._idle_cpus == sum(1 for cpu in sched.cpus if cpu.lwp is None)
    for cpu in sched.cpus:
        assert sched.has_contender(cpu.index) == any(
            lwp.bound_cpu is None or lwp.bound_cpu == cpu.index for lwp in queued
        )
    seen["rt queued"] += sched.queued_rt > 0
    seen["pinned queued"] += any(pinned)
    # each in-flight event is its own record
    for thread in threads:
        armed = _armed(thread.burst_event)
        assert armed == (thread.state is ThreadState.RUNNING), thread
        seen["burst armed"] += armed
    slicing = sched.config.time_slicing
    for lwp in sched.lwps + sched.retired_lwps:
        armed = _armed(lwp.quantum_event)
        assert armed == (slicing and lwp.state is LwpState.ONPROC), lwp
        seen["quantum armed"] += armed


def check_cfs(sched, seen: Counter) -> None:
    cfs = sched.backend
    now = sched.engine.now_us
    vr, since = cfs._vruntime, cfs._since_us
    fair = sorted(
        (lwp for lwp in sched._runnable.values() if not lwp.rt),
        key=lambda l: (vr[l.lwp_id], l.enqueue_seq),
    )
    assert _same(cfs._queue, fair)
    assert cfs._keys == [(vr[l.lwp_id], l.enqueue_seq) for l in fair]
    in_play = [vr[l.lwp_id] for l in fair]
    for cpu in sched.cpus:
        i, running = cpu.index, cpu.lwp
        if running is None or running.rt:
            assert (cfs._base_lo[i], cfs._base_hi[i]) == (_NO_FAIR, -_NO_FAIR)
            continue
        lid = running.lwp_id
        base = vr[lid] - since[lid]
        assert cfs._base_lo[i] == cfs._base_hi[i] == base
        in_play.append(base + now)
        sized = cfs._sized[i]
        if sized and _armed(running.quantum_event):
            slice_us = (
                TICKLESS_SLICE_US if sized == 1
                else max(MIN_GRANULARITY_US, SCHED_LATENCY_US // sized)
            )
            expiry = running.quantum_event.time_us
            assert expiry <= max(now + MIN_GRANULARITY_US, since[lid] + slice_us)
            seen["sized slice"] += 1
    if cfs._floor_at == now and in_play:
        assert cfs._min_vruntime >= min(in_play)
        seen["floor held"] += 1
    if cfs._all_sized:
        # on_contention may return at once: its loop would skip every CPU
        for cpu in sched.cpus:
            if cpu.lwp is not None and not cpu.lwp.rt:
                nr = 1 + sched.queued_free + sched.queued_pinned[cpu.index]
                assert nr == 1 or nr <= cfs._sized[cpu.index]
        seen["all sized"] += 1


def check_clutch(sched, seen: Counter) -> None:
    clutch = sched.backend
    now = sched.engine.now_us
    used = clutch._used_us

    def key(lwp):
        if lwp.rt:
            return (0, -lwp.kernel_priority, lwp.enqueue_seq)
        return (1, used.get(lwp.lwp_id, 0) >> DECAY_SHIFT, lwp.enqueue_seq)

    order = sorted(sched._runnable.values(), key=key)
    assert _same(clutch._queue, order)
    assert clutch._keys == [key(lwp) for lwp in order]
    for cpu in sched.cpus:
        running = cpu.lwp
        if running is None or running.rt or not clutch._settled[cpu.index]:
            continue
        if _armed(running.quantum_event):
            since = clutch._since_us[running.lwp_id]
            expiry = running.quantum_event.time_us
            assert expiry <= max(now + MIN_RETICK_US, since + QUANTUM_US)
            seen["settled slice"] += 1


def stepped_replay(plan, config: SimConfig, seen: Counter):
    """Replay *plan* one engine event at a time, checking the cached
    state after each; the answer must equal an unstepped replay's."""
    sim = Simulator(config)
    sched, engine = sim.scheduler, sim.engine
    check = {"cfs": check_cfs, "clutch": check_clutch}.get(config.scheduler)

    def run():
        while engine.step():
            check_mechanism(sched, sim.threads.values(), seen)
            if check is not None:
                check(sched, seen)
            seen["events"] += 1
        return engine.now_us

    engine.run = run
    result = sim.run_replay(plan)
    assert result == Simulator(config).run_replay(plan)
    return result


@pytest.mark.parametrize(
    "variant", ["plain", "pinned", "rt", "lwps=2", "bound", "no-slicing"]
)
@pytest.mark.parametrize("scheduler", ["solaris", "cfs", "clutch"])
def test_cached_state_matches_a_recount_after_every_event(plans, scheduler, variant):
    seen: Counter = Counter()
    for name in WORKLOADS:
        plan, workers = plans[name]
        for cpus in CPUS:
            config = _variant(variant, cpus, workers).with_scheduler(scheduler)
            stepped_replay(plan, config, seen)
    assert seen["events"] > 1_000
    assert seen["burst armed"] > 0
    # the branches the variant exists for were reached
    if variant == "rt":
        assert seen["rt queued"] > 0
    if variant == "pinned":
        assert seen["pinned queued"] > 0
    if variant == "no-slicing":
        return  # no quantum timer, so no armed-slice record to reach
    assert seen["quantum armed"] > 0
    if scheduler == "cfs":
        assert seen["sized slice"] > 0 and seen["floor held"] > 0
        assert seen["all sized"] > 0
    elif scheduler == "clutch":
        assert seen["settled slice"] > 0


@pytest.mark.parametrize("scheduler", ["cfs", "clutch"])
def test_a_slice_armed_mid_stretch_is_not_recorded(scheduler):
    """A thread handed to an LWP mid-slice is armed a fresh slice from
    now, not from the charge stamp ``on_contention`` measures from, so
    it may end after every re-tick target: the record must not vouch
    for it.  No replay input above reaches that hand-off (it needs a
    burst to end at the very instant its slice does), so the hook is
    called directly on a running LWP."""
    from tests.test_backend_decisions import Rig

    rig = Rig(scheduler, 1)
    rig.add("A")
    rig.add("B")
    rig.run_until(500)
    sched = rig.sched
    record = sched.backend._sized if scheduler == "cfs" else sched.backend._settled
    assert record[0]  # A's slice was re-ticked when B queued
    sched.backend.quantum_for(sched.cpus[0].lwp)
    assert not record[0]
