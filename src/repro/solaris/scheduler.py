"""The two-level scheduler *mechanism* (§3.2), policy supplied by a backend.

Scheduling happens at two levels, exactly as the paper describes:

* **user level** — unbound user threads are multiplexed on the process's
  pool of LWPs.  A thread keeps its LWP until it blocks at a
  synchronisation point (user-level scheduling is not time-sliced); when it
  blocks, the LWP immediately picks the highest-priority runnable unbound
  thread, or parks idle.
* **kernel level** — LWPs (kernel threads) are the only objects the
  operating system schedules.  *Which* LWP runs next, for how long, and at
  whose expense is decided by the configured
  :class:`~repro.sched.base.SchedulerBackend`
  (``SimConfig.scheduler``): the default ``"solaris"`` backend reproduces
  the paper's TS/RT dispatch bit-for-bit (priority aging by the dispatch
  table, sleep-return boosts, starvation lifts, priority preemption);
  ``"clutch"`` and ``"cfs"`` replay the same trace under XNU-Clutch-style
  and Linux-CFS-style kernels instead.

This class owns everything backend-independent: CPUs, the LWP pool,
burst/quantum event arming (each thread's burst event and each LWP's
quantum event are recycled, not reallocated), the runnable map,
block/wake plumbing and the atomic dispatch deferral.  The backend's hot
hooks are pre-bound to instance attributes in ``__init__`` — the same
handler-binding discipline the simulator's interpreter uses — so backend
dispatch adds one bound-method call, not an interface lookup, per
decision.

Threads bound to an LWP own a dedicated LWP for life; threads bound to a
CPU have that LWP pinned to the processor.  A wake-up that crosses CPUs is
delivered after the configured communication delay (§3.2: the delay
"affects how fast an event on one CPU is propagated to another CPU").

The scheduler is driven by, and reports to, the Simulator through the
narrow :class:`SchedulerListener` protocol and each thread's
``burst_action``, the closure a finished burst calls.  It records every thread-state
transition as one raw ``(tid, state, time, cpu)`` row in the
:class:`~repro.core.result.ResultBuilder`'s flip log and does no
accounting of its own: the result turns the log into the §3.3 graphs'
segments, per-CPU busy time and per-thread work only when the
Visualizer (or anything else) reads them.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Protocol, Tuple

from repro.core.config import SimConfig
from repro.core.engine import Engine, ScheduledEvent
from repro.core.errors import SimulationError
from repro.core.ids import LwpId
from repro.core.result import ResultBuilder
from repro.sched import create_backend
from repro.sched.base import SchedulerBackend
from repro.solaris.lwp import LwpState, SimLwp
from repro.solaris.sync import WaitQueue
from repro.solaris.thread_model import SimThread, ThreadState

__all__ = ["SchedulerListener", "Scheduler", "SimCpu"]

# the hot paths' states: reading a member through its Enum class runs
# the metaclass on every access (~85 ns on CPython 3.11), a module
# global does not
_QUEUED = LwpState.RUNNABLE
_ONPROC = LwpState.ONPROC
_RUNNABLE = ThreadState.RUNNABLE
_RUNNING = ThreadState.RUNNING


class SchedulerListener(Protocol):
    """The callback the Simulator implements.  A finished burst calls
    the thread's own ``burst_action`` instead."""

    def need_step(self, thread: SimThread) -> None:
        """*thread* is RUNNING with no burst in flight: feed it work (set
        ``thread.burst_action`` before its first :meth:`Scheduler.begin_burst`)."""


class SimCpu:
    """One processor of the simulated machine."""

    __slots__ = ("index", "lwp", "last_lwp_id")

    def __init__(self, index: int):
        self.index = index
        self.lwp: Optional[SimLwp] = None
        #: LWP that most recently ran here (kernel context-switch costs)
        self.last_lwp_id: Optional[int] = None

    @property
    def idle(self) -> bool:
        return self.lwp is None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CPU{self.index} {'idle' if self.idle else repr(self.lwp)}>"


class Scheduler:
    """Simulated two-level scheduling of threads on LWPs on CPUs."""

    def __init__(
        self,
        engine: Engine,
        config: SimConfig,
        builder: ResultBuilder,
        listener: SchedulerListener,
    ):
        self.engine = engine
        self.config = config
        #: the builder's flip log; the Simulator unbinds it once the
        #: result owns the log
        self._flips: Optional[list] = builder.flips
        self.listener = listener
        self.dispatch_table = config.dispatch
        self.costs = config.costs

        # kernel policy: resolved from the config, hooks pre-bound as
        # instance attributes (backend-dispatched handler bindings — the
        # interpreter's discipline applied to scheduling policy)
        backend = create_backend(config.scheduler)
        self.backend = backend
        backend.bind(self)
        self._setrun = backend.thread_setrun
        self._sched_tick = backend.sched_tick
        #: False when the backend keeps the base class's no-op tick
        #: (CFS, Clutch): the dispatch pass then skips the call
        self._ticks = type(backend).sched_tick is not SchedulerBackend.sched_tick
        self._select = backend.thread_select
        self._quantum_for = backend.quantum_for
        self._quantum_expire_policy = backend.quantum_expire
        self._quantum_yield = backend.quantum_yield
        self._pick_victim = backend.pick_victim
        # optional usage-accounting and run-queue hooks; None (the
        # Solaris case) keeps the stock paths free of extra calls
        self._on_dispatch = getattr(backend, "on_dispatch", None)
        self._on_deschedule = getattr(backend, "on_deschedule", None)
        self._on_contention = getattr(backend, "on_contention", None)
        self._on_enqueue = getattr(backend, "on_enqueue", None)
        self._on_dequeue = getattr(backend, "on_dequeue", None)

        self.cpus: List[SimCpu] = [SimCpu(i) for i in range(config.cpus)]
        #: how many CPUs run no LWP (a pass with none skips its idle scan)
        self._idle_cpus = config.cpus
        self.lwps: List[SimLwp] = []
        #: dedicated LWPs whose thread exited (kept for post-run statistics)
        self.retired_lwps: List[SimLwp] = []
        self._lwp_ids = itertools.count(1)
        self._seq = itertools.count()

        #: runnable unbound threads that have no LWP ("grey" in the graphs)
        self.user_queue = WaitQueue()
        #: idle LWPs of the unbound pool
        self._idle_pool: List[SimLwp] = []
        #: how many pool LWPs may exist; None = grow on demand
        self._pool_limit: Optional[int] = config.lwps
        self._pool_size = 0

        if config.lwps is not None:
            for _ in range(config.lwps):
                self._idle_pool.append(self._new_lwp(dedicated=False))

        # transient bookkeeping -------------------------------------------
        self._burst_events: Dict[int, Tuple[ScheduledEvent, int]] = {}
        self._quantum_events: Dict[int, Tuple[ScheduledEvent, int]] = {}
        self._switch_cost_pending: Dict[int, int] = {}
        #: dispatch deferral depth: >0 while an operation is being applied
        self._atomic_depth = 0
        self._dispatch_wanted = False
        #: LWPs currently in LwpState.RUNNABLE, keyed by lwp_id and kept in
        #: became-runnable order by _set_lwp_state; _kernel_dispatch and the
        #: quantum-expiry contender check consume it directly instead of
        #: scanning every LWP (dispatch order is unaffected: the dispatch
        #: sort key (-priority, enqueue_seq) is a total order)
        self._runnable: Dict[LwpId, SimLwp] = {}
        #: the run queue's contenders by class and affinity, kept with
        #: _runnable: queued RT LWPs, and queued time-sharing LWPs that
        #: may run on any CPU / that are pinned to each CPU
        self.queued_rt = 0
        self.queued_free = 0
        self.queued_pinned: List[int] = [0] * config.cpus

    # ------------------------------------------------------------------
    # small helpers
    # ------------------------------------------------------------------

    @property
    def now_us(self) -> int:
        return self.engine.now_us

    def _new_lwp(self, *, dedicated: bool, bound_cpu: Optional[int] = None) -> SimLwp:
        lwp = SimLwp(
            lwp_id=LwpId(next(self._lwp_ids)),
            dedicated=dedicated,
            kernel_priority=self.dispatch_table.initial_level(),
            bound_cpu=bound_cpu,
        )
        self.lwps.append(lwp)
        if not dedicated:
            self._pool_size += 1
        return lwp

    def _set_lwp_state(self, lwp: SimLwp, state: LwpState) -> None:
        """Single point for LWP state flips, keeping the runnable map
        and its contender counts, and telling a backend that keeps its
        own run queue."""
        old = lwp.state
        if old is not state:
            lwp.state = state
            if old is _QUEUED:
                del self._runnable[lwp.lwp_id]
                if lwp.rt:
                    self.queued_rt -= 1
                elif lwp.bound_cpu is None:
                    self.queued_free -= 1
                else:
                    self.queued_pinned[lwp.bound_cpu] -= 1
                if self._on_dequeue is not None:
                    self._on_dequeue(lwp)
            elif state is _QUEUED:
                self._runnable[lwp.lwp_id] = lwp
                if lwp.rt:
                    self.queued_rt += 1
                elif lwp.bound_cpu is None:
                    self.queued_free += 1
                else:
                    self.queued_pinned[lwp.bound_cpu] += 1
                if self._on_enqueue is not None:
                    self._on_enqueue(lwp)

    def has_contender(self, cpu: int) -> bool:
        """Whether a queued LWP may run on processor *cpu* (it is pinned
        there or may run anywhere).  The counts answer for time-sharing
        LWPs; queued RT LWPs, rare in replays, are scanned."""
        if self.queued_free or self.queued_pinned[cpu]:
            return True
        if self.queued_rt:
            for other in self._runnable.values():
                if other.rt and (other.bound_cpu is None or other.bound_cpu == cpu):
                    return True
        return False

    def _set_thread_state(
        self, thread: SimThread, state: ThreadState, cpu: Optional[int] = None
    ) -> None:
        """Single point for thread-state flips: one raw row in the flip
        log, from which the result assembles segments, busy time and
        per-thread work when they are read."""
        thread.state = state
        self._flips.append((thread.tid, state, self.engine.now_us, cpu))

    # ------------------------------------------------------------------
    # atomic sections (operation application must not be preempted)
    # ------------------------------------------------------------------

    def begin_atomic(self) -> None:
        self._atomic_depth += 1

    def end_atomic(self) -> None:
        if self._atomic_depth <= 0:
            raise SimulationError("end_atomic without begin_atomic")
        self._atomic_depth -= 1
        if self._atomic_depth == 0 and self._dispatch_wanted:
            self._dispatch_wanted = False
            self._kernel_dispatch()

    # ------------------------------------------------------------------
    # thread lifecycle
    # ------------------------------------------------------------------

    def register_thread(self, thread: SimThread, *, waker_cpu: Optional[int]) -> None:
        """Admit a newly created thread (its creation cost is already paid
        by the creator).  Applies the configuration's per-thread policy
        (§3.2 manipulations), allocates a dedicated LWP for bound threads,
        and makes the thread runnable."""
        policy = self.config.policy_for(int(thread.tid))
        if policy.effective_bound() is not None:
            thread.bound = policy.effective_bound() or False
        if policy.cpu is not None:
            thread.bound_cpu = policy.cpu
            thread.bound = True
        if policy.priority is not None:
            thread.priority = policy.priority
            thread.priority_locked = True
        if policy.rt_priority is not None:
            thread.rt_priority = policy.rt_priority
            thread.bound = True  # priocntl acts on an LWP of its own
        thread.created_at_us = self.engine.now_us

        if thread.bound:
            lwp = self._new_lwp(dedicated=True, bound_cpu=thread.bound_cpu)
            if thread.rt_priority is not None:
                lwp.rt = True
                lwp.kernel_priority = thread.rt_priority
            self._set_lwp_state(lwp, LwpState.SLEEPING)  # parked until runnable
            lwp.thread = thread
            lwp.last_thread_tid = int(thread.tid)
            thread.lwp = lwp
        self.make_runnable(thread, waker_cpu=waker_cpu)

    def make_runnable(
        self,
        thread: SimThread,
        *,
        waker_cpu: Optional[int] = None,
        boost: bool = False,
    ) -> None:
        """Move *thread* to the runnable state, honouring the inter-CPU
        communication delay when the wake-up crosses processors."""
        delay = 0
        if (
            self.config.comm_delay_us > 0
            and waker_cpu is not None
            and thread.last_cpu is not None
            and thread.last_cpu != waker_cpu
        ):
            delay = self.config.comm_delay_us
        if delay:
            self.engine.schedule_in(
                delay,
                lambda: self._enqueue_runnable(thread, boost),
                f"comm-delay wake T{int(thread.tid)}",
            )
        else:
            self._enqueue_runnable(thread, boost)

    def _enqueue_runnable(self, thread: SimThread, boost: bool) -> None:
        if not thread.alive:
            raise SimulationError(f"waking dead thread T{int(thread.tid)}")
        state = thread.state
        if state is _RUNNABLE or state is _RUNNING:
            raise SimulationError(
                f"T{int(thread.tid)} woken while {thread.state.value}"
            )
        self._set_thread_state(thread, _RUNNABLE)
        thread.runnable_since_us = self.engine.now_us
        thread.enqueue_seq = next(self._seq)

        if thread.bound:
            lwp = thread.lwp
            assert lwp is not None
            self._setrun(lwp, boost)
            self._lwp_runnable(lwp)
        else:
            lwp = self._grab_idle_lwp(thread)
            if lwp is not None:
                self._attach(thread, lwp, boost=boost)
            else:
                self.user_queue.push(thread)
        self._kernel_dispatch()

    def _grab_idle_lwp(self, thread: SimThread) -> Optional[SimLwp]:
        """Find or create an idle pool LWP for *thread* (prefer the LWP
        that last ran it, to skip the user-level switch cost)."""
        pool = self._idle_pool
        tid = int(thread.tid)
        for i, lwp in enumerate(pool):
            if lwp.last_thread_tid == tid:
                return pool.pop(i)
        if pool:
            return pool.pop(0)
        if self._pool_limit is None:
            return self._new_lwp(dedicated=False)
        return None

    def _attach(self, thread: SimThread, lwp: SimLwp, *, boost: bool = False) -> None:
        """Bind a runnable unbound thread to an LWP and queue the LWP."""
        lwp.thread = thread
        thread.lwp = lwp
        if lwp.last_thread_tid not in (None, int(thread.tid)):
            self._switch_cost_pending[int(thread.tid)] = self.costs.thread_switch_us
        self._setrun(lwp, boost)
        self._lwp_runnable(lwp)

    def _lwp_runnable(self, lwp: SimLwp) -> None:
        # the sequence number first: on_enqueue sees the final queue key
        lwp.enqueue_seq = next(self._seq)
        self._set_lwp_state(lwp, _QUEUED)
        lwp.runnable_since_us = self.engine.now_us

    # ------------------------------------------------------------------
    # kernel-level dispatch
    # ------------------------------------------------------------------

    def _kernel_dispatch(self) -> None:
        """Match runnable LWPs to processors, preempting where the
        backend's policy demands it.  Loops until no further placement
        is possible.

        Each pass places at most one LWP: the first candidate, in the
        backend's order, that has an idle CPU it may run on or a victim
        it may preempt.  Solaris's ``sched_tick`` changes priorities
        even on a pass that places nothing, so the passes themselves
        must not be skipped or merged; a pass only skips work that
        cannot change its outcome (the tick a backend does not define,
        the idle scan when no CPU is idle, copies of the candidates)."""
        if self._atomic_depth > 0:
            self._dispatch_wanted = True
            return
        cpus = self.cpus
        while True:
            rmap = self._runnable
            if not rmap:
                return
            if self._ticks:
                self._sched_tick(rmap.values(), self.engine.now_us)
            # the order may be a list the backend keeps: read it only
            # until this pass places or preempts
            runnable = self._select(rmap.values())
            # one idle scan per pass: candidates ahead of the first one
            # with an idle CPU it may run on can place only by
            # preemption, and the backend searches them once
            stop = len(runnable)
            target = None
            if self._idle_cpus:
                for idle in cpus:
                    if idle.lwp is None:
                        for i, lwp in enumerate(runnable):
                            cpu = idle if lwp.bound_cpu is None else cpus[lwp.bound_cpu]
                            if cpu.lwp is None:
                                stop, target = i, cpu
                                break
                        break
            if stop:
                hit = self._pick_victim(
                    runnable if target is None else runnable[:stop]
                )
                if hit is not None:
                    lwp, cpu = hit
                    self._preempt(cpu.lwp)  # type: ignore[arg-type]
                    self._place(lwp, cpu)
                    continue
            if target is None:
                if self._on_contention is not None:
                    # queued LWPs could not place: tickless backends
                    # re-tick running LWPs so a parked quantum timer
                    # cannot starve the queue (the NO_HZ re-arm)
                    self._on_contention(runnable)
                return
            self._place(runnable[stop], target)

    def _place(self, lwp: SimLwp, cpu: SimCpu) -> None:
        if cpu.lwp is not None:
            raise SimulationError(f"placing {lwp!r} on busy {cpu!r}")
        thread = lwp.thread
        if thread is None:
            raise SimulationError(f"dispatching threadless {lwp!r}")
        # ids are plain ints at run time (NewType), so the hot paths
        # below key and compare them without int()
        lid = lwp.lwp_id
        tid = thread.tid
        if (
            self.costs.lwp_switch_us
            and cpu.last_lwp_id is not None
            and cpu.last_lwp_id != lid
        ):
            # §6 extension: kernel context-switch overhead (default off)
            pending = self._switch_cost_pending.get(tid, 0)
            self._switch_cost_pending[tid] = pending + self.costs.lwp_switch_us
        cpu.lwp = lwp
        self._idle_cpus -= 1
        cpu.last_lwp_id = lid
        lwp.cpu = cpu.index
        self._set_lwp_state(lwp, _ONPROC)
        lwp.dispatches += 1
        lwp.last_thread_tid = tid
        if self._on_dispatch is not None:
            # usage-accounting backends stamp the dispatch (and may
            # clear quantum_remaining_us to force a fresh slice below)
            self._on_dispatch(lwp)

        self._set_thread_state(thread, _RUNNING, cpu.index)
        thread.last_cpu = cpu.index
        if thread.start_time_us is None:
            thread.start_time_us = self.engine.now_us

        if lwp.quantum_remaining_us <= 0:
            lwp.quantum_remaining_us = self._quantum_for(lwp)
        if self.config.time_slicing:
            self._arm_quantum(lwp)

        if thread.burst_remaining_us > 0:
            extra = self._switch_cost_pending.pop(tid, 0)
            self._arm_burst(thread, thread.burst_remaining_us + extra)
        else:
            self.listener.need_step(thread)

    def _off_cpu(self, lwp: SimLwp) -> None:
        """Single point where an LWP leaves its processor (accounting
        hook for usage-driven backends)."""
        if self._on_deschedule is not None:
            self._on_deschedule(lwp)
        self.cpus[lwp.cpu].lwp = None  # type: ignore[index]
        self._idle_cpus += 1
        lwp.cpu = None

    def _preempt(self, lwp: SimLwp) -> None:
        """Take a running LWP (and its thread) off its CPU, preserving the
        thread's burst remainder and the LWP's quantum remainder."""
        if lwp.state is not _ONPROC or lwp.cpu is None:
            raise SimulationError(f"preempting non-running {lwp!r}")
        thread = lwp.thread
        assert thread is not None
        self._save_burst_remainder(thread)
        self._save_quantum_remainder(lwp)
        self._off_cpu(lwp)
        self._set_thread_state(thread, _RUNNABLE)
        thread.runnable_since_us = self.engine.now_us
        self._lwp_runnable(lwp)

    def _save_burst_remainder(self, thread: SimThread) -> None:
        entry = self._burst_events.pop(thread.tid, None)
        if entry is None:
            if thread.state is _RUNNING and self._atomic_depth == 0:
                raise SimulationError(
                    f"RUNNING T{int(thread.tid)} has no burst event"
                )
            thread.burst_remaining_us = 0
            return
        handle, end_us = entry
        handle.cancel()
        thread.burst_remaining_us = end_us - self.engine.now_us

    def _save_quantum_remainder(self, lwp: SimLwp) -> None:
        entry = self._quantum_events.pop(lwp.lwp_id, None)
        if entry is None:
            return
        handle, expiry_us = entry
        handle.cancel()
        lwp.quantum_remaining_us = max(0, expiry_us - self.engine.now_us)

    # ------------------------------------------------------------------
    # quanta
    # ------------------------------------------------------------------

    def _arm_quantum(self, lwp: SimLwp) -> None:
        # hot under replay: one cached closure per LWP, constant label, a
        # direct queue push (expiry is never in the past), and the
        # ScheduledEvent recycled while its last occurrence executed
        action = lwp.quantum_action
        if action is None:
            expired = self._quantum_expired
            def action(l=lwp, fire=expired):
                fire(l)
            lwp.quantum_action = action
        expiry = self.engine.now_us + lwp.quantum_remaining_us
        handle = lwp.quantum_event
        if handle is None or handle.cancelled:
            handle = self.engine.queue.push(expiry, action, "quantum")
            lwp.quantum_event = handle
        else:
            self.engine.queue.repush(expiry, handle)
        self._quantum_events[lwp.lwp_id] = (handle, expiry)

    def retick(self, lwp: SimLwp, remaining_us: int) -> None:
        """Pull a running LWP's armed quantum expiry forward to at most
        *remaining_us* from now (never pushes it later).  No-op when no
        timer is armed (``time_slicing=False``) or the timer already
        fires sooner.  Backends call this from ``on_contention`` to end
        a tickless stretch or to shorten a slice granted before
        contention grew."""
        entry = self._quantum_events.get(lwp.lwp_id)
        if entry is None:
            return
        handle, expiry_us = entry
        if expiry_us <= self.engine.now_us + remaining_us:
            return
        # the armed event is still in the heap, so it cannot be
        # repushed in place — cancel it and let _arm_quantum allocate
        handle.cancel()
        lwp.quantum_remaining_us = remaining_us
        self._arm_quantum(lwp)

    def _quantum_expired(self, lwp: SimLwp) -> None:
        self._quantum_events.pop(lwp.lwp_id, None)
        if lwp.state is not _ONPROC:
            return  # stale timer (LWP left the CPU at the same timestamp)
        lwp.quantum_expiries += 1
        self._quantum_expire_policy(lwp)  # aging / usage accounting
        lwp.quantum_remaining_us = self._quantum_for(lwp)
        if self._quantum_yield(lwp):
            self._preempt(lwp)
            self._kernel_dispatch()
        else:
            self._arm_quantum(lwp)

    # ------------------------------------------------------------------
    # bursts
    # ------------------------------------------------------------------

    def begin_burst(self, thread: SimThread, duration_us: int) -> None:
        """Start *duration_us* (never negative) of CPU work for a RUNNING
        thread.  The completion is the thread's ``burst_action``, built
        once per thread; the event that fires it is reused while its
        last occurrence executed, and pushed straight onto the queue (the
        end time can never be in the past)."""
        if thread.state is not _RUNNING:
            raise SimulationError(
                f"begin_burst on {thread.state.value} T{int(thread.tid)}"
            )
        tid = int(thread.tid)
        pending = self._switch_cost_pending
        if pending:
            duration_us += pending.pop(tid, 0)
        thread.burst_remaining_us = duration_us
        engine = self.engine
        end = engine.now_us + duration_us
        ev = thread.burst_event
        if ev is None or ev.cancelled:
            ev = engine.queue.push(end, thread.burst_action, "burst")
            thread.burst_event = ev
        else:
            engine.queue.repush(end, ev)
        self._burst_events[tid] = (ev, end)

    def _arm_burst(self, thread: SimThread, duration_us: int) -> None:
        """Resume a burst whose event a preemption cancelled."""
        end = self.engine.now_us + duration_us
        handle = self.engine.queue.push(end, thread.burst_action, "burst")
        thread.burst_event = handle
        self._burst_events[thread.tid] = (handle, end)

    # ------------------------------------------------------------------
    # blocking / waking / exiting / yielding (called during op application)
    # ------------------------------------------------------------------

    def block_current(self, thread: SimThread, *, sleeping: bool = False) -> None:
        """The running thread blocks at a synchronisation point."""
        if thread.state is not _RUNNING:
            raise SimulationError(
                f"block_current on {thread.state.value} T{int(thread.tid)}"
            )
        state = ThreadState.SLEEPING if sleeping else ThreadState.BLOCKED
        self._set_thread_state(thread, state)
        self._release_lwp_of(thread)

    def thread_exited(self, thread: SimThread) -> None:
        """The running thread executed ``thr_exit``."""
        if thread.state is not _RUNNING:
            raise SimulationError(
                f"thread_exited on {thread.state.value} T{int(thread.tid)}"
            )
        thread.end_time_us = self.engine.now_us
        self._set_thread_state(thread, ThreadState.ZOMBIE)
        self._release_lwp_of(thread, exiting=True)

    def yield_current(self, thread: SimThread) -> None:
        """``thr_yield``: surrender the LWP to an equal-or-higher priority
        runnable thread; reacquire immediately when none exists."""
        if thread.state is not _RUNNING:
            raise SimulationError(
                f"yield_current on {thread.state.value} T{int(thread.tid)}"
            )
        lwp = thread.lwp
        assert lwp is not None
        if thread.bound:
            # a bound thread yields its LWP's processor slot
            self._preempt(lwp)
            self._kernel_dispatch()
            return
        self._set_thread_state(thread, _RUNNABLE)
        thread.runnable_since_us = self.engine.now_us
        thread.enqueue_seq = next(self._seq)
        self._save_quantum_remainder(lwp)
        lwp.thread = None
        thread.lwp = None
        self.user_queue.push(thread)
        nxt = self.user_queue.pop()
        self._switch_to_on_lwp(nxt, lwp)

    def sleep_current(self, thread: SimThread, duration_us: int) -> None:
        """Pure delay: the thread sleeps without consuming CPU (used for
        replayed timed-out waits)."""
        self.block_current(thread, sleeping=True)
        self.engine.schedule_in(
            duration_us,
            lambda: self.make_runnable(thread, boost=True),
            f"sleep T{int(thread.tid)}",
        )

    def _release_lwp_of(self, thread: SimThread, *, exiting: bool = False) -> None:
        """The thread left the RUNNING state: deal with its LWP and CPU."""
        lwp = thread.lwp
        if lwp is None:
            raise SimulationError(f"T{int(thread.tid)} has no LWP to release")
        self._save_quantum_remainder(lwp)

        if thread.bound and not exiting:
            # dedicated LWP sleeps with its thread
            if lwp.cpu is not None:
                self._off_cpu(lwp)
            self._set_lwp_state(lwp, LwpState.SLEEPING)
            self._kernel_dispatch()
            return

        # detach the thread from the LWP
        lwp.thread = None
        lwp.last_thread_tid = int(thread.tid)
        thread.lwp = None
        if thread.bound and exiting:
            # dedicated LWP dies with its thread
            if lwp.cpu is not None:
                self._off_cpu(lwp)
            self._set_lwp_state(lwp, LwpState.IDLE)
            self.lwps.remove(lwp)
            self.retired_lwps.append(lwp)
            self._kernel_dispatch()
            return

        # pool LWP: pick the next runnable unbound thread, or park
        if self.user_queue:
            nxt = self.user_queue.pop()
            self._switch_to_on_lwp(nxt, lwp)
        else:
            if lwp.cpu is not None:
                self._off_cpu(lwp)
            self._set_lwp_state(lwp, LwpState.IDLE)
            self._idle_pool.append(lwp)
            self._kernel_dispatch()

    def _switch_to_on_lwp(self, thread: SimThread, lwp: SimLwp) -> None:
        """User-level context switch: *lwp* (possibly still on its CPU)
        picks up runnable *thread*."""
        lwp.thread = thread
        thread.lwp = lwp
        if lwp.last_thread_tid not in (None, int(thread.tid)):
            self._switch_cost_pending[int(thread.tid)] = self.costs.thread_switch_us
        if lwp.state is _ONPROC and lwp.cpu is not None:
            # stays on processor; the thread starts running immediately
            lwp.last_thread_tid = int(thread.tid)
            self._set_thread_state(thread, _RUNNING, lwp.cpu)
            thread.last_cpu = lwp.cpu
            if thread.start_time_us is None:
                thread.start_time_us = self.engine.now_us
            if lwp.quantum_remaining_us <= 0:
                lwp.quantum_remaining_us = self._quantum_for(lwp)
            if self.config.time_slicing:
                self._arm_quantum(lwp)
            if thread.burst_remaining_us > 0:
                extra = self._switch_cost_pending.pop(int(thread.tid), 0)
                self._arm_burst(thread, thread.burst_remaining_us + extra)
            else:
                self.listener.need_step(thread)
        else:
            self._lwp_runnable(lwp)
            self._kernel_dispatch()

    # ------------------------------------------------------------------
    # concurrency control (thr_setconcurrency)
    # ------------------------------------------------------------------

    def set_concurrency(self, level: int) -> bool:
        """Apply ``thr_setconcurrency``.

        Honoured only when the user did not fix the LWP count in the
        configuration (§3.2: with a user-specified LWP count "the
        thr_setconcurrency in the program has no effect").  In on-demand
        mode the pool already grows as needed, so this pre-creates idle
        LWPs up to *level* and reports True.
        """
        if self.config.lwps is not None:
            return False
        while self._pool_size < level:
            self._idle_pool.append(self._new_lwp(dedicated=False))
        return True
