"""A CFS-style scheduler backend (Linux's Completely Fair Scheduler).

Fair-class LWPs are ordered by **virtual runtime**: every µs an LWP
spends on a processor advances its vruntime by one µs, and the one
with the smallest vruntime always runs next.  Every fair LWP runs at
nice 0 (load weight 1024): a Solaris trace carries no nice value, and a
replayed time-sharing LWP never leaves its initial priority (only the
Solaris backend ages priorities), so there is no other weight to give
it.  The model follows the kernel's design:

* **slicing**: the granted slice is ``max(min_granularity, latency /
  nr)`` where ``nr`` counts the LWP itself plus the queued fair
  contenders that may run on its CPU — the scheduling latency window
  shared among the effective runqueue, floored so heavy contention
  cannot shrink slices to nothing (defaults 6 ms / 0.75 ms, the
  kernel's).  With no contender the tick is **parked** (NO_HZ): an
  uncontended LWP runs untimed instead of flooding the event queue
  with no-op expiries, and ``on_contention`` re-arms the tick the
  moment a contender queues without placing;
* **sleeper fairness**: an LWP waking from sleep/block is placed at
  ``max(own vruntime, min_vruntime − latency/2)`` — it gets a modest
  wake-up advantage but cannot bank unbounded credit while asleep.  A
  brand-new LWP starts at ``min_vruntime`` (no credit for being born);
* **wake-preemption**: a waking LWP preempts the running LWP with the
  largest vruntime, but only when the victim trails by more than the
  wakeup granularity (1 ms) — hysteresis against preemption storms;
* on **expiry** the LWP is requeued whenever any compatible contender
  is queued (``check_preempt_tick``: exhausting the slice reschedules
  if the runqueue is non-empty);
* the **RT class** sits above the fair class, exactly as on Linux:
  RT LWPs order by fixed priority ahead of every fair LWP, preempt any
  fair LWP, round-robin on ``rt_quantum_us``, and are never charged
  vruntime.

Simplifications, documented as such: one global runqueue (per-CPU
runqueues plus load balancing collapse to this on a machine whose CPUs
are symmetric and whose affinity axis is per-thread binding), and
vruntime lives on the LWP — under the two-level model the kernel
schedules LWPs, so a pool LWP's vruntime follows the LWP, not the user
thread it happens to carry.  All arithmetic is integer (vruntime in
µs); ties close by ``enqueue_seq``; replay stays deterministic.

The queued fair LWPs are kept in ``(vruntime, enqueue_seq)`` order, a
sorted list standing in for the kernel's rbtree, with counts of the
contenders each CPU may take: selection, the ``min_vruntime`` floor,
slice lengths and the victim search read those instead of sorting or
scanning the run queue.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.core.ids import LwpId
from repro.sched.base import (
    TICKLESS_SLICE_US,
    SchedulerBackend,
    register_backend,
    rt_victim,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.solaris.lwp import SimLwp
    from repro.solaris.scheduler import SimCpu

__all__ = ["CfsBackend"]

#: scheduling latency window shared by the runqueue (µs)
SCHED_LATENCY_US = 6_000
#: slice floor under heavy contention (µs)
MIN_GRANULARITY_US = 750
#: wake-preemption hysteresis (µs)
WAKEUP_GRANULARITY_US = 1_000


@register_backend
class CfsBackend(SchedulerBackend):
    """vruntime ordering, min-granularity slicing, wake-preemption."""

    name = "cfs"
    version = 1

    def bind(self, sched) -> None:
        super().bind(sched)
        #: vruntime per LWP id (µs)
        self._vruntime: Dict[LwpId, int] = {}
        #: dispatch/charge timestamp per ONPROC LWP id
        self._since_us: Dict[LwpId, int] = {}
        #: monotonic floor of the queue's vruntime (wake placement)
        self._min_vruntime = 0
        #: the queued fair LWPs in (vruntime, enqueue_seq) order, and
        #: their keys.  A queued LWP's vruntime never changes: it is
        #: placed before it is queued and charged only while ONPROC.
        self._keys: List[Tuple[int, int]] = []
        self._queue: "List[SimLwp]" = []
        #: queued RT LWPs (they order ahead of every fair LWP)
        self._rt_queued = 0
        #: queued fair contenders that may run on any CPU / per pinned CPU
        self._free = 0
        self._pinned = [0] * sched.config.cpus

    # -- vruntime accounting -------------------------------------------

    def _vr(self, lwp: "SimLwp") -> int:
        """Committed vruntime, initialised at min_vruntime on first use
        (a new LWP earns no credit for not having existed)."""
        vr = self._vruntime.get(lwp.lwp_id)
        if vr is None:
            vr = self._vruntime[lwp.lwp_id] = self._min_vruntime
        return vr

    def _vr_now(self, lwp: "SimLwp", now: int) -> int:
        """Committed vruntime plus the uncharged ONPROC stretch of a
        fair LWP (every LWP that runs was queued first)."""
        lid = lwp.lwp_id
        vr = self._vruntime[lid]
        since = self._since_us.get(lid)
        if since is not None and now > since:
            vr += now - since
        return vr

    def _charge(self, lwp: "SimLwp") -> None:
        lid = lwp.lwp_id
        now = self.sched.engine.now_us
        since = self._since_us.pop(lid, None)
        if since is not None and not lwp.rt:
            vr = self._vruntime[lid] + now - since
            self._vruntime[lid] = vr
            if vr > self._min_vruntime:
                # monotonic advance; lazily tightened in thread_setrun
                self._advance_min_vruntime(now)

    def _advance_min_vruntime(self, now: int) -> None:
        """min_vruntime tracks the smallest vruntime still in play
        (queued or running), and never moves backwards."""
        floor = None
        if self._keys:
            floor = self._keys[0][0]
            if floor <= self._min_vruntime:
                return  # the queue's head already holds the floor down
        for cpu in self.sched.cpus:
            running = cpu.lwp
            if running is not None and not running.rt:
                vr = self._vr_now(running, now)
                if floor is None or vr < floor:
                    floor = vr
        if floor is not None and floor > self._min_vruntime:
            self._min_vruntime = floor

    def on_dispatch(self, lwp: "SimLwp") -> None:
        self._since_us[lwp.lwp_id] = self.sched.engine.now_us
        # CFS grants a fresh slice per pick; a preempted LWP does not
        # resume a banked remainder (its claim lives in vruntime)
        lwp.quantum_remaining_us = 0

    def on_deschedule(self, lwp: "SimLwp") -> None:
        self._charge(lwp)

    # -- the run queue -------------------------------------------------

    def on_enqueue(self, lwp: "SimLwp") -> None:
        if lwp.rt:
            self._rt_queued += 1
            return
        key = (self._vr(lwp), lwp.enqueue_seq)
        i = bisect_left(self._keys, key)
        self._keys.insert(i, key)
        self._queue.insert(i, lwp)
        if lwp.bound_cpu is None:
            self._free += 1
        else:
            self._pinned[lwp.bound_cpu] += 1

    def on_dequeue(self, lwp: "SimLwp") -> None:
        if lwp.rt:
            self._rt_queued -= 1
            return
        i = bisect_left(self._keys, (self._vruntime[lwp.lwp_id], lwp.enqueue_seq))
        assert self._queue[i] is lwp
        del self._keys[i]
        del self._queue[i]
        if lwp.bound_cpu is None:
            self._free -= 1
        else:
            self._pinned[lwp.bound_cpu] -= 1

    # -- the SchedulerBackend hooks ------------------------------------

    def thread_setrun(self, lwp: "SimLwp", boost: bool) -> None:
        if lwp.rt:
            return
        self._advance_min_vruntime(self.sched.engine.now_us)
        vr = self._vr(lwp)
        if boost:
            # sleeper fairness: bounded wake-up credit
            placed = self._min_vruntime - SCHED_LATENCY_US // 2
            if placed > vr:
                self._vruntime[lwp.lwp_id] = placed

    def thread_select(self, runnable: "List[SimLwp]") -> "List[SimLwp]":
        # RT by fixed priority, then the fair queue's kept order
        if not self._rt_queued:
            return self._queue[:]
        rt = [lwp for lwp in runnable if lwp.rt]
        rt.sort(key=lambda l: (-l.kernel_priority, l.enqueue_seq))
        return rt + self._queue

    def quantum_for(self, lwp: "SimLwp") -> int:
        if lwp.rt:
            return self.config.rt_quantum_us
        # the global-runqueue collapse of the per-CPU rq: this CPU's
        # effective queue is the LWP itself plus every queued fair
        # contender that may run here — NOT the other CPUs' running
        # LWPs, which occupy their own runqueues
        nr = 1 + self._free
        if lwp.cpu is not None:
            nr += self._pinned[lwp.cpu]
        if nr == 1:
            # nothing to share the latency window with: park the tick
            # (NO_HZ); on_contention re-arms it when a contender queues
            return TICKLESS_SLICE_US
        return max(MIN_GRANULARITY_US, SCHED_LATENCY_US // nr)

    def quantum_expire(self, lwp: "SimLwp") -> None:
        # commit the consumed slice so the re-queued LWP sorts by what
        # it actually ran; the LWP is still ONPROC (the mechanism's
        # stale-timer guard), so restart the charge clock — a follow-up
        # preemption then charges a zero-length stretch harmlessly
        self._charge(lwp)
        self._since_us[lwp.lwp_id] = self.sched.engine.now_us

    def quantum_yield(self, lwp: "SimLwp") -> bool:
        """check_preempt_tick: exhausting the slice reschedules when
        any compatible contender is queued."""
        for other in self.sched._runnable.values():
            if other.bound_cpu is None or other.bound_cpu == lwp.cpu:
                return True
        return False

    def on_contention(self, runnable: "List[SimLwp]") -> None:
        """A queued contender found no idle CPU and failed
        wake-preemption: re-arm each running fair LWP's tick at the
        slice its CPU's contenders now grant, measured from the dispatch
        stamp.  That collapses a parked tickless slice (Linux re-arms
        the tick the moment a second task lands on a NO_HZ core) and
        shortens a slice granted before contention grew, so the
        contender waits at most one slice."""
        now = self.sched.engine.now_us
        retick = self.sched.retick
        for cpu in self.sched.cpus:
            running = cpu.lwp
            if running is None or running.rt:
                continue
            slice_us = self.quantum_for(running)
            if slice_us >= TICKLESS_SLICE_US:
                continue  # no contender may run here
            ran = now - self._since_us.get(running.lwp_id, now)
            retick(running, max(MIN_GRANULARITY_US, slice_us - ran))

    def pick_victim(
        self, candidates: "List[SimLwp]"
    ) -> "Optional[Tuple[SimLwp, SimCpu]]":
        cpus = self.sched.cpus
        fair_vr: "Optional[List[Optional[int]]]" = None
        worst = None
        for lwp in candidates:
            if lwp.rt:
                cpu = rt_victim(lwp, cpus)
                if cpu is not None:
                    return lwp, cpu
                continue
            # fair wake-preemption: displace the largest-vruntime fair
            # LWP (first in CPU order), with the wakeup-granularity
            # hysteresis; never preempt RT
            if fair_vr is None:
                now = self.sched.engine.now_us
                fair_vr = []
                for cpu in cpus:
                    running = cpu.lwp
                    if running is None or running.rt:
                        fair_vr.append(None)
                        continue
                    vr = self._vr_now(running, now)
                    if worst is None or vr > fair_vr[worst]:  # type: ignore[operator]
                        worst = cpu.index
                    fair_vr.append(vr)
            if worst is None:
                return None  # only RT runs, and no RT candidate is left
            threshold = self._vr(lwp) + WAKEUP_GRANULARITY_US
            if fair_vr[worst] <= threshold:  # type: ignore[operator]
                # fair candidates come in vruntime order, so no later
                # one's threshold is below the largest running vruntime
                # either: none of them can preempt anywhere
                return None
            pin = lwp.bound_cpu
            if pin is None:
                return lwp, cpus[worst]
            running_vr = fair_vr[pin]
            if running_vr is not None and running_vr > threshold:
                return lwp, cpus[pin]
        return None
