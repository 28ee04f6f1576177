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
sorted list standing in for the kernel's rbtree; slice lengths, expiry
yields and the re-tick read the mechanism's contender counts.  For each
CPU the backend keeps ``vruntime - charge stamp`` of the fair LWP
running there, which stays fixed while it runs, so the ``min_vruntime``
floor and the wake-preemption victim are one ``min()``/``max()`` over
those values, and the contender count each running slice was sized for,
so a re-tick is issued only where contention has grown since.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

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
#: the per-CPU vruntime base of a CPU that runs no fair LWP: high in the
#: list min() reads, low (negated) in the one max() reads
_NO_FAIR = 1 << 62


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
        #: the instant at which _min_vruntime last reached the floor of
        #: the LWPs in play; a dequeue or a deschedule resets it
        self._floor_at = -1
        #: the queued fair LWPs in (vruntime, enqueue_seq) order, and
        #: their keys.  A queued LWP's vruntime never changes: it is
        #: placed before it is queued and charged only while ONPROC.
        self._keys: List[Tuple[int, int]] = []
        self._queue: "List[SimLwp]" = []
        #: per CPU, ``vruntime - charge stamp`` of its running fair LWP
        #: (its vruntime at instant t is this plus t), else _NO_FAIR in
        #: _base_lo and -_NO_FAIR in _base_hi
        cpus = sched.config.cpus
        self._base_lo = [_NO_FAIR] * cpus
        self._base_hi = [-_NO_FAIR] * cpus
        #: per CPU, the contender count its running LWP's armed slice was
        #: sized for, measured from the charge stamp (0: not known)
        self._sized = [0] * cpus
        #: True when on_contention would re-tick nothing: every CPU that
        #: runs a fair LWP has no contender or a slice sized for at least
        #: its count.  A fair enqueue or an unknown slice clears it (see
        #: on_contention); a rotation that moves no count keeps it
        self._all_sized = False
        #: what a rotation's outgoing side saw: the flag before its
        #: enqueue, and the queued LWP's affinity (None: an RT LWP)
        self._out: "Tuple[bool, Optional[int]] | None" = None

    # -- vruntime accounting -------------------------------------------

    def _vr(self, lwp: "SimLwp") -> int:
        """Committed vruntime, initialised at min_vruntime on first use
        (a new LWP earns no credit for not having existed)."""
        vr = self._vruntime.get(lwp.lwp_id)
        if vr is None:
            vr = self._vruntime[lwp.lwp_id] = self._min_vruntime
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
        (queued or running), and never moves backwards.

        Within one instant, only a dequeue or a deschedule can raise
        that floor: a queued LWP's vruntime is fixed, a running one's
        (its base plus now) moves only with time, a charge commits what
        it already read, an enqueue adds a term to the minimum, and a
        wake placement touches an LWP not yet queued.  So once the
        floor has been reached at this instant, and neither has
        happened since, the scan would find nothing above
        min_vruntime: the charge that ends a yielding expiry is one."""
        if self._floor_at == now:
            return
        self._floor_at = now
        floor = None
        if self._keys:
            floor = self._keys[0][0]
            if floor <= self._min_vruntime:
                return  # the queue's head already holds the floor down
        base = min(self._base_lo)
        if base != _NO_FAIR and (floor is None or base + now < floor):
            floor = base + now
        if floor is not None and floor > self._min_vruntime:
            self._min_vruntime = floor

    def on_dispatch(self, lwp: "SimLwp") -> None:
        now = self.sched.engine.now_us
        self._since_us[lwp.lwp_id] = now
        # CFS grants a fresh slice per pick; a preempted LWP does not
        # resume a banked remainder (its claim lives in vruntime)
        lwp.quantum_remaining_us = 0
        if not lwp.rt:
            self._base_lo[lwp.cpu] = self._base_hi[lwp.cpu] = (  # type: ignore[index]
                self._vruntime[lwp.lwp_id] - now
            )

    def on_deschedule(self, lwp: "SimLwp") -> None:
        self._charge(lwp)
        if not lwp.rt:
            self._base_lo[lwp.cpu] = _NO_FAIR  # type: ignore[index]
            self._base_hi[lwp.cpu] = -_NO_FAIR  # type: ignore[index]
            self._floor_at = -1

    # -- the run queue -------------------------------------------------

    def on_enqueue(self, lwp: "SimLwp") -> None:
        if lwp.rt:
            return
        # every fair LWP was placed by thread_setrun before it first
        # queued, so its vruntime exists
        key = (self._vruntime[lwp.lwp_id], lwp.enqueue_seq)
        i = bisect_left(self._keys, key)
        self._keys.insert(i, key)
        self._queue.insert(i, lwp)
        self._all_sized = False

    def on_dequeue(self, lwp: "SimLwp") -> None:
        if lwp.rt:
            return
        i = bisect_left(self._keys, (self._vruntime[lwp.lwp_id], lwp.enqueue_seq))
        assert self._queue[i] is lwp
        del self._keys[i]
        del self._queue[i]
        self._floor_at = -1

    # -- rotation ------------------------------------------------------

    def rotate_out(self, lwp: "SimLwp") -> None:
        """A yielding expiry: quantum_expire's charge, then on_deschedule
        and on_enqueue (whose own charge would add nothing)."""
        self._charge(lwp)
        if lwp.rt:
            self._out = None
            return
        self._base_lo[lwp.cpu] = _NO_FAIR  # type: ignore[index]
        self._base_hi[lwp.cpu] = -_NO_FAIR  # type: ignore[index]
        self._floor_at = -1
        self._out = (self._all_sized, lwp.bound_cpu)
        self.on_enqueue(lwp)

    def rotate_in(self, lwp: "SimLwp") -> int:
        """The queue's head takes the CPU a rotation freed: on_dequeue
        of index 0 (an RT head is not in the fair queue), on_dispatch,
        and the fresh slice quantum_for would size."""
        if not lwp.rt:
            del self._keys[0]
            del self._queue[0]
            self._floor_at = -1
            out = self._out
            if out is not None and out[1] == lwp.bound_cpu:
                # the head left the count the outgoing LWP joined: every
                # count is back where it was, and the slice sized below
                # covers this CPU's
                self._all_sized = out[0]
        self.on_dispatch(lwp)
        return self.quantum_for(lwp)

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

    def thread_select(self, runnable: "Iterable[SimLwp]") -> "List[SimLwp]":
        # RT by fixed priority, then the fair queue's kept order (the
        # list itself: the mechanism only reads it)
        if not self.sched.queued_rt:
            return self._queue
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
        sched = self.sched
        cpu: int = lwp.cpu  # type: ignore[assignment]
        nr = 1 + sched.queued_free + sched.queued_pinned[cpu]
        # the slice is armed from now: record its count only when now is
        # also the charge stamp that on_contention measures from (every
        # dispatch and expiry; a thread handed to an LWP mid-slice is
        # the exception)
        if self._since_us.get(lwp.lwp_id) == sched.engine.now_us:
            self._sized[cpu] = nr
        else:
            self._sized[cpu] = 0
            self._all_sized = False
        if nr == 1:
            # nothing to share the latency window with: park the tick
            # (NO_HZ); on_contention re-arms it when a contender queues
            return TICKLESS_SLICE_US
        return max(MIN_GRANULARITY_US, SCHED_LATENCY_US // nr)

    def quantum_expire(self, lwp: "SimLwp") -> None:
        # commit the consumed slice so the re-queued LWP sorts by what
        # it actually ran; the LWP is still ONPROC (the mechanism's
        # stale-timer guard), so restart the charge clock — a follow-up
        # preemption then charges a zero-length stretch, and its floor
        # scan returns at once (see _advance_min_vruntime)
        self._charge(lwp)
        self._since_us[lwp.lwp_id] = self.sched.engine.now_us

    def quantum_yield(self, lwp: "SimLwp") -> bool:
        """check_preempt_tick: exhausting the slice reschedules when
        any compatible contender is queued."""
        return self.sched.has_contender(lwp.cpu)  # type: ignore[arg-type]

    def on_contention(self, runnable: "List[SimLwp]") -> None:
        """A queued contender found no idle CPU and failed
        wake-preemption: re-arm each running fair LWP's tick at the
        slice its CPU's contenders now grant, measured from the charge
        stamp.  That collapses a parked tickless slice (Linux re-arms
        the tick the moment a second task lands on a NO_HZ core) and
        shortens a slice granted before contention grew, so the
        contender waits at most one slice.

        A CPU whose contender count has not grown past the one its
        slice was sized for is skipped: the re-tick target
        ``max(now + min_granularity, stamp + slice(count))`` only moves
        later as time passes or the count shrinks, so it cannot fall
        below an expiry armed at ``stamp + slice(sized)`` or by an
        earlier re-tick at that count.

        Only a fair enqueue (a count grows) or a slice of unknown size
        can take a CPU out of that state; a fair placement sizes its
        slice for the count it sees, and a dequeue only shrinks counts.
        So while neither has happened since the loop last ran, the loop
        would skip every CPU, and the call returns at once."""
        if self._all_sized:
            return
        sched = self.sched
        free = 1 + sched.queued_free
        pinned = sched.queued_pinned
        sized = self._sized
        now = sched.engine.now_us
        for cpu in sched.cpus:
            running = cpu.lwp
            if running is None or running.rt:
                continue
            i = cpu.index
            nr = free + pinned[i]
            if nr == 1 or nr <= sized[i]:
                continue  # no contender may run here, or a no-op re-tick
            sized[i] = nr
            slice_us = max(MIN_GRANULARITY_US, SCHED_LATENCY_US // nr)
            ran = now - self._since_us[running.lwp_id]
            sched.retick(running, max(MIN_GRANULARITY_US, slice_us - ran))
        self._all_sized = True

    def pick_victim(
        self, candidates: "List[SimLwp]"
    ) -> "Optional[Tuple[SimLwp, SimCpu]]":
        cpus = self.sched.cpus
        hi = self._base_hi
        top = None
        for lwp in candidates:
            if lwp.rt:
                cpu = rt_victim(lwp, cpus)
                if cpu is not None:
                    return lwp, cpu
                continue
            # fair wake-preemption: displace the largest-vruntime fair
            # LWP (first in CPU order), with the wakeup-granularity
            # hysteresis; never preempt RT.  Running vruntimes are
            # compared as bases, the candidate's threshold less now.
            if top is None:
                top = max(hi)
                if top == -_NO_FAIR:
                    return None  # only RT runs, and no RT candidate is left
            threshold = (
                self._vruntime[lwp.lwp_id] + WAKEUP_GRANULARITY_US
                - self.sched.engine.now_us
            )
            if top <= threshold:
                # fair candidates come in vruntime order, so no later
                # one's threshold is below the largest running vruntime
                # either: none of them can preempt anywhere
                return None
            pin = lwp.bound_cpu
            if pin is None:
                return lwp, cpus[hi.index(top)]
            if hi[pin] > threshold:
                return lwp, cpus[pin]
        return None
