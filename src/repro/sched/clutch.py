"""A Clutch-style scheduler backend (XNU's root-bucket design).

Models the top level of Apple's Clutch hierarchy on this simulator's
LWP population, for the threads a Solaris trace can describe:

* RT LWPs sit in **FIXPRI**, which always outranks the timeshare
  threads and orders by raw RT priority (matching the Solaris RT
  invariant, so RT conformance tests hold across backends).  An RT LWP
  preempts any timeshare LWP, or a strictly lower RT priority, and on
  expiry yields only to an equal-or-higher RT priority;
* every time-sharing LWP sits in **one timeshare root bucket**, the
  default (DF) bucket.  XNU picks a thread's bucket from its QoS class,
  and a Solaris trace has none, so this is where XNU itself would put
  every thread.  With one bucket, the bucket-level machinery (EDF
  deadlines across buckets, warp budgets) never decides anything, so
  the model leaves it out;
* within the bucket, **timeshare decay** orders LWPs: an LWP sinks by
  one level per ``2^DECAY_SHIFT`` µs of CPU it has consumed, FIFO among
  equals — CPU hogs sink, interactive LWPs stay near the front.  A
  timeshare LWP never preempts; on expiry it yields to any compatible
  queued contender (round-robin on DF's quantum).

Quanta are granted fresh per selection, and on an uncontended processor
the tick is parked entirely (XNU coalesces idle timers the same way):
round-robin ticking only runs while a compatible contender is queued,
with ``on_contention`` re-arming the tick when one appears.  Whether a
contender may run on a CPU is read from the mechanism's run-queue
counts, and the backend remembers which CPUs run a slice that no
re-tick can shorten, so it re-ticks only the parked ones.  This is a
*style* port, not a port of the XNU sources: the second hierarchy level
(per-thread-group clutch buckets) is collapsed, since the simulated
process is a single thread group.  All arithmetic is integer and all
orderings close ties by ``enqueue_seq``, keeping replay deterministic.
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

__all__ = ["ClutchBackend"]

#: time slice of the timeshare bucket (µs, XNU's DF quantum)
QUANTUM_US = 6_000

#: timeshare decay: one level per 2^14 µs (~16 ms) of consumed CPU
DECAY_SHIFT = 14

#: the shortest slice a re-tick leaves a running LWP (µs)
MIN_RETICK_US = 1_000


@register_backend
class ClutchBackend(SchedulerBackend):
    """FIXPRI above one timeshare bucket ordered by decayed CPU use."""

    name = "clutch"
    version = 1

    def bind(self, sched) -> None:
        super().bind(sched)
        #: CPU consumed per LWP id (drives timeshare decay)
        self._used_us: Dict[LwpId, int] = {}
        #: dispatch timestamp per LWP id (charge basis)
        self._since_us: Dict[LwpId, int] = {}
        #: the queued LWPs in dispatch order, and their keys: FIXPRI by
        #: priority, then the timeshare bucket by decay level, FIFO
        #: among equals.  A queued LWP's key never changes: CPU use is
        #: charged only while it runs, and RT priorities are fixed.
        self._keys: List[Tuple[int, int, int]] = []
        self._queue: "List[SimLwp]" = []
        #: per CPU: a re-tick of the running LWP would be a no-op, now
        #: and later — its armed expiry is no later than the re-tick
        #: target ``max(now + MIN_RETICK_US, stamp + QUANTUM_US)``,
        #: which only moves later as time passes
        self._settled = [False] * sched.config.cpus

    # -- CPU-usage accounting ------------------------------------------

    def on_dispatch(self, lwp: "SimLwp") -> None:
        self._since_us[lwp.lwp_id] = self.sched.engine.now_us
        # a fresh quantum per selection (a preempted LWP's standing is
        # its decayed CPU use, not a banked remainder) — also keeps a
        # parked tickless slice from surviving a later contended pick
        lwp.quantum_remaining_us = 0

    def on_deschedule(self, lwp: "SimLwp") -> None:
        self._charge(lwp)

    def _charge(self, lwp: "SimLwp") -> None:
        lid = lwp.lwp_id
        now = self.sched.engine.now_us
        since = self._since_us.get(lid)
        if since is not None:
            self._used_us[lid] = self._used_us.get(lid, 0) + (now - since)
            self._since_us[lid] = now

    # -- the run queue -------------------------------------------------

    def _key(self, lwp: "SimLwp") -> Tuple[int, int, int]:
        if lwp.rt:
            return (0, -lwp.kernel_priority, lwp.enqueue_seq)
        return (1, self._used_us.get(lwp.lwp_id, 0) >> DECAY_SHIFT, lwp.enqueue_seq)

    def on_enqueue(self, lwp: "SimLwp") -> None:
        key = self._key(lwp)
        i = bisect_left(self._keys, key)
        self._keys.insert(i, key)
        self._queue.insert(i, lwp)

    def on_dequeue(self, lwp: "SimLwp") -> None:
        i = bisect_left(self._keys, self._key(lwp))
        assert self._queue[i] is lwp
        del self._keys[i]
        del self._queue[i]

    # -- the SchedulerBackend hooks ------------------------------------

    def thread_select(self, runnable: "Iterable[SimLwp]") -> "List[SimLwp]":
        # the kept order itself: the mechanism only reads it
        return self._queue

    def quantum_for(self, lwp: "SimLwp") -> int:
        if lwp.rt:
            return self.config.rt_quantum_us
        sched = self.sched
        cpu: int = lwp.cpu  # type: ignore[assignment]
        # uncontended: park the tick (XNU coalesces idle-machine timers
        # the same way); on_contention re-arms when a contender queues
        slice_us = QUANTUM_US if sched.has_contender(cpu) else TICKLESS_SLICE_US
        # the slice is armed from now; it is settled when now is also
        # the charge stamp (every dispatch and expiry; a thread handed
        # to an LWP mid-slice is the exception)
        self._settled[cpu] = (
            slice_us == QUANTUM_US
            and self._since_us.get(lwp.lwp_id) == sched.engine.now_us
        )
        return slice_us

    def quantum_expire(self, lwp: "SimLwp") -> None:
        # charge the slice into the decay accumulator mid-run, so a
        # CPU hog sinks even while it stays ONPROC
        self._charge(lwp)

    def quantum_yield(self, lwp: "SimLwp") -> bool:
        """A timeshare LWP yields to any compatible contender
        (round-robin); FIXPRI yields only to equal-or-higher RT
        priority."""
        cpu = lwp.cpu
        if not lwp.rt:
            return self.sched.has_contender(cpu)  # type: ignore[arg-type]
        if not self.sched.queued_rt:
            return False
        for other in self.sched._runnable.values():
            if (
                other.rt
                and other.kernel_priority >= lwp.kernel_priority
                and (other.bound_cpu is None or other.bound_cpu == cpu)
            ):
                return True
        return False

    def on_contention(self, runnable: "List[SimLwp]") -> None:
        """A queued LWP found no idle CPU and no victim: re-arm each
        running timeshare LWP's tick at the quantum, measured from
        the charge stamp, wherever a queued LWP may run.  That
        collapses a parked tickless slice and shortens one granted
        before the contender arrived, so round-robin resumes.

        Settled CPUs are skipped: the re-tick target
        ``max(now + MIN_RETICK_US, stamp + QUANTUM_US)`` only moves
        later as time passes, so it cannot fall below an expiry armed
        at ``stamp + QUANTUM_US`` or by an earlier re-tick."""
        sched = self.sched
        settled = self._settled
        now = sched.engine.now_us
        for cpu in sched.cpus:
            running = cpu.lwp
            if running is None or running.rt:
                continue
            i = cpu.index
            if settled[i] or not sched.has_contender(i):
                continue  # a no-op re-tick, or no contender may run here
            settled[i] = True
            ran = now - self._since_us[running.lwp_id]
            sched.retick(running, max(MIN_RETICK_US, QUANTUM_US - ran))

    def pick_victim(
        self, candidates: "List[SimLwp]"
    ) -> "Optional[Tuple[SimLwp, SimCpu]]":
        """FIXPRI displaces a timeshare LWP or a lower RT priority.  A
        timeshare candidate never preempts, and candidates come
        RT-first, so the first timeshare candidate ends the search."""
        cpus = self.sched.cpus
        for lwp in candidates:
            if not lwp.rt:
                return None
            cpu = rt_victim(lwp, cpus)
            if cpu is not None:
                return lwp, cpu
        return None
