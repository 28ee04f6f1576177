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
with ``on_contention`` re-arming the tick when one appears.  This is a
*style* port, not a port of the XNU sources: the second hierarchy level
(per-thread-group clutch buckets) is collapsed, since the simulated
process is a single thread group.  All arithmetic is integer and all
orderings close ties by ``enqueue_seq``, keeping replay deterministic.
"""

from __future__ import annotations

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

__all__ = ["ClutchBackend"]

#: time slice of the timeshare bucket (µs, XNU's DF quantum)
QUANTUM_US = 6_000

#: timeshare decay: one level per 2^14 µs (~16 ms) of consumed CPU
DECAY_SHIFT = 14


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

    # -- the SchedulerBackend hooks ------------------------------------

    def thread_select(self, runnable: "List[SimLwp]") -> "List[SimLwp]":
        if len(runnable) <= 1:
            return runnable
        used = self._used_us
        runnable.sort(
            key=lambda l: (0, -l.kernel_priority, l.enqueue_seq)
            if l.rt
            else (1, used.get(l.lwp_id, 0) >> DECAY_SHIFT, l.enqueue_seq)
        )
        return runnable

    def quantum_for(self, lwp: "SimLwp") -> int:
        if lwp.rt:
            return self.config.rt_quantum_us
        cpu = lwp.cpu
        for other in self.sched._runnable.values():
            if other.bound_cpu is None or other.bound_cpu == cpu:
                return QUANTUM_US
        # uncontended: park the tick (XNU coalesces idle-machine timers
        # the same way); on_contention re-arms when a contender queues
        return TICKLESS_SLICE_US

    def quantum_expire(self, lwp: "SimLwp") -> None:
        # charge the slice into the decay accumulator mid-run, so a
        # CPU hog sinks even while it stays ONPROC
        self._charge(lwp)

    def quantum_yield(self, lwp: "SimLwp") -> bool:
        """A timeshare LWP yields to any compatible contender
        (round-robin); FIXPRI yields only to equal-or-higher RT
        priority."""
        cpu = lwp.cpu
        for other in self.sched._runnable.values():
            if (other.bound_cpu is None or other.bound_cpu == cpu) and (
                not lwp.rt
                or (other.rt and other.kernel_priority >= lwp.kernel_priority)
            ):
                return True
        return False

    def on_contention(self, runnable: "List[SimLwp]") -> None:
        """A queued LWP found no idle CPU and no victim: re-arm each
        running timeshare LWP's tick at the quantum, measured from
        dispatch, wherever a queued LWP may run.  That collapses a
        parked tickless slice and shortens one granted before the
        contender arrived, so round-robin resumes."""
        anywhere = False
        pinned = set()
        for other in runnable:
            if other.bound_cpu is None:
                anywhere = True
                break
            pinned.add(other.bound_cpu)
        now = self.sched.engine.now_us
        retick = self.sched.retick
        for cpu in self.sched.cpus:
            running = cpu.lwp
            if running is None or running.rt:
                continue
            if not anywhere and cpu.index not in pinned:
                continue  # no contender may run here
            ran = now - self._since_us.get(running.lwp_id, now)
            retick(running, max(1_000, QUANTUM_US - ran))

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
