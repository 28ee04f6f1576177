"""A Clutch-style scheduler backend (XNU's EDF root-bucket design).

Models the top level of Apple's Clutch hierarchy on this simulator's
LWP population:

* LWPs map to **root buckets** by scheduling class and priority band —
  RT LWPs land in FIXPRI; TS LWPs in FG / IN / DF / UT / BG by their
  recorded kernel priority (see :func:`_bucket_for`);
* the runnable bucket with the **earliest deadline** runs first.  A
  bucket's deadline is set to ``now + WCEL`` (worst-case execution
  latency) when it turns non-empty, so interactive buckets with short
  WCELs bound their scheduling latency while batch buckets soak up the
  remaining bandwidth — and a long-queued background bucket eventually
  outranks everyone, which is the design's starvation avoidance;
* higher buckets hold a **warp budget**: while it lasts they may jump
  ahead of an earlier-deadline lower bucket (low-latency bursts).  A
  warped selection charges the bucket its quantum; winning a selection
  on deadline merit refills the budget.  Warp bends selection order
  only — preemption and expiry decisions compare plain deadlines;
* within a bucket, **timeshare decay** orders LWPs: an LWP's intra-
  bucket priority falls by one level per ``2^DECAY_SHIFT`` µs of CPU it
  has consumed, FIFO among equals — CPU hogs sink, interactive LWPs
  stay near the front;
* FIXPRI ignores all of that: it always outranks the share buckets and
  orders by raw RT priority (matching the Solaris RT invariant, so RT
  conformance tests hold across backends).

WCEL, warp and quantum values follow the published XNU tables
(microseconds).  Quanta are granted fresh per selection, and on an
uncontended processor the tick is parked entirely (XNU coalesces idle
timers the same way): round-robin ticking only runs while a compatible
contender is queued, with ``on_contention`` re-arming the tick when one
appears.  This is a *style* port, not a port of the XNU sources:
the second hierarchy level (per-thread-group clutch buckets) is
collapsed, since the simulated process is a single thread group.  All
arithmetic is integer and all orderings close ties by ``enqueue_seq``,
keeping replay deterministic.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.core.ids import LwpId
from repro.sched.base import (
    TICKLESS_SLICE_US,
    SchedulerBackend,
    register_backend,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.solaris.lwp import SimLwp
    from repro.solaris.scheduler import SimCpu

__all__ = ["ClutchBackend"]

# root buckets, highest first
FIXPRI, FG, IN, DF, UT, BG = range(6)
_SHARE_BUCKETS = (FG, IN, DF, UT, BG)

#: worst-case execution latency per share bucket (µs, XNU values)
WCEL_US = {FG: 0, IN: 37_500, DF: 75_000, UT: 150_000, BG: 250_000}
#: warp budget per share bucket (µs, XNU values)
WARP_US = {FG: 8_000, IN: 4_000, DF: 2_000, UT: 1_000, BG: 0}
#: time slice per share bucket (µs)
QUANTUM_US = {FG: 10_000, IN: 8_000, DF: 6_000, UT: 4_000, BG: 2_000}

#: intra-bucket timeshare decay: one priority level per 2^14 µs (~16 ms)
#: of consumed CPU
DECAY_SHIFT = 14


def _bucket_for(lwp: "SimLwp") -> int:
    """Map an LWP to its root bucket by class and priority band."""
    if lwp.rt:
        return FIXPRI
    kp = lwp.kernel_priority
    if kp >= 45:
        return FG
    if kp >= 35:
        return IN
    if kp >= 25:
        return DF
    if kp >= 10:
        return UT
    return BG


@register_backend
class ClutchBackend(SchedulerBackend):
    """EDF root buckets + warp budgets + timeshare decay."""

    name = "clutch"
    version = 1

    def bind(self, sched) -> None:
        super().bind(sched)
        #: absolute deadline of each currently non-empty share bucket
        self._deadline: Dict[int, int] = {}
        #: remaining warp budget per share bucket
        self._warp: Dict[int, int] = dict(WARP_US)
        #: CPU consumed per LWP id (drives timeshare decay)
        self._used_us: Dict[LwpId, int] = {}
        #: dispatch timestamp per LWP id (charge basis)
        self._since_us: Dict[LwpId, int] = {}
        #: root bucket per LWP id, set when the LWP is queued (every LWP
        #: the mechanism asks about, queued or running, has been queued)
        self._bucket: Dict[LwpId, int] = {}
        #: queued LWPs per root bucket
        self._queued = [0] * (BG + 1)

    # -- the run queue -------------------------------------------------

    def on_enqueue(self, lwp: "SimLwp") -> None:
        bucket = self._bucket[lwp.lwp_id] = _bucket_for(lwp)
        self._queued[bucket] += 1

    def on_dequeue(self, lwp: "SimLwp") -> None:
        self._queued[self._bucket[lwp.lwp_id]] -= 1

    # -- CPU-usage accounting ------------------------------------------

    def on_dispatch(self, lwp: "SimLwp") -> None:
        self._since_us[lwp.lwp_id] = self.sched.engine.now_us
        # a fresh quantum per selection (a preempted LWP's standing is
        # its bucket deadline, not a banked remainder) — also keeps a
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

    def _intra_priority(self, lwp: "SimLwp") -> int:
        """Decayed in-bucket priority: base level minus consumed CPU."""
        return lwp.kernel_priority - (self._used_us.get(lwp.lwp_id, 0) >> DECAY_SHIFT)

    def _bucket_key(self, bucket: int, now: int) -> Tuple[int, int]:
        """Deadline-ordering key of *bucket* (lower runs first).

        An empty bucket — e.g. the bucket of an ONPROC LWP with no
        queued siblings — gets the deadline it *would* receive if it
        turned non-empty now, so running LWPs compare fairly against
        queued ones.
        """
        if bucket == FIXPRI:
            return (0, 0)
        return (1, self._deadline.get(bucket, now + WCEL_US[bucket]))

    # -- the SchedulerBackend hooks ------------------------------------

    def thread_setrun(self, lwp: "SimLwp", boost: bool) -> None:
        # a fresh wake needs no per-LWP placement state (deadlines
        # refresh in sched_tick)
        pass

    def sched_tick(self, runnable: "List[SimLwp]", now: int) -> None:
        """Refresh bucket deadlines against the current runnable set
        (kept as per-bucket counts by the run-queue hooks)."""
        queued = self._queued
        deadline = self._deadline
        for b in list(deadline):
            if not queued[b]:
                del deadline[b]  # bucket drained: deadline resets
        for b in _SHARE_BUCKETS:
            if queued[b] and b not in deadline:
                deadline[b] = now + WCEL_US[b]

    def thread_select(self, runnable: "List[SimLwp]") -> "List[SimLwp]":
        if len(runnable) <= 1:
            return runnable
        rank = self._select_ranks()
        bucket = self._bucket
        intra = self._intra_priority
        runnable.sort(
            key=lambda l: (
                rank[bucket[l.lwp_id]],
                -(l.kernel_priority if l.rt else intra(l)),
                l.enqueue_seq,
            )
        )
        return runnable

    def _select_ranks(self) -> Dict[int, int]:
        """Dispatch rank of every bucket for one selection (lower runs
        first): FIXPRI, then the EDF winner among non-empty share
        buckets — displaced by the highest warping bucket when one has
        budget — then the rest by deadline, then empty buckets."""
        order: Dict[int, int] = {FIXPRI: 0}
        nonempty = sorted(self._deadline.items(), key=lambda kv: (kv[1], kv[0]))
        ranked = [b for b, _ in nonempty]
        if ranked:
            winner = ranked[0]
            for b in _SHARE_BUCKETS:  # highest share bucket first
                if b >= winner:
                    # deadline-merit win: the warp budget refills
                    self._warp[winner] = WARP_US[winner]
                    break
                if b in self._deadline and self._warp[b] > 0:
                    self._warp[b] = max(0, self._warp[b] - QUANTUM_US[b])
                    ranked.remove(b)
                    ranked.insert(0, b)
                    break
        rank = 1
        for b in ranked:
            order[b] = rank
            rank += 1
        for b in _SHARE_BUCKETS:
            if b not in order:
                order[b] = rank
                rank += 1
        return order

    def quantum_for(self, lwp: "SimLwp") -> int:
        if lwp.rt:
            return self.config.rt_quantum_us
        cpu = lwp.cpu
        for other in self.sched._runnable.values():
            if other.bound_cpu is None or other.bound_cpu == cpu:
                return QUANTUM_US[self._bucket[lwp.lwp_id]]
        # uncontended: park the tick (XNU coalesces idle-machine timers
        # the same way); on_contention re-arms when a contender queues
        return TICKLESS_SLICE_US

    def quantum_expire(self, lwp: "SimLwp") -> None:
        # charge the slice into the decay accumulator mid-run, so a
        # CPU hog sinks within its bucket even while it stays ONPROC
        self._charge(lwp)

    def quantum_yield(self, lwp: "SimLwp") -> bool:
        """Yield to any compatible contender whose bucket deadline is
        no later than ours (round-robin within a bucket); FIXPRI yields
        only to equal-or-higher RT priority."""
        runnable = self.sched._runnable
        if not runnable:
            return False
        cpu = lwp.cpu
        if lwp.rt:
            for other in runnable.values():
                if (
                    other.rt
                    and other.kernel_priority >= lwp.kernel_priority
                    and (other.bound_cpu is None or other.bound_cpu == cpu)
                ):
                    return True
            return False
        now = self.sched.engine.now_us
        bucket_key = self._bucket_key
        bucket = self._bucket
        mine = bucket_key(bucket[lwp.lwp_id], now)
        for other in runnable.values():
            if (other.bound_cpu is None or other.bound_cpu == cpu) and (
                bucket_key(bucket[other.lwp_id], now) <= mine
            ):
                return True
        return False

    def on_contention(self, runnable: "List[SimLwp]") -> None:
        """A queued LWP found no idle CPU and no victim: re-arm each
        running LWP's tick at its bucket quantum, measured from
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
            quantum = QUANTUM_US[self._bucket[running.lwp_id]]
            ran = now - self._since_us.get(running.lwp_id, now)
            retick(running, max(1_000, quantum - ran))

    def pick_victim(
        self, candidates: "List[SimLwp]"
    ) -> "Optional[Tuple[SimLwp, SimCpu]]":
        """Preempt the running LWP whose bucket deadline is latest and
        strictly later than the candidate's (no same-deadline
        preemption); FIXPRI additionally displaces lower RT priority."""
        cpus = self.sched.cpus
        now = self.sched.engine.now_us
        bucket_key = self._bucket_key
        bucket = self._bucket
        # the running LWPs' bucket keys, and the latest (first in CPU
        # order), once per pass
        keys: "List[Optional[Tuple[int, int]]]" = []
        latest = 0
        for cpu in cpus:
            running = cpu.lwp
            key = None if running is None else bucket_key(bucket[running.lwp_id], now)
            keys.append(key)
            if key is not None and (keys[latest] is None or key > keys[latest]):  # type: ignore[operator]
                latest = cpu.index
        for lwp in candidates:
            mine = bucket_key(bucket[lwp.lwp_id], now)
            pin = lwp.bound_cpu
            victim = latest if pin is None else pin
            if keys[victim] > mine:  # type: ignore[operator]
                return lwp, cpus[victim]
            if lwp.rt:
                # FIXPRI round 2: displace a strictly lower RT priority
                victim_cpu: "Optional[SimCpu]" = None
                victim_pri = lwp.kernel_priority
                for cpu in cpus if pin is None else (cpus[pin],):
                    running = cpu.lwp
                    assert running is not None
                    if running.rt and running.kernel_priority < victim_pri:
                        victim_pri = running.kernel_priority
                        victim_cpu = cpu
                if victim_cpu is not None:
                    return lwp, victim_cpu
        return None
