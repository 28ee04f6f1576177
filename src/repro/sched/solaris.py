"""The Solaris 2.5 TS/RT dispatch policy as a scheduler backend (§3.2).

This is the policy half of the original two-level model, extracted
verbatim from the scheduler so the mechanism could host other kernels.
Its decisions are **bit-identical** to the pre-refactor scheduler — the
differential parity suite (``tests/test_replay_fastpath.py``,
``tests/test_sched_parity.py``) pins that:

* effective priority is the Solaris global priority ordering: every RT
  LWP outranks every TS LWP, fixed within its class;
* dispatch order is ``(-effective priority, enqueue_seq)`` — strict
  priority with FIFO among equals;
* TS LWPs age by the dispatch table: *tqexp* demotion on quantum
  expiry, *slpret* lift on sleep return, *maxwait/lwait* starvation
  lifts applied during dispatch; RT priorities never move;
* preemption displaces the lowest-priority running LWP strictly below
  the candidate (first-lowest in CPU order), searched once per
  dispatch pass;
* on expiry the LWP yields only to an equal-or-higher priority queued
  contender that may run on its CPU, else it runs another slice.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Optional, Tuple

from repro.sched.base import SchedulerBackend, register_backend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.solaris.lwp import SimLwp
    from repro.solaris.scheduler import SimCpu

__all__ = ["SolarisBackend"]


def _effective_priority(lwp: "SimLwp") -> int:
    """Global dispatch priority: every RT LWP outranks every TS LWP
    (the Solaris global priority ordering), fixed within its class."""
    return lwp.kernel_priority + (1_000 if lwp.rt else 0)


@register_backend
class SolarisBackend(SchedulerBackend):
    """Two-level Solaris 2.5 kernel dispatch (the paper's model)."""

    name = "solaris"
    version = 1

    def thread_setrun(self, lwp: "SimLwp", boost: bool) -> None:
        # sleep-return lift (slpret); RT priorities are fixed
        if boost and not lwp.rt:
            lwp.kernel_priority = self.dispatch_table.after_sleep(
                lwp.kernel_priority
            )

    def sched_tick(self, runnable: "Iterable[SimLwp]", now: int) -> None:
        # starvation lifts (maxwait/lwait), applied while dispatching
        dispatch = self.dispatch_table
        for lwp in runnable:
            if lwp.rt:
                continue  # RT priorities are fixed, never lifted
            waited = now - lwp.runnable_since_us
            if waited > dispatch.maxwait_us(lwp.kernel_priority):
                lwp.kernel_priority = dispatch.after_starvation(
                    lwp.kernel_priority
                )
                lwp.runnable_since_us = now

    def thread_select(self, runnable: "Iterable[SimLwp]") -> "List[SimLwp]":
        ranked = list(runnable)
        if len(ranked) > 1:
            ranked.sort(key=lambda l: (-_effective_priority(l), l.enqueue_seq))
        return ranked

    def quantum_for(self, lwp: "SimLwp") -> int:
        if lwp.rt:
            return self.config.rt_quantum_us
        return self.dispatch_table.quantum_us(lwp.kernel_priority)

    def quantum_expire(self, lwp: "SimLwp") -> None:
        if not lwp.rt:
            # TS aging; RT priorities are fixed (pure round-robin)
            lwp.kernel_priority = self.dispatch_table.after_quantum_expiry(
                lwp.kernel_priority
            )

    def quantum_yield(self, lwp: "SimLwp") -> bool:
        my_pri = _effective_priority(lwp)
        for other in self.sched._runnable.values():
            if _effective_priority(other) >= my_pri and (
                other.bound_cpu is None or other.bound_cpu == lwp.cpu
            ):
                return True
        return False

    def pick_victim(
        self, candidates: "List[SimLwp]"
    ) -> "Optional[Tuple[SimLwp, SimCpu]]":
        # displace the lowest-priority running LWP that is strictly
        # below the candidate (RT outranks every TS LWP), first-lowest
        # in CPU order
        cpus = self.sched.cpus
        lowest: "Optional[SimCpu]" = None
        low_pri = 0
        for lwp in candidates:
            my_pri = _effective_priority(lwp)
            if lwp.bound_cpu is not None:
                cpu = cpus[lwp.bound_cpu]
                if _effective_priority(cpu.lwp) < my_pri:  # type: ignore[arg-type]
                    return lwp, cpu
                continue
            if lowest is None:
                # an unbound candidate is searched only when every CPU
                # is busy
                for cpu in cpus:
                    pri = _effective_priority(cpu.lwp)  # type: ignore[arg-type]
                    if lowest is None or pri < low_pri:
                        lowest, low_pri = cpu, pri
            if low_pri < my_pri:
                return lwp, lowest  # type: ignore[return-value]
            # candidates come in falling priority, and a pinned one may
            # displace only a subset of these LWPs: nobody later wins
            return None
        return None
