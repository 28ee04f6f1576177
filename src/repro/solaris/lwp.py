"""Lightweight process (LWP) model.

"Between the user-level and kernel threads are LWPs.  Each Solaris process
contains at least one LWP. ... There is a kernel thread for each LWP.
Kernel threads are the only objects scheduled by the operating system."
(§3.2)

A :class:`SimLwp` is the schedulable kernel entity: it carries the TS-class
kernel priority and quantum accounting, and at any instant runs at most one
user-level thread.  Dedicated LWPs serve bound threads; the rest form the
pool unbound threads multiplex onto.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from repro.core.ids import LwpId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.solaris.thread_model import SimThread

__all__ = ["LwpState", "SimLwp"]


class LwpState(enum.Enum):
    """Kernel scheduling state of an LWP."""

    IDLE = "idle"  # in the pool, no user thread attached
    RUNNABLE = "runnable"  # has a thread, waiting for a CPU
    ONPROC = "onproc"  # executing on a CPU
    SLEEPING = "sleeping"  # its thread is blocked/sleeping (bound case) or parked


@dataclass(slots=True)
class SimLwp:
    """A simulated LWP / kernel thread pair.

    Attributes
    ----------
    lwp_id:
        Small integer id.
    dedicated:
        True when this LWP exists solely to serve one bound thread.
    kernel_priority:
        Current TS-class level (0..59); adjusted by the dispatcher on
        quantum expiry and sleep return, exactly as §3.2 describes.
    quantum_remaining_us:
        The slice the LWP's quantum timer is armed with next: sized by
        the backend at dispatch or expiry, or saved from the armed
        timer when the LWP leaves its CPU mid-slice.  While the LWP
        runs, what is left of its slice is in the armed quantum event.
    bound_cpu:
        CPU this LWP must run on (propagated from a CPU-bound thread).
    """

    lwp_id: LwpId
    dedicated: bool = False
    kernel_priority: int = 29
    #: real-time class member: fixed priority above every TS LWP, never
    #: aged, round-robin on the RT quantum
    rt: bool = False
    quantum_remaining_us: int = 0
    bound_cpu: Optional[int] = None

    state: LwpState = LwpState.IDLE
    thread: Optional["SimThread"] = None
    cpu: Optional[int] = None

    #: The user thread this LWP most recently ran; switching to a different
    #: one costs a user-level context switch (CostModel.thread_switch_us).
    last_thread_tid: Optional[int] = None

    #: FIFO tie-break for kernel run queues.
    enqueue_seq: int = 0

    #: When the LWP last joined the kernel run queue (starvation boosts).
    runnable_since_us: int = 0

    # --- accounting ---------------------------------------------------
    quantum_expiries: int = 0

    #: Quantum-expiry closure cached by the scheduler (built once per LWP
    #: instead of one lambda per arm).
    quantum_action: Optional[Callable[[], None]] = field(
        default=None, repr=False, compare=False
    )

    #: The LWP's quantum ScheduledEvent, re-armed for every slice; between
    #: events, armed exactly while the LWP is ONPROC under time slicing.
    quantum_event: Optional[object] = field(default=None, repr=False, compare=False)

    @property
    def busy(self) -> bool:
        return self.thread is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        who = f"T{int(self.thread.tid)}" if self.thread else "-"
        return (
            f"<LWP{int(self.lwp_id)} {self.state.value} pri={self.kernel_priority} "
            f"thr={who} cpu={self.cpu}>"
        )
