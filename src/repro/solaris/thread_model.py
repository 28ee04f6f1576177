"""User-level thread model.

In Solaris 2.x (§3.2 of the paper) application programmers express
parallelism with *user-level threads*, which are multiplexed on LWPs unless
bound.  This module holds the simulated thread object: identity, scheduling
attributes (priority, boundness, CPU binding), lifecycle state, and the
times the Visualizer's event popup reports (start/end time, total
lifetime).  The time a thread spent actually working is not kept here:
:class:`~repro.core.result.SimulationResult` sums it from the run's
thread-state flips when its summaries are read.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from repro.core.ids import ThreadId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.solaris.lwp import SimLwp

__all__ = ["ThreadState", "SimThread", "DEFAULT_USER_PRIORITY"]

#: Default user-level priority for new threads (``thr_create`` with no
#: priority attribute).  Higher numbers are more urgent, as in Solaris.
DEFAULT_USER_PRIORITY = 1


class ThreadState(enum.Enum):
    """Lifecycle of a simulated user-level thread.

    The Visualizer maps these to the execution-flow graph (§3.3): RUNNING
    is a solid line, RUNNABLE a grey line ("ready to run but does not have
    any LWP or CPU to run on"), BLOCKED/SLEEPING no line.  ZOMBIE has
    exited but not yet been joined; DEAD is fully reaped.
    """

    EMBRYO = "embryo"  # created, creation cost still being paid
    RUNNABLE = "runnable"
    RUNNING = "running"
    BLOCKED = "blocked"  # waiting on a synchronisation object or join
    SLEEPING = "sleeping"  # in a pure delay (replayed timed-out wait)
    ZOMBIE = "zombie"
    DEAD = "dead"


@dataclass(slots=True)
class SimThread:
    """A simulated user-level thread.

    Attributes
    ----------
    tid:
        Solaris-style small-integer thread id (main thread is 1).
    func_name:
        Name of the start routine (shown in the Visualizer popup).
    priority:
        User-level scheduling priority; may be overridden globally via
        :class:`~repro.core.config.SimConfig` (§3.2: an override makes the
        thread's own ``thr_setprio`` events ignored).
    bound:
        True when the thread is bound to an LWP.
    bound_cpu:
        CPU this thread (and its LWP) is pinned to, or None.
    priority_locked:
        Set when the user supplied an explicit priority in the simulation
        configuration; ``thr_setprio`` is then a no-op for this thread.
    """

    tid: ThreadId
    func_name: str = ""
    priority: int = DEFAULT_USER_PRIORITY
    bound: bool = False
    bound_cpu: Optional[int] = None
    priority_locked: bool = False
    #: Solaris RT-class priority for this thread's LWP (None = TS class)
    rt_priority: Optional[int] = None

    # --- dynamic scheduling state -----------------------------------------
    state: ThreadState = ThreadState.EMBRYO
    lwp: Optional["SimLwp"] = None
    last_cpu: Optional[int] = None

    #: Remaining CPU time of the burst in flight when the LWP was preempted.
    burst_remaining_us: int = 0

    #: Monotonic sequence number used for FIFO tie-breaks in run queues.
    enqueue_seq: int = 0

    # --- accounting for the Visualizer popup (§3.3) ------------------------
    start_time_us: Optional[int] = None
    end_time_us: Optional[int] = None
    created_at_us: int = 0

    #: Time at which the thread last entered the RUNNABLE state (for
    #: starvation boosts and queue statistics).
    runnable_since_us: int = 0

    #: Burst-completion closure (``Simulator._bind_burst``), built once
    #: per thread and armed for every burst.
    burst_action: Optional[Callable[[], None]] = field(
        default=None, repr=False, compare=False
    )

    #: The thread's burst ScheduledEvent, re-armed by ``begin_burst``
    #: for every burst.
    burst_event: Optional[object] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.bound_cpu is not None:
            self.bound = True

    # ------------------------------------------------------------------

    @property
    def alive(self) -> bool:
        return self.state not in (ThreadState.ZOMBIE, ThreadState.DEAD)

    def set_priority(self, priority: int) -> bool:
        """Apply ``thr_setprio``; returns False when the configuration
        override locks this thread's priority (§3.2)."""
        if self.priority_locked:
            return False
        self.priority = priority
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = "B" if self.bound else "u"
        if self.bound_cpu is not None:
            flags += f"@cpu{self.bound_cpu}"
        return f"<T{int(self.tid)} {self.func_name or '?'} {self.state.value} {flags}>"
