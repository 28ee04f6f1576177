"""Discrete-event simulation core.

"Our simulation technique is an ordinary event-driven approach" (§3.2).
This module provides that core: a monotonically advancing integer-µs clock
and a priority queue of scheduled actions.  The Solaris scheduling model
sits on top (:mod:`repro.solaris.scheduler`); this layer knows nothing
about threads or CPUs.

Scheduled actions are cancellable (needed for quantum expiry timers that a
block cancels, and for timed waits a signal cancels).  Ties are broken by
insertion order so runs are fully deterministic.

Cancelling an event, or running it, clears its ``seq``, so ``seq >= 0``
(:attr:`ScheduledEvent.armed`) means "queued, not yet run".  The engine
clears it just before calling the action, so an action that re-arms its
own event leaves it armed.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.core.errors import BudgetExceededError, LivelockError, SimulationError

__all__ = ["ScheduledEvent", "EventQueue", "Engine", "Watchdog"]


@dataclass
class Watchdog:
    """Progress budgets for one engine run.

    The engine's built-in ``max_events`` is a livelock *verdict* (the
    simulated program is broken); a watchdog is a *resource budget* (the
    caller will not wait longer), raised as
    :class:`~repro.core.errors.BudgetExceededError` so the two are
    distinguishable.  ``max_wall_s`` is checked every ``check_every``
    events to keep the hot loop cheap.
    """

    max_events: Optional[int] = None
    max_time_us: Optional[int] = None
    max_wall_s: Optional[float] = None
    check_every: int = 4096

    def __post_init__(self) -> None:
        if self.check_every < 1:
            raise ValueError(f"check_every must be >= 1, got {self.check_every}")


class ScheduledEvent:
    """Handle to an action scheduled on the engine.

    A heap entry ``(time_us, seq, event)`` is live while the event's
    ``seq`` is the entry's: ``cancel()`` and running the event clear
    it, and re-arming the event (:meth:`EventQueue.repush`) gives it a
    new one, so a stale entry is skipped when popped (lazy deletion —
    O(1) cancel, and the heap stays a heap).  Cancelling an event that
    already ran is a no-op.
    """

    __slots__ = ("time_us", "seq", "action", "label")

    def __init__(self, time_us: int, seq: int, action: Callable[[], None], label: str):
        self.time_us = time_us
        self.seq = seq
        self.action = action
        self.label = label

    def cancel(self) -> None:
        self.seq = -1

    @property
    def armed(self) -> bool:
        return self.seq >= 0

    def __lt__(self, other: "ScheduledEvent") -> bool:
        return (self.time_us, self.seq) < (other.time_us, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "" if self.armed else " unarmed"
        return f"<event {self.label!r} @{self.time_us}us{state}>"


class EventQueue:
    """A lazy-deletion binary heap of :class:`ScheduledEvent`.

    The heap stores ``(time_us, seq, event)`` tuples so ordering is decided
    by C-level tuple comparison; ``ScheduledEvent.__lt__`` exists only for
    callers that compare handles directly.  Profiling showed the Python
    ``__lt__`` dominating replay (one call per sift step per event).
    """

    def __init__(self) -> None:
        self._heap: List[tuple] = []
        self._counter = itertools.count()

    def push(self, time_us: int, action: Callable[[], None], label: str = "") -> ScheduledEvent:
        ev = ScheduledEvent(time_us, next(self._counter), action, label)
        heapq.heappush(self._heap, (time_us, ev.seq, ev))
        return ev

    def repush(self, time_us: int, ev: ScheduledEvent) -> ScheduledEvent:
        """Re-arm event object *ev* at a new time.

        The scheduler recycles each thread's one-in-flight burst event and
        each LWP's quantum event through this instead of allocating a fresh
        :class:`ScheduledEvent` per arm: executed, cancelled or still
        armed, *ev* takes a new ``seq`` (one draw from the counter, as a
        push makes), so its old heap entry, if any, goes dead.
        """
        seq = next(self._counter)
        ev.time_us = time_us
        ev.seq = seq
        heapq.heappush(self._heap, (time_us, seq, ev))
        return ev

    def pop(self) -> Optional[ScheduledEvent]:
        """Pop the earliest live event, disarmed, or None when the queue
        is drained."""
        while self._heap:
            _, seq, ev = heapq.heappop(self._heap)
            if seq == ev.seq:
                ev.seq = -1
                return ev
        return None

    def peek_time(self) -> Optional[int]:
        """Timestamp of the earliest live event without popping it."""
        while self._heap and self._heap[0][1] != self._heap[0][2].seq:
            heapq.heappop(self._heap)
        return self._heap[0][0] if self._heap else None

    def __len__(self) -> int:
        return sum(1 for _, seq, ev in self._heap if seq == ev.seq)

    def __bool__(self) -> bool:
        return self.peek_time() is not None


class Engine:
    """The event loop: a clock plus an :class:`EventQueue`.

    Parameters
    ----------
    max_events:
        Safety valve against livelock: if more than this many events execute
        the run aborts with :class:`~repro.core.errors.LivelockError`.  The
        paper notes (§6) that a thread spinning on a variable livelocks the
        one-LWP monitored run; our DSL cannot spin, but a buggy behaviour
        could schedule zero-length work forever, and this bound catches it.
    """

    def __init__(
        self,
        *,
        max_events: int = 50_000_000,
        watchdog: Optional[Watchdog] = None,
    ):
        self.now_us: int = 0
        self.queue = EventQueue()
        self.max_events = max_events
        self.watchdog = watchdog
        self.events_executed = 0
        self._wall_start: Optional[float] = None

    # ------------------------------------------------------------------

    def schedule_at(self, time_us: int, action: Callable[[], None], label: str = "") -> ScheduledEvent:
        """Schedule *action* at absolute simulated time *time_us*."""
        if time_us < self.now_us:
            raise SimulationError(
                f"cannot schedule in the past: now={self.now_us} target={time_us} ({label})"
            )
        return self.queue.push(time_us, action, label)

    def schedule_in(self, delay_us: int, action: Callable[[], None], label: str = "") -> ScheduledEvent:
        """Schedule *action* *delay_us* µs from now."""
        if delay_us < 0:
            raise SimulationError(f"negative delay {delay_us} ({label})")
        return self.queue.push(self.now_us + delay_us, action, label)

    # ------------------------------------------------------------------

    def run(self) -> int:
        """Run until the queue drains; return the final simulated time.

        This is the innermost loop of every simulation, so the hot state is
        bound to locals: the heap list is consumed directly (actions push
        onto the same list object via :meth:`EventQueue.push`), ``heappop``
        is a local, and the budget checks are inlined integer compares with
        exactly the legacy trip points.  Only the wall-clock probe is
        amortised (every ``check_every`` events, as before).  Each event
        is disarmed just before its action runs.
        """
        watchdog = self.watchdog
        if watchdog is not None and self._wall_start is None:
            self._wall_start = time.monotonic()
        heap = self.queue._heap
        heappop = heapq.heappop
        max_events = self.max_events
        if watchdog is not None:
            wd_events = watchdog.max_events
            wd_time_us = watchdog.max_time_us
            wd_wall_s = watchdog.max_wall_s
            check_every = watchdog.check_every
        else:
            wd_events = wd_time_us = wd_wall_s = None
            check_every = 0
        executed = self.events_executed
        try:
            while heap:
                time_us, seq, ev = heappop(heap)
                if seq != ev.seq:
                    continue  # cancelled, or re-armed since
                if time_us < self.now_us:
                    raise SimulationError(
                        f"time went backwards: now={self.now_us}, event={ev!r}"
                    )
                self.now_us = time_us
                executed += 1
                if executed > max_events:
                    raise LivelockError(
                        f"exceeded {max_events} events at t={self.now_us}us; "
                        "simulation is likely livelocked"
                    )
                if wd_events is not None and executed > wd_events:
                    raise BudgetExceededError(
                        f"event budget of {wd_events} exhausted "
                        f"at t={self.now_us}us",
                        budget="events",
                    )
                if wd_time_us is not None and time_us > wd_time_us:
                    raise BudgetExceededError(
                        f"simulated-time budget of {wd_time_us}us exhausted",
                        budget="simulated-time",
                    )
                if (
                    wd_wall_s is not None
                    and executed % check_every == 0
                    and time.monotonic() - (self._wall_start or 0.0) > wd_wall_s
                ):
                    raise BudgetExceededError(
                        f"wall-clock budget of {wd_wall_s}s exhausted "
                        f"after {executed} events (t={self.now_us}us)",
                        budget="wall-clock",
                    )
                ev.seq = -1
                ev.action()
            return self.now_us
        finally:
            self.events_executed = executed

    def step(self) -> bool:
        """Execute a single event (disarmed by the pop); return False
        when the queue is empty."""
        ev = self.queue.pop()
        if ev is None:
            return False
        self.now_us = ev.time_us
        self.events_executed += 1
        ev.action()
        return True
