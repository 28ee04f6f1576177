"""Reusable resilience primitives for the service layer.

Everything a front end needs to degrade gracefully instead of failing
hard, with no policy baked in:

* :class:`CircuitBreaker` — trip after consecutive failures, fail fast
  while open, half-open with probe requests after a cooldown;
* :func:`backoff_delays` — exponential backoff with deterministic full
  jitter (an explicit RNG, so tests replay the exact schedule);
* :class:`AdmissionGate` — a bounded in-flight counter that sheds load
  once a watermark is crossed, instead of queueing unboundedly.

All clocks and sleeps are injectable; nothing here touches the network
or the event loop, so the same primitives serve the asyncio front end
(:mod:`repro.jobs.service_async`), the pool-rebuild logic in
:class:`~repro.jobs.engine.JobEngine`, and the ``vppb client`` retry
loop.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Callable, Iterator, Optional

__all__ = [
    "AdmissionGate",
    "CircuitBreaker",
    "backoff_delays",
]


# ---------------------------------------------------------------------------
# circuit breaker
# ---------------------------------------------------------------------------


class CircuitBreaker:
    """Trip on consecutive failures; half-open with probes after cooldown.

    States:

    * **closed** — everything is admitted; consecutive failures are
      counted and a success resets the count;
    * **open** — entered when the count reaches ``failure_threshold``;
      :meth:`allow` refuses everything until ``cooldown_s`` has passed;
    * **half-open** — after the cooldown one caller is admitted as a
      *probe* (further callers are refused while it is in flight); a
      recorded success closes the breaker, a failure re-opens it and
      restarts the cooldown.

    Thread-safe.  ``clock`` defaults to :func:`time.monotonic` and is
    injectable so state transitions are testable without sleeping.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(
        self,
        *,
        failure_threshold: int = 3,
        cooldown_s: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if cooldown_s < 0:
            raise ValueError(f"cooldown_s must be >= 0, got {cooldown_s}")
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self._clock = clock
        self._lock = threading.Lock()
        self._state = self.CLOSED
        self._consecutive_failures = 0
        self._opened_at: Optional[float] = None
        self._probe_in_flight = False
        self.trips = 0  # lifetime count of closed/half-open -> open

    # -- state transitions (callers hold no lock) -----------------------

    @property
    def state(self) -> str:
        with self._lock:
            return self._state_locked()

    def _state_locked(self) -> str:
        if (
            self._state == self.OPEN
            and self._opened_at is not None
            and self._clock() - self._opened_at >= self.cooldown_s
        ):
            self._state = self.HALF_OPEN
            self._probe_in_flight = False
        return self._state

    def allow(self) -> bool:
        """May the caller proceed?  In half-open, admits one probe."""
        with self._lock:
            state = self._state_locked()
            if state == self.CLOSED:
                return True
            if state == self.HALF_OPEN and not self._probe_in_flight:
                self._probe_in_flight = True
                return True
            return False

    def reject_for(self) -> Optional[float]:
        """Seconds until a retry could be admitted, or None if admitting.

        A non-mutating admission check (does not consume the half-open
        probe slot): returns ``None`` when a call would be allowed, the
        remaining cooldown while open, and the full cooldown while a
        half-open probe is already in flight.
        """
        with self._lock:
            state = self._state_locked()
            if state == self.CLOSED:
                return None
            if state == self.HALF_OPEN:
                return self.cooldown_s if self._probe_in_flight else None
            elapsed = self._clock() - (self._opened_at or self._clock())
            return max(0.0, self.cooldown_s - elapsed)

    def record_success(self) -> None:
        with self._lock:
            self._consecutive_failures = 0
            self._probe_in_flight = False
            self._state = self.CLOSED
            self._opened_at = None

    def record_failure(self) -> None:
        with self._lock:
            state = self._state_locked()
            self._consecutive_failures += 1
            if state == self.HALF_OPEN:
                # the probe failed: straight back to open
                self._trip_locked()
            elif (
                state == self.CLOSED
                and self._consecutive_failures >= self.failure_threshold
            ):
                self._trip_locked()
            elif state == self.OPEN:
                self._opened_at = self._clock()

    def _trip_locked(self) -> None:
        self._state = self.OPEN
        self._opened_at = self._clock()
        self._probe_in_flight = False
        self.trips += 1

    def snapshot(self) -> dict:
        with self._lock:
            state = self._state_locked()
            return {
                "state": state,
                "consecutive_failures": self._consecutive_failures,
                "trips": self.trips,
                "failure_threshold": self.failure_threshold,
                "cooldown_s": self.cooldown_s,
            }


# ---------------------------------------------------------------------------
# retry with exponential backoff and jitter
# ---------------------------------------------------------------------------


def backoff_delays(
    attempts: int,
    *,
    base_s: float = 0.05,
    cap_s: float = 5.0,
    rng: Optional[random.Random] = None,
) -> Iterator[float]:
    """Delays between retries: capped exponential with full jitter.

    Yields ``attempts - 1`` delays (no delay follows the final attempt).
    Each is drawn uniformly from ``[0, min(cap_s, base_s * 2**n)]`` —
    AWS-style *full jitter*, which desynchronises retry herds better
    than equal or decorrelated jitter for the same mean delay.  Pass a
    seeded ``rng`` for a reproducible schedule; ``None`` uses module
    randomness.
    """
    if attempts < 1:
        raise ValueError(f"attempts must be >= 1, got {attempts}")
    if base_s < 0 or cap_s < 0:
        raise ValueError("base_s and cap_s must be >= 0")
    draw = (rng or random).uniform
    for n in range(attempts - 1):
        yield draw(0.0, min(cap_s, base_s * (2.0 ** n)))


# ---------------------------------------------------------------------------
# admission control
# ---------------------------------------------------------------------------


class AdmissionGate:
    """Bounded in-flight counter: admit until the watermark, then shed.

    Unlike a semaphore, :meth:`try_enter` never blocks — a request over
    the watermark is *shed* (the caller turns that into a 429 with a
    ``Retry-After``), which keeps queueing delay bounded and visible
    instead of silently growing.  ``retry_after_s`` is the hint handed
    to shed clients.
    """

    def __init__(self, capacity: int, *, retry_after_s: float = 1.0) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.retry_after_s = retry_after_s
        self._lock = threading.Lock()
        self._inflight = 0
        self.admitted = 0
        self.shed = 0

    def try_enter(self) -> bool:
        with self._lock:
            if self._inflight >= self.capacity:
                self.shed += 1
                return False
            self._inflight += 1
            self.admitted += 1
            return True

    def leave(self) -> None:
        with self._lock:
            if self._inflight > 0:
                self._inflight -= 1

    @property
    def depth(self) -> int:
        with self._lock:
            return self._inflight

    @property
    def headroom(self) -> int:
        with self._lock:
            return max(0, self.capacity - self._inflight)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "capacity": self.capacity,
                "in_flight": self._inflight,
                "admitted": self.admitted,
                "shed": self.shed,
            }
