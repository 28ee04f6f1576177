"""Simulation output — "information describing the predicted execution" (g).

The Simulator's product is everything the Visualizer needs (§3.3):

* per-thread **state segments** (running on which CPU / runnable-but-no-
  processor / blocked / sleeping) — the lines of the execution flow graph
  and the green/red bands of the parallelism graph;
* **placed events** — every simulated thread-library call with its start,
  end, CPU, object and source location — the symbols of the flow graph and
  the content of the event popup;
* **thread summaries** — start/end/work/total times per thread (popup); and
* machine-level accounting (makespan, per-CPU busy time).

A prediction needs only the makespan, so the run records the timeline
as raw rows (:class:`ResultBuilder`) and :class:`SimulationResult`
assembles segments, events, summaries and busy time the first time one
of them is read.  That assembly lives here and nowhere else.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.core.config import SimConfig
from repro.core.events import Primitive, SourceLocation, Status
from repro.core.ids import SyncObjectId, ThreadId
from repro.solaris.thread_model import ThreadState

__all__ = [
    "SegmentKind",
    "ThreadSegment",
    "PlacedEvent",
    "ThreadSummary",
    "RunStatus",
    "Incompleteness",
    "SimulationResult",
    "ResultBuilder",
]


class RunStatus(enum.Enum):
    """How a simulated execution ended.

    COMPLETE — every thread exited; the result is the full predicted
    execution.  Anything else marks a *partial* result: the simulation
    stopped early and the segments/events cover only the simulated time
    reached.  DEADLOCK — no runnable thread existed but threads were
    still blocked; LIVELOCK — simulated time stopped advancing;
    BUDGET — a watchdog budget (wall clock or event count) ran out;
    DIVERGED — a replayed event could not be applied to the simulated
    state (trace and synchronisation model disagree).
    """

    COMPLETE = "complete"
    DEADLOCK = "deadlock"
    LIVELOCK = "livelock"
    BUDGET = "budget-exhausted"
    DIVERGED = "diverged"


@dataclass(frozen=True)
class Incompleteness:
    """Why a run is partial, with everything needed to act on it.

    ``blocked`` lists every thread still alive when the run stopped;
    ``cycle`` is the blocking cycle (each thread waiting on a resource
    held by the next, wrapping around) when one was found — the classic
    deadlock witness.  For DIVERGED runs, ``divergence_tid`` /
    ``divergence_us`` pin the first event that could not be applied.
    """

    status: RunStatus
    reason: str
    blocked: Tuple[int, ...] = ()
    cycle: Tuple[int, ...] = ()
    divergence_tid: Optional[int] = None
    divergence_us: Optional[int] = None

    def describe(self) -> str:
        parts = [f"{self.status.value}: {self.reason}"]
        if self.cycle:
            ring = " -> ".join(f"T{t}" for t in self.cycle)
            parts.append(f"blocking cycle: {ring} -> T{self.cycle[0]}")
        elif self.blocked:
            parts.append(
                "blocked threads: " + ", ".join(f"T{t}" for t in self.blocked)
            )
        if self.divergence_tid is not None:
            at = (
                f" at {self.divergence_us}us"
                if self.divergence_us is not None
                else ""
            )
            parts.append(f"diverged in T{self.divergence_tid}{at}")
        return "; ".join(parts)


class SegmentKind(enum.Enum):
    """Displayable thread condition over an interval (§3.3 flow graph).

    RUNNING — solid line (and counted green in the parallelism graph);
    RUNNABLE — grey line, "ready to run but does not have any LWP or CPU
    to run on" (counted red); BLOCKED / SLEEPING — no line.
    """

    RUNNING = "running"
    RUNNABLE = "runnable"
    BLOCKED = "blocked"
    SLEEPING = "sleeping"


@dataclass(frozen=True, slots=True)
class ThreadSegment:
    """One interval of a thread's life in a fixed condition."""

    tid: ThreadId
    kind: SegmentKind
    start_us: int
    end_us: int
    cpu: Optional[int] = None  # set only for RUNNING segments

    def __post_init__(self) -> None:
        if self.end_us < self.start_us:
            raise ValueError(f"segment ends before it starts: {self}")

    @property
    def duration_us(self) -> int:
        return self.end_us - self.start_us


class PlacedEvent(NamedTuple):
    """A simulated thread-library call, positioned in simulated time.

    ``start_us`` is when the call began executing, ``end_us`` when it
    completed (for a blocking call this includes the blocked time — the
    popup reports "when the event started, ended, and how long it took to
    perform").  ``cpu`` is the processor the thread was running on when it
    made the call.

    A NamedTuple rather than a dataclass: one instance is built per
    simulated library call, so construction cost is on the replay hot
    path.
    """

    index: int
    tid: ThreadId
    primitive: Primitive
    start_us: int
    end_us: int
    cpu: Optional[int] = None
    obj: Optional[SyncObjectId] = None
    target: Optional[ThreadId] = None
    status: Optional[Status] = None
    source: Optional[SourceLocation] = None

    @property
    def duration_us(self) -> int:
        return self.end_us - self.start_us


@dataclass(frozen=True, slots=True)
class ThreadSummary:
    """Per-thread numbers shown in the Visualizer's popup (§3.3)."""

    tid: ThreadId
    func_name: str
    created_at_us: int
    start_us: Optional[int]
    end_us: Optional[int]
    work_us: int  # time the thread actually was working (on CPU)

    @property
    def total_us(self) -> Optional[int]:
        """Total execution time including blocked/runnable time."""
        if self.start_us is None or self.end_us is None:
            return None
        return self.end_us - self.start_us


class _Timeline(NamedTuple):
    """The Visualizer's view of a run, assembled from its raw rows."""

    segments: Dict[ThreadId, List[ThreadSegment]]
    events: List[PlacedEvent]
    summaries: Dict[ThreadId, ThreadSummary]
    cpu_busy_us: List[int]


#: keyed by the member's value: a str hashes in C, while hashing an
#: Enum member runs ``Enum.__hash__`` in Python on every row
_SEGMENT_OF = {
    ThreadState.RUNNABLE.value: SegmentKind.RUNNABLE,
    ThreadState.RUNNING.value: SegmentKind.RUNNING,
    ThreadState.BLOCKED.value: SegmentKind.BLOCKED,
    ThreadState.SLEEPING.value: SegmentKind.SLEEPING,
    ThreadState.ZOMBIE.value: None,
    ThreadState.DEAD.value: None,
}


def _assemble(
    cpus: int,
    makespan_us: int,
    flips: List[tuple],
    rows: List[tuple],
    threads: List[tuple],
) -> _Timeline:
    """Turn a run's raw rows into its timeline (see :class:`ResultBuilder`
    for the row shapes).

    Each flip closes the thread's open segment and opens the next, so a
    thread's segments are contiguous and non-overlapping.  Zero-length
    segments are dropped; segments still open are closed at the makespan
    and counted in the CPU busy time.  A thread's ``work_us`` sums the
    RUNNING stretches a flip closed, so a stretch still open when a
    partial run stopped is not counted.  Events are ordered by start
    time, then by the order they were placed.
    """
    running = SegmentKind.RUNNING
    running_state = ThreadState.RUNNING
    segments: Dict[ThreadId, List[ThreadSegment]] = {}
    busy = [0] * cpus
    work: Dict[ThreadId, int] = {}
    open_segs: Dict[ThreadId, Tuple[SegmentKind, int, Optional[int]]] = {}
    for tid, state, now, cpu in flips:
        open_seg = open_segs.pop(tid, None)
        if open_seg is not None:
            kind, start_us, on = open_seg
            if now > start_us:
                # the key exists: it was created when the segment opened
                segments[tid].append(ThreadSegment(tid, kind, start_us, now, on))
            if kind is running:
                if on is not None:
                    busy[on] += now - start_us
                if state is not running_state:
                    work[tid] = work.get(tid, 0) + now - start_us
        kind = _SEGMENT_OF[state._value_]
        if kind is not None:
            open_segs[tid] = (kind, now, cpu)
            if tid not in segments:
                segments[tid] = []
    for tid, (kind, start_us, on) in open_segs.items():
        if makespan_us > start_us:
            segments[tid].append(ThreadSegment(tid, kind, start_us, makespan_us, on))
        if kind is running and on is not None:
            busy[on] += makespan_us - start_us
    # rows are appended in placement order, so a stable sort on start_us
    # (row field 2) orders by (start_us, placement order)
    rows.sort(key=operator.itemgetter(2))
    events = [PlacedEvent(i, *row) for i, row in enumerate(rows)]
    summaries = {
        tid: ThreadSummary(
            tid, func_name, created_at_us, start_us, end_us, work.get(tid, 0)
        )
        for tid, func_name, created_at_us, start_us, end_us in threads
    }
    return _Timeline(segments, events, summaries, busy)


class SimulationResult:
    """Everything produced by one simulated execution.

    ``makespan_us``, ``engine_events`` and ``incompleteness`` are set
    when the run ends.  The timeline the Visualizer draws —
    ``segments``, ``events``, ``summaries`` and ``cpu_busy_us`` — is
    assembled from the run's raw rows the first time any of them is
    read, once; the rows are released then.  A prediction that reads
    only the makespan never pays for the timeline.

    ``incompleteness`` is None for a run that finished; a partial run
    (watchdog stop, deadlock, divergence — see :class:`RunStatus`)
    carries its diagnosis here and every collection covers only the
    simulated time actually reached.

    Results compare by value, timelines included.
    """

    def __init__(
        self,
        config: SimConfig,
        makespan_us: int,
        *,
        flips: List[tuple],
        rows: List[tuple],
        threads: List[tuple],
        engine_events: int = 0,
        incompleteness: Optional[Incompleteness] = None,
    ):
        self.config = config
        self.makespan_us = makespan_us
        self.engine_events = engine_events
        self.incompleteness = incompleteness
        #: (flips, rows, threads) until the timeline is built
        self._raw: Optional[tuple] = (flips, rows, threads)
        self._built: Optional[_Timeline] = None

    def _timeline(self) -> _Timeline:
        built = self._built
        if built is None:
            flips, rows, threads = self._raw  # type: ignore[misc]
            built = self._built = _assemble(
                self.config.cpus, self.makespan_us, flips, rows, threads
            )
            self._raw = None
        return built

    @property
    def segments(self) -> Dict[ThreadId, List[ThreadSegment]]:
        return self._timeline().segments

    @property
    def events(self) -> List[PlacedEvent]:
        return self._timeline().events

    @property
    def summaries(self) -> Dict[ThreadId, ThreadSummary]:
        return self._timeline().summaries

    @property
    def cpu_busy_us(self) -> List[int]:
        return self._timeline().cpu_busy_us

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimulationResult):
            return NotImplemented
        return (
            self.config == other.config
            and self.makespan_us == other.makespan_us
            and self.engine_events == other.engine_events
            and self.incompleteness == other.incompleteness
            and self._timeline() == other._timeline()
        )

    def __repr__(self) -> str:
        return (
            f"SimulationResult(makespan_us={self.makespan_us}, "
            f"status={self.status.value}, engine_events={self.engine_events})"
        )

    # ------------------------------------------------------------------

    @property
    def status(self) -> RunStatus:
        if self.incompleteness is None:
            return RunStatus.COMPLETE
        return self.incompleteness.status

    @property
    def incomplete(self) -> bool:
        return self.incompleteness is not None

    def thread_ids(self) -> List[ThreadId]:
        return list(self.segments)

    def events_for(self, tid: ThreadId) -> List[PlacedEvent]:
        return [ev for ev in self.events if ev.tid == tid]

    def total_cpu_time_us(self) -> int:
        return sum(self.cpu_busy_us)

    def utilisation(self) -> float:
        """Mean fraction of the machine kept busy over the makespan."""
        if self.makespan_us == 0:
            return 0.0
        return self.total_cpu_time_us() / (self.makespan_us * self.config.cpus)

    def speedup_vs(self, uniprocessor_us: int) -> float:
        """Speed-up relative to a uni-processor duration."""
        if self.makespan_us == 0:
            raise ZeroDivisionError("zero makespan")
        return uniprocessor_us / self.makespan_us


class ResultBuilder:
    """Collects a run's raw timeline rows and hands them to its result.

    Two append-only logs, filled on the replay hot path without a call
    frame per row:

    * :attr:`flips` — one ``(tid, state, time_us, cpu)`` row per
      thread-state change (a :class:`~repro.solaris.thread_model.ThreadState`;
      ``cpu`` is set for RUNNING), appended by the scheduler;
    * :attr:`event_rows` — one row of :class:`PlacedEvent` fields minus
      the leading index per simulated library call, appended by the
      Simulator (the NamedTuple is built once, with its final timeline
      index, when the timeline is assembled).

    :meth:`build` gives both logs to the :class:`SimulationResult`, which
    assembles segments, events, summaries and CPU busy time only when
    they are read.
    """

    def __init__(self, config: SimConfig):
        self.config = config
        self.flips: Optional[List[tuple]] = []
        self.event_rows: Optional[List[tuple]] = []

    def event_placed(
        self,
        *,
        tid: ThreadId,
        primitive: Primitive,
        start_us: int,
        end_us: int,
        cpu: Optional[int],
        obj: Optional[SyncObjectId] = None,
        target: Optional[ThreadId] = None,
        status: Optional[Status] = None,
        source: Optional[SourceLocation] = None,
    ) -> None:
        self.event_rows.append(
            (tid, primitive, start_us, end_us, cpu, obj, target, status, source)
        )

    def build(
        self,
        *,
        makespan_us: int,
        threads: List[tuple],
        engine_events: int = 0,
        incompleteness: Optional[Incompleteness] = None,
    ) -> SimulationResult:
        """Hand the logs to the run's result; the builder keeps nothing.

        *threads* holds one ``(tid, func_name, created_at_us, start_us,
        end_us)`` row per thread, in summary order; the result adds each
        thread's ``work_us`` from the flips.
        """
        result = SimulationResult(
            self.config,
            makespan_us,
            flips=self.flips,
            rows=self.event_rows,
            threads=threads,
            engine_events=engine_events,
            incompleteness=incompleteness,
        )
        self.flips = self.event_rows = None
        return result
