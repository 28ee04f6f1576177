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
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.core.config import SimConfig
from repro.core.events import Primitive, SourceLocation, Status
from repro.core.ids import SyncObjectId, ThreadId

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


@dataclass
class SimulationResult:
    """Everything produced by one simulated execution.

    ``incompleteness`` is None for a run that finished; a partial run
    (watchdog stop, deadlock, divergence — see :class:`RunStatus`)
    carries its diagnosis here and every collection covers only the
    simulated time actually reached.
    """

    config: SimConfig
    makespan_us: int
    segments: Dict[ThreadId, List[ThreadSegment]]
    events: List[PlacedEvent]
    summaries: Dict[ThreadId, ThreadSummary]
    cpu_busy_us: List[int]
    engine_events: int = 0
    incompleteness: Optional[Incompleteness] = None

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
    """Accumulates scheduler/simulator notifications into a result.

    The scheduler reports raw state *transitions*; the builder closes the
    previous open segment for the thread and opens the next, so segment
    lists are guaranteed contiguous and non-overlapping per thread.
    """

    def __init__(self, config: SimConfig):
        self.config = config
        self._segments: Dict[ThreadId, List[ThreadSegment]] = {}
        self._open: Dict[ThreadId, Tuple[SegmentKind, int, Optional[int]]] = {}
        #: event rows (PlacedEvent fields minus the leading index), kept as
        #: plain tuples until build() — constructing the NamedTuple once,
        #: with the final timeline index, halves per-event build cost
        self._events: List[tuple] = []
        self._cpu_busy: List[int] = [0] * config.cpus

    # -- notifications from the scheduler/simulator ----------------------

    def thread_condition(
        self,
        tid: ThreadId,
        kind: Optional[SegmentKind],
        time_us: int,
        cpu: Optional[int] = None,
    ) -> None:
        """Thread *tid* enters *kind* at *time_us* (None = disappears)."""
        open_seg = self._open.pop(tid, None)
        if open_seg is not None:
            prev_kind, start_us, prev_cpu = open_seg
            if time_us > start_us:
                # the key exists: it was created when the segment opened
                self._segments[tid].append(
                    ThreadSegment(tid, prev_kind, start_us, time_us, prev_cpu)
                )
            if prev_kind is SegmentKind.RUNNING and prev_cpu is not None:
                self._cpu_busy[prev_cpu] += time_us - start_us
        if kind is not None:
            self._open[tid] = (kind, time_us, cpu)
            if tid not in self._segments:
                self._segments[tid] = []

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
        self._events.append(
            (tid, primitive, start_us, end_us, cpu, obj, target, status, source)
        )

    # -- finalisation ------------------------------------------------------

    def build(
        self,
        *,
        makespan_us: int,
        summaries: Dict[ThreadId, ThreadSummary],
        engine_events: int = 0,
        incompleteness: Optional[Incompleteness] = None,
    ) -> SimulationResult:
        # Close any segment still open at the end of the run.
        for tid in list(self._open):
            self.thread_condition(tid, None, makespan_us)
        # timeline order = (start_us, append order); rows are appended in
        # order, so a stable sort on start_us (row field 2) is equivalent
        rows = self._events
        rows.sort(key=operator.itemgetter(2))
        events = [PlacedEvent(i, *row) for i, row in enumerate(rows)]
        return SimulationResult(
            config=self.config,
            makespan_us=makespan_us,
            segments=self._segments,
            events=events,
            summaries=summaries,
            cpu_busy_us=self._cpu_busy,
            engine_events=engine_events,
            incompleteness=incompleteness,
        )
