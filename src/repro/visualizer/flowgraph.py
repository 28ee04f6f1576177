"""The execution flow graph (§3.3, lower graph of fig. 5).

"In the execution flow graph the time is represented on the X-axis and
the threads are represented on the Y-axis.  A horizontal line indicates
that the thread of that Y-position is executing, the lack of a line
indicates that the thread can not execute, a grey line that the thread is
ready to run but does not have any LWP or CPU to run on."

:class:`FlowGraph` arranges the simulation result into renderable rows —
one per thread, each holding its state segments and event marks — and
supports the interval cropping the zoom machinery needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.errors import VisualizationError
from repro.core.ids import ThreadId
from repro.core.result import (
    PlacedEvent,
    SegmentKind,
    SimulationResult,
    ThreadSegment,
)

__all__ = ["FlowRow", "FlowGraph", "FindingMarker", "match_findings"]


@dataclass(frozen=True)
class FlowRow:
    """One thread's line in the flow graph."""

    tid: ThreadId
    label: str
    func_name: str
    segments: Sequence[ThreadSegment]
    events: Sequence[PlacedEvent]

    def active_in(self, start_us: int, end_us: int) -> bool:
        """True when the thread runs or produces an event in the window —
        the criterion the automatic thread compression uses (§3.3: "The
        compression only shows the threads active during the time
        interval shown")."""
        for seg in self.segments:
            if (
                seg.kind is SegmentKind.RUNNING
                and seg.end_us > start_us
                and seg.start_us < end_us
            ):
                return True
        for ev in self.events:
            if ev.end_us >= start_us and ev.start_us <= end_us:
                return True
        return False

    def cropped(self, start_us: int, end_us: int) -> "FlowRow":
        """Clip segments/events to a window (segments are trimmed, events
        kept if they intersect)."""
        segs = []
        for seg in self.segments:
            if seg.end_us <= start_us or seg.start_us >= end_us:
                continue
            segs.append(
                ThreadSegment(
                    tid=seg.tid,
                    kind=seg.kind,
                    start_us=max(seg.start_us, start_us),
                    end_us=min(seg.end_us, end_us),
                    cpu=seg.cpu,
                )
            )
        evs = [
            ev
            for ev in self.events
            if ev.end_us >= start_us and ev.start_us <= end_us
        ]
        return FlowRow(self.tid, self.label, self.func_name, segs, evs)


class FlowGraph:
    """All thread rows of one simulated execution."""

    def __init__(self, rows: List[FlowRow], start_us: int, end_us: int):
        self.rows = rows
        self.start_us = start_us
        self.end_us = end_us

    # ------------------------------------------------------------------

    @classmethod
    def from_result(cls, result: SimulationResult) -> "FlowGraph":
        rows = []
        for tid in sorted(result.segments, key=int):
            summary = result.summaries.get(tid)
            func = summary.func_name if summary else ""
            rows.append(
                FlowRow(
                    tid=tid,
                    label=f"T{int(tid)}",
                    func_name=func,
                    segments=list(result.segments[tid]),
                    events=result.events_for(tid),
                )
            )
        return cls(rows, 0, result.makespan_us)

    # ------------------------------------------------------------------

    @property
    def duration_us(self) -> int:
        return self.end_us - self.start_us

    def row_for(self, tid: ThreadId) -> FlowRow:
        for row in self.rows:
            if int(row.tid) == int(tid):
                return row
        raise VisualizationError(f"no row for thread T{int(tid)}")

    def window(self, start_us: int, end_us: int) -> "FlowGraph":
        """Crop every row to [start_us, end_us)."""
        if start_us >= end_us:
            raise VisualizationError(f"bad window [{start_us}, {end_us})")
        rows = [row.cropped(start_us, end_us) for row in self.rows]
        return FlowGraph(rows, start_us, end_us)

    def compressed(
        self,
        *,
        window_start_us: Optional[int] = None,
        window_end_us: Optional[int] = None,
        keep: Optional[Sequence[int]] = None,
    ) -> "FlowGraph":
        """Remove irrelevant threads (§3.3 thread compression).

        Automatic mode (default): keep only the threads active in the
        visible interval.  Manual mode: ``keep`` lists the thread ids the
        user selected from the thread list.
        """
        lo = self.start_us if window_start_us is None else window_start_us
        hi = self.end_us if window_end_us is None else window_end_us
        if keep is not None:
            chosen = {int(t) for t in keep}
            rows = [r for r in self.rows if int(r.tid) in chosen]
        else:
            rows = [r for r in self.rows if r.active_in(lo, hi)]
        return FlowGraph(rows, self.start_us, self.end_us)

    def thread_ids(self) -> List[int]:
        return [int(r.tid) for r in self.rows]


# ---------------------------------------------------------------------------
# lint overlay
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FindingMarker:
    """A lint finding anchored onto the flow graph.

    ``time_us`` is the start of the first placed event matching the
    finding's thread and source location (``None`` when the finding has
    no on-graph anchor — e.g. a whole-object observation); renderers draw
    these as markers on the owning thread's row.
    """

    finding: object  # repro.analysis.lint.findings.Finding
    tid: Optional[int]
    time_us: Optional[int]


def match_findings(graph: FlowGraph, findings: Sequence) -> List[FindingMarker]:
    """Anchor lint findings (trace-side) to placed events (simulation-side).

    The lint engine works on the recorded trace, the flow graph on a
    simulated execution, so record indices do not line up; what survives
    both worlds is (thread id, source location).  Each finding is matched
    to the earliest event of its thread at its source line; findings
    carrying neither stay unanchored (``time_us`` is ``None``).

    The graph's events are indexed once by (thread, file, line), so
    matching stays linear in events + findings rather than their product
    — a full lint report over a large trace anchors in one sweep.
    """
    anchors: dict = {}
    for row in graph.rows:
        per_site = anchors.setdefault(int(row.tid), {})
        for ev in row.events:
            if ev.source is None:
                continue
            key = (ev.source.file, ev.source.line)
            prior = per_site.get(key)
            if prior is None or ev.start_us < prior:
                per_site[key] = ev.start_us

    markers: List[FindingMarker] = []
    for finding in findings:
        tid = getattr(finding, "tid", None)
        source = getattr(finding, "source", None)
        time_us = None
        if tid is not None and source is not None:
            time_us = anchors.get(int(tid), {}).get((source.file, source.line))
        markers.append(FindingMarker(finding=finding, tid=tid, time_us=time_us))
    return markers
