"""Best-effort repair of damaged log files (the salvage pipeline).

A recorder that dies mid-run, a log truncated while copying, or a few
mangled lines in a 15 MB file (§4 sizes) should not cost the whole
Recorder→Simulator→Visualizer flow.  This module turns "malformed" into
"diagnosed": :func:`salvage_loads` parses as much of the text as it can,
then :func:`salvage_trace` repairs the surviving records into a trace
that satisfies every :class:`~repro.core.trace.Trace` invariant, and a
:class:`SalvageReport` enumerates each repair with its line number.

Repairs applied, in order:

* a partial last line (no trailing newline) is dropped — the classic
  recorder-died-mid-write damage;
* unparsable lines are dropped; unknown attributes on otherwise-good
  lines are skipped (forward compatibility with newer recorders);
* negative timestamps are clamped to zero;
* out-of-order timestamps are clamped monotonically (the recorded log is
  a sequential uni-processor history, so file order is ground truth);
* duplicated records and orphan/mismatched returns are dropped;
* open ``call`` phases get a synthesized ``ret`` record (a thread that
  never returned from ``mutex_lock`` in the log still did the call);
* records after a thread's ``thr_exit``, threads with no ``thr_create``
  record, ``thr_create`` pairs without a created-thread id (or whose
  child left no records at all), and ``thr_join`` records targeting a
  thread that no longer exists are dropped (they cannot be replayed).

Everything is reported; nothing is silently discarded.
"""

from __future__ import annotations

import codecs
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.core.errors import LogFormatError, TraceError
from repro.core.events import EventRecord, Phase, Primitive, Status
from repro.core.ids import MAIN_THREAD_ID
from repro.core.trace import Trace
from repro.recorder import logfile

__all__ = [
    "Repair",
    "SalvageLimitError",
    "SalvageReport",
    "SalvageResult",
    "SalvageStream",
    "salvage_trace",
    "salvage_loads",
    "salvage_load",
]


class SalvageLimitError(TraceError):
    """A streaming salvage exceeded its input-size cap."""

    def __init__(self, message: str, *, limit: int, seen: int):
        super().__init__(message)
        self.limit = limit
        self.seen = seen


@dataclass(frozen=True)
class Repair:
    """One repair the salvage pipeline performed."""

    kind: str
    detail: str
    lineno: Optional[int] = None

    def __str__(self) -> str:
        where = f"line {self.lineno}: " if self.lineno is not None else ""
        return f"{where}[{self.kind}] {self.detail}"


@dataclass
class SalvageReport:
    """Everything the salvage pipeline changed, with line numbers."""

    source: Optional[str] = None
    repairs: List[Repair] = field(default_factory=list)
    total_lines: int = 0
    records_parsed: int = 0
    records_kept: int = 0

    def add(self, kind: str, detail: str, lineno: Optional[int] = None) -> None:
        self.repairs.append(Repair(kind=kind, detail=detail, lineno=lineno))

    @property
    def clean(self) -> bool:
        """True when the input needed no repair at all."""
        return not self.repairs

    def counts_by_kind(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for r in self.repairs:
            counts[r.kind] = counts.get(r.kind, 0) + 1
        return counts

    def summary(self) -> str:
        """One-line diagnosis."""
        name = self.source or "<log>"
        if self.clean:
            return f"{name}: clean ({self.records_kept} records, no repairs)"
        return (
            f"{name}: {len(self.repairs)} repair(s), "
            f"{self.records_parsed} record(s) parsed -> {self.records_kept} kept"
        )

    def details(self) -> str:
        """Multi-line diagnosis: the summary, per-kind counts, and every
        individual repair with its line number."""
        lines = [self.summary()]
        for kind, count in sorted(self.counts_by_kind().items()):
            lines.append(f"  {count:>4} x {kind}")
        for r in self.repairs:
            lines.append(f"  - {r}")
        return "\n".join(lines)


@dataclass
class SalvageResult:
    """A salvaged trace plus the report of what it took to get it."""

    trace: Trace
    report: SalvageReport


# ---------------------------------------------------------------------------
# structural repair of parsed records
# ---------------------------------------------------------------------------


def _synth_ret(call: EventRecord, time_us: int) -> EventRecord:
    """A plausible return record closing *call*.

    A ``cond_timedwait`` is closed as TIMEOUT — replayed as a plain delay
    (§3.2), which cannot deadlock the simulation; everything else is
    closed as OK.
    """
    status = (
        Status.TIMEOUT if call.primitive is Primitive.COND_TIMEDWAIT else Status.OK
    )
    return EventRecord(
        time_us=max(time_us, call.time_us),
        tid=call.tid,
        phase=Phase.RET,
        primitive=call.primitive,
        obj=call.obj,
        obj2=call.obj2,
        target=call.target,
        arg=call.arg,
        status=status,
        source=call.source,
    )


def _is_duplicate(a: EventRecord, b: EventRecord) -> bool:
    return (
        a.time_us == b.time_us
        and a.primitive is b.primitive
        and a.obj == b.obj
        and a.phase is b.phase
    )


def salvage_trace(
    records: List[Tuple[Optional[int], EventRecord]],
    meta=None,
    *,
    report: Optional[SalvageReport] = None,
    validate: bool = True,
) -> SalvageResult:
    """Repair parsed records into a structurally valid :class:`Trace`.

    *records* is a list of ``(lineno, record)`` pairs in file order
    (``lineno`` may be None for records that never lived in a file).
    """
    report = report if report is not None else SalvageReport()
    report.records_parsed = len(records)

    # -- clamp out-of-order timestamps (file order is ground truth) -------
    clamped: List[Tuple[Optional[int], EventRecord]] = []
    last_time = 0
    for lineno, rec in records:
        if rec.time_us < last_time:
            report.add(
                "clamped-timestamp",
                f"{rec.brief()}: {rec.time_us}us -> {last_time}us",
                lineno,
            )
            rec = rec.shifted(last_time - rec.time_us)
        last_time = rec.time_us
        clamped.append((lineno, rec))

    # -- call/ret pairing repair, per thread, in file order ---------------
    paired: List[Tuple[Optional[int], EventRecord]] = []
    open_call: Dict[int, Tuple[Optional[int], EventRecord]] = {}
    exited: set = set()
    for lineno, rec in clamped:
        tid = int(rec.tid)
        if rec.is_marker:
            # markers are single records; end_collect is legitimately
            # stamped on the main thread after its thr_exit
            paired.append((lineno, rec))
            continue
        if tid in exited:
            report.add(
                "dropped-after-exit", f"{rec.brief()} after thr_exit", lineno
            )
            continue
        if rec.primitive is Primitive.THR_EXIT:
            if tid in open_call:
                _, call = open_call.pop(tid)
                report.add(
                    "synthesized-return",
                    f"closing open {call.primitive} of T{tid} before thr_exit",
                    lineno,
                )
                paired.append((None, _synth_ret(call, rec.time_us)))
            exited.add(tid)
            paired.append((lineno, rec))
            continue
        if rec.phase is Phase.CALL:
            if tid in open_call:
                _, prev = open_call[tid]
                if _is_duplicate(prev, rec):
                    report.add(
                        "dropped-duplicate-call", rec.brief(), lineno
                    )
                    continue
                report.add(
                    "synthesized-return",
                    f"closing open {prev.primitive} of T{tid} "
                    f"before new {rec.primitive} call",
                    lineno,
                )
                paired.append((None, _synth_ret(prev, rec.time_us)))
            open_call[tid] = (lineno, rec)
            paired.append((lineno, rec))
        else:  # RET
            entry = open_call.get(tid)
            if entry is None:
                report.add("dropped-orphan-return", rec.brief(), lineno)
                continue
            _, call = entry
            if call.primitive is not rec.primitive:
                report.add(
                    "dropped-mismatched-return",
                    f"{rec.brief()} does not close open {call.primitive}",
                    lineno,
                )
                continue
            del open_call[tid]
            paired.append((lineno, rec))

    # close calls still open at end-of-log (truncation damage)
    for tid, (lineno, call) in sorted(open_call.items()):
        report.add(
            "synthesized-return",
            f"closing open {call.primitive} of T{tid} at end of log",
            lineno,
        )
        paired.append((None, _synth_ret(call, last_time)))

    # -- repair or drop thr_create pairs without a created-thread id ------
    # A live recording only stamps the child tid on the RET record, so a
    # call without a target is normal; a *pair* without one cannot be
    # replayed and is dropped whole.  A ret missing its target while the
    # call carries one (reordered/mangled damage) is repaired from it.
    drop: set = set()
    replacement: Dict[int, EventRecord] = {}
    pending_create: Dict[int, int] = {}
    for idx, (lineno, rec) in enumerate(paired):
        if rec.primitive is not Primitive.THR_CREATE:
            continue
        tid = int(rec.tid)
        if rec.is_call:
            pending_create[tid] = idx
            continue
        call_idx = pending_create.pop(tid, None)
        if rec.target is not None:
            continue
        call_target = (
            paired[call_idx][1].target if call_idx is not None else None
        )
        if call_target is not None:
            replacement[idx] = replace(rec, target=call_target)
            report.add(
                "repaired-create-target",
                f"{rec.brief()}: created-thread id T{int(call_target)} "
                "recovered from the call record",
                lineno,
            )
        else:
            if call_idx is not None:
                drop.add(call_idx)
            drop.add(idx)
            report.add(
                "dropped-unreplayable-create",
                f"{rec.brief()} has no created-thread id",
                lineno,
            )
    cleaned = [
        (lineno, replacement.get(idx, rec))
        for idx, (lineno, rec) in enumerate(paired)
        if idx not in drop
    ]

    # -- drop what cannot be replayed: threads with no creation record,
    #    creates of threads that left no records of their own (truncation
    #    cut the whole child off), joins on threads that no longer exist.
    #    Iterated to a fixpoint because each drop can cascade into the
    #    others.
    while True:
        created = {int(MAIN_THREAD_ID)}
        for _, rec in cleaned:
            if rec.primitive is Primitive.THR_CREATE and rec.is_ret:
                created.add(int(rec.target))  # None-target rets dropped above
        present = {int(r.tid) for _, r in cleaned}
        drop_idx: set = set()

        orphans = {t for t in present if t not in created}
        for tid in sorted(orphans):
            report.add(
                "dropped-orphan-thread",
                f"T{tid} has events but no thr_create record",
            )
        if orphans:
            drop_idx |= {
                i for i, (_, r) in enumerate(cleaned) if int(r.tid) in orphans
            }

        childless: Dict[int, int] = {}
        for i, (lineno, rec) in enumerate(cleaned):
            if i in drop_idx or rec.primitive is not Primitive.THR_CREATE:
                continue
            tid = int(rec.tid)
            if rec.is_call:
                childless[tid] = i
                continue
            call_i = childless.pop(tid, None)
            child = int(rec.target)
            if child not in present:
                if call_i is not None:
                    drop_idx.add(call_i)
                drop_idx.add(i)
                report.add(
                    "dropped-unreplayable-create",
                    f"created thread T{child} left no records",
                    lineno,
                )

        surviving = {int(MAIN_THREAD_ID)}
        for i, (_, rec) in enumerate(cleaned):
            if i in drop_idx:
                continue
            if rec.primitive is Primitive.THR_CREATE and rec.is_ret:
                surviving.add(int(rec.target))
        for i, (lineno, rec) in enumerate(cleaned):
            if i in drop_idx or rec.primitive is not Primitive.THR_JOIN:
                continue
            if rec.target is not None and int(rec.target) not in surviving:
                drop_idx.add(i)
                report.add(
                    "dropped-orphan-join",
                    f"{rec.brief()} targets a thread that no longer exists",
                    lineno,
                )

        if not drop_idx:
            break
        cleaned = [pr for i, pr in enumerate(cleaned) if i not in drop_idx]

    report.records_kept = len(cleaned)
    final = [rec for _, rec in cleaned]
    try:
        trace = Trace(final, meta, validate=validate)
    except (TraceError, ValueError) as exc:
        # belt and braces: a residual inconsistency must not escape the
        # salvage path as an exception — degrade to an unvalidated trace
        report.add("residual-inconsistency", str(exc))
        trace = Trace(final, meta, validate=False)
    return SalvageResult(trace=trace, report=report)


# ---------------------------------------------------------------------------
# lenient text parsing (incremental)
# ---------------------------------------------------------------------------


class SalvageStream:
    """Incremental salvage: feed a damaged log in chunks, finish once.

    The streaming counterpart of :func:`salvage_loads`, built for the
    service's chunked trace uploads — a multi-megabyte log flows
    through :meth:`feed` one network chunk at a time and only the
    *parsed records* are retained, never the raw text.  ``feed``
    accepts ``bytes`` (decoded incrementally as UTF-8 with replacement,
    so a multi-byte character split across chunks is handled) or
    ``str``.  ``max_bytes`` is a hard input cap: the first chunk that
    crosses it raises :class:`SalvageLimitError` and the stream refuses
    further input.

    Line-level parsing happens as chunks arrive; the structural repairs
    (call/ret pairing, orphan threads, ...) need the whole record list
    and run in :meth:`finish`, which returns the same
    :class:`SalvageResult` the one-shot functions do.  A trailing
    partial line at finish is recorder-died-mid-write damage, exactly
    as in :func:`salvage_loads`.
    """

    def __init__(
        self,
        *,
        source: Optional[str] = None,
        validate: bool = True,
        max_bytes: Optional[int] = None,
    ) -> None:
        if max_bytes is not None and max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        self.max_bytes = max_bytes
        self.bytes_fed = 0
        self._validate = validate
        self._report = SalvageReport(source=source)
        self._decoder = codecs.getincrementaldecoder("utf-8")("replace")
        self._acc = logfile._HeaderAcc()
        self._memo: Dict[str, Any] = {}  # decoded tokens, for this stream only
        self._records: List[Tuple[Optional[int], EventRecord]] = []
        self._buffer = ""  # the current, still-incomplete line
        self._lineno = 0
        self._finished = False

    @property
    def records_parsed(self) -> int:
        return len(self._records)

    def feed(self, chunk: Union[str, bytes]) -> None:
        """Consume one chunk of log input."""
        if self._finished:
            raise RuntimeError("SalvageStream already finished")
        if isinstance(chunk, bytes):
            self.bytes_fed += len(chunk)
            text = self._decoder.decode(chunk)
        else:
            self.bytes_fed += len(chunk)
            text = chunk
        if self.max_bytes is not None and self.bytes_fed > self.max_bytes:
            self._finished = True
            raise SalvageLimitError(
                f"log upload exceeds the {self.max_bytes}-byte cap",
                limit=self.max_bytes,
                seen=self.bytes_fed,
            )
        self._buffer += text
        if not self._buffer:
            return
        # split exactly as str.splitlines does ('\n', '\r', '\r\n' and
        # the unicode separators), so CR-only and NEL-separated logs
        # salvage the same as through the one-shot path
        pieces = self._buffer.splitlines(keepends=True)
        self._buffer = ""
        last = len(pieces) - 1
        for index, piece in enumerate(pieces):
            line = piece.splitlines()[0]
            if index == last and (line == piece or piece.endswith("\r")):
                # unterminated tail — or a trailing bare '\r' that may
                # be the first half of a '\r\n' split across chunks
                self._buffer = piece
                return
            self._lineno += 1
            self._consume_line(line, self._lineno)

    def _consume_line(self, raw: str, lineno: int) -> None:
        line = raw.strip()
        if not line:
            return

        def on_repair(kind: str, detail: str, _lineno=lineno) -> None:
            self._report.add(kind, detail, _lineno)

        if line.startswith("#"):
            logfile._parse_header_line(self._acc, line, lineno, on_repair=on_repair)
            return
        try:
            self._records.append(
                (lineno, logfile._parse_record(line, lineno, self._memo, on_repair=on_repair))
            )
        except LogFormatError as exc:
            self._report.add("dropped-unparsable-line", exc.message, lineno)

    def finish(self) -> SalvageResult:
        """Flush, run the structural repairs, and return the result."""
        if self._finished:
            raise RuntimeError("SalvageStream already finished")
        self._finished = True
        self._buffer += self._decoder.decode(b"", True)
        for piece in self._buffer.splitlines(keepends=True):
            line = piece.splitlines()[0]
            self._lineno += 1
            if line != piece:
                # a held-back terminated line (e.g. a trailing bare
                # '\r' that never grew into '\r\n') is a real line
                self._consume_line(line, self._lineno)
            elif line.strip():
                # input ended without a trailing newline: the classic
                # recorder-died-mid-write partial last line
                self._report.add(
                    "dropped-partial-last-line",
                    f"no trailing newline: {line.strip()[:60]!r}",
                    self._lineno,
                )
        self._report.total_lines = self._lineno
        if not self._acc.saw_version:
            self._report.add(
                "missing-version-header", "no '# vppb-log <version>' line", 1
            )
        return salvage_trace(
            self._records,
            self._acc.meta(),
            report=self._report,
            validate=self._validate,
        )


def salvage_loads(
    text: str,
    *,
    source: Optional[str] = None,
    validate: bool = True,
) -> SalvageResult:
    """Parse damaged log text, repairing everything repairable.

    Never raises for malformed input: the worst possible outcome is an
    empty trace whose report explains why every line was dropped.
    (One-shot wrapper over :class:`SalvageStream`.)
    """
    stream = SalvageStream(source=source, validate=validate)
    stream.feed(text)
    return stream.finish()


def salvage_load(path: Union[str, Path], *, validate: bool = True) -> SalvageResult:
    """Read and salvage a log file from disk."""
    return salvage_loads(
        Path(path).read_text(errors="replace"),
        source=str(path),
        validate=validate,
    )
