"""One-pass trace statistics: the analytical tier's entire input.

:func:`extract_stats` walks each thread's event list exactly the way the
predictor's compiler does (the burst before a call is CPU demand, the
call→return span is time inside the threads library) and reuses the lint
substrate's :func:`repro.analysis.lint.locks.sweep` for per-lock hold
times and contention.  The result is a :class:`TraceStats` — a compact,
JSON-safe, fingerprintable profile from which the closed-form models in
:mod:`repro.analytic.models` estimate makespans for *any* configuration
without touching the simulator.

Everything here is derived from the monitored uni-processor log alone,
so one extraction serves every cell of a what-if grid:
:func:`repro.jobs.manifest.run_grid` extracts once per grid, from the
trace its caller already parsed, and only when the result cache cannot
answer a cell.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from repro.core.events import Phase, Primitive
from repro.core.ids import MAIN_THREAD_ID
from repro.core.trace import Trace
from repro.jobs.fingerprint import STATS_VERSION

__all__ = [
    "STATS_VERSION",
    "ThreadProfile",
    "LockProfile",
    "TraceStats",
    "extract_stats",
]

#: Call→return spans counted as synchronisation time.
_SYNC_PRIMS = frozenset(
    {
        Primitive.MUTEX_LOCK,
        Primitive.MUTEX_TRYLOCK,
        Primitive.MUTEX_UNLOCK,
        Primitive.SEMA_INIT,
        Primitive.SEMA_WAIT,
        Primitive.SEMA_TRYWAIT,
        Primitive.SEMA_POST,
        Primitive.COND_WAIT,
        Primitive.COND_TIMEDWAIT,
        Primitive.COND_SIGNAL,
        Primitive.COND_BROADCAST,
        Primitive.RW_RDLOCK,
        Primitive.RW_WRLOCK,
        Primitive.RW_TRYRDLOCK,
        Primitive.RW_TRYWRLOCK,
        Primitive.RW_UNLOCK,
        Primitive.THR_JOIN,
    }
)

_MARKERS = frozenset(
    {Primitive.START_COLLECT, Primitive.END_COLLECT, Primitive.THREAD_START}
)

#: Calls that hand another thread work to wake up on (the operations a
#: multiprocessor replay may have to propagate across CPUs).
_WAKEUPS = frozenset(
    {Primitive.SEMA_POST, Primitive.COND_SIGNAL, Primitive.COND_BROADCAST}
)


@dataclass(frozen=True)
class ThreadProfile:
    """One thread's time decomposition on the monitored run."""

    tid: int
    compute_us: int
    sync_us: int
    io_us: int
    overhead_us: int
    calls: int

    @property
    def busy_us(self) -> int:
        return self.compute_us + self.sync_us + self.io_us + self.overhead_us

    def to_dict(self) -> Dict[str, Any]:
        return {
            "tid": self.tid,
            "compute_us": self.compute_us,
            "sync_us": self.sync_us,
            "io_us": self.io_us,
            "overhead_us": self.overhead_us,
            "calls": self.calls,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ThreadProfile":
        return cls(
            tid=int(data["tid"]),
            compute_us=int(data["compute_us"]),
            sync_us=int(data["sync_us"]),
            io_us=int(data["io_us"]),
            overhead_us=int(data["overhead_us"]),
            calls=int(data["calls"]),
        )


@dataclass(frozen=True)
class LockProfile:
    """Aggregate hold/contention statistics for one lock-like object."""

    name: str
    kind: str
    acquisitions: int
    contended: int
    blocked_us: int
    held_us: int
    max_held_us: int
    owners: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "kind": self.kind,
            "acquisitions": self.acquisitions,
            "contended": self.contended,
            "blocked_us": self.blocked_us,
            "held_us": self.held_us,
            "max_held_us": self.max_held_us,
            "owners": self.owners,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "LockProfile":
        return cls(
            name=str(data["name"]),
            kind=str(data["kind"]),
            acquisitions=int(data["acquisitions"]),
            contended=int(data["contended"]),
            blocked_us=int(data["blocked_us"]),
            held_us=int(data["held_us"]),
            max_held_us=int(data["max_held_us"]),
            owners=int(data["owners"]),
        )


@dataclass(frozen=True)
class TraceStats:
    """The analytical tier's view of one trace (config-independent).

    Distinct from :class:`repro.core.trace.TraceStats`, which summarises
    the *log* (event counts, bytes); this one summarises the *program
    behaviour* the log recorded.
    """

    program: str
    trace_fingerprint: str
    n_threads: int
    n_events: int
    duration_us: int
    probe_overhead_us: int
    #: total CPU demand: per-thread bursts between library calls
    compute_us: int
    #: total time inside blocking-sync calls on the monitored run
    sync_us: int
    io_us: int
    overhead_us: int
    #: single-threaded head + tail (before the first create / after the
    #: last event of any other thread) — the Amdahl serial portion
    serial_us: int
    #: the longest single thread's CPU demand — a critical-path floor
    span_us: int
    forks: int
    joins: int
    barriers: int
    wakeups: int
    #: per-primitive CALL counts, sorted by primitive value
    primitive_calls: Tuple[Tuple[str, int], ...]
    threads: Tuple[ThreadProfile, ...]
    locks: Tuple[LockProfile, ...]

    # -- derived views --------------------------------------------------

    @property
    def busy_us(self) -> int:
        return self.compute_us + self.sync_us + self.io_us + self.overhead_us

    @property
    def compute_ratio(self) -> float:
        busy = self.busy_us
        return self.compute_us / busy if busy else 0.0

    @property
    def sync_ratio(self) -> float:
        busy = self.busy_us
        return self.sync_us / busy if busy else 0.0

    # -- serialisation --------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "stats_version": STATS_VERSION,
            "program": self.program,
            "trace_fingerprint": self.trace_fingerprint,
            "n_threads": self.n_threads,
            "n_events": self.n_events,
            "duration_us": self.duration_us,
            "probe_overhead_us": self.probe_overhead_us,
            "compute_us": self.compute_us,
            "sync_us": self.sync_us,
            "io_us": self.io_us,
            "overhead_us": self.overhead_us,
            "serial_us": self.serial_us,
            "span_us": self.span_us,
            "forks": self.forks,
            "joins": self.joins,
            "barriers": self.barriers,
            "wakeups": self.wakeups,
            "compute_ratio": round(self.compute_ratio, 6),
            "sync_ratio": round(self.sync_ratio, 6),
            "primitive_calls": [[name, n] for name, n in self.primitive_calls],
            "threads": [t.to_dict() for t in self.threads],
            "locks": [l.to_dict() for l in self.locks],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TraceStats":
        return cls(
            program=str(data.get("program", "")),
            trace_fingerprint=str(data["trace_fingerprint"]),
            n_threads=int(data["n_threads"]),
            n_events=int(data["n_events"]),
            duration_us=int(data["duration_us"]),
            probe_overhead_us=int(data.get("probe_overhead_us", 0)),
            compute_us=int(data["compute_us"]),
            sync_us=int(data["sync_us"]),
            io_us=int(data["io_us"]),
            overhead_us=int(data["overhead_us"]),
            serial_us=int(data["serial_us"]),
            span_us=int(data["span_us"]),
            forks=int(data["forks"]),
            joins=int(data["joins"]),
            barriers=int(data["barriers"]),
            wakeups=int(data["wakeups"]),
            primitive_calls=tuple(
                (str(name), int(n)) for name, n in data.get("primitive_calls", [])
            ),
            threads=tuple(
                ThreadProfile.from_dict(t) for t in data.get("threads", [])
            ),
            locks=tuple(LockProfile.from_dict(l) for l in data.get("locks", [])),
        )

    def fingerprint(self) -> str:
        """Stable content hash of the profile (hex SHA-256)."""
        text = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(
            f"vppb-stats:v{STATS_VERSION}:{text}".encode("utf-8")
        ).hexdigest()


def _classify(prim: Primitive) -> str:
    if prim in _SYNC_PRIMS:
        return "sync"
    if prim is Primitive.IO_WAIT:
        return "io"
    return "overhead"


def extract_stats(trace: Trace) -> TraceStats:
    """One pass over *trace* producing the analytical profile.

    Burst attribution mirrors :func:`repro.core.predictor.compile_trace`:
    on a one-LWP monitored run a thread holds the processor between its
    return from one library call and its entry into the next, so
    per-thread timestamp deltas are CPU demand.
    """
    from repro.analysis.lint.locks import sweep

    threads: List[ThreadProfile] = []
    counts: Dict[str, int] = {}
    forks = joins = barriers = wakeups = 0

    for tid, records in sorted(trace.per_thread().items(), key=lambda kv: int(kv[0])):
        compute = sync = io = overhead = calls = 0
        prev_resume = None
        i, n = 0, len(records)
        while i < n:
            rec = records[i]
            if rec.primitive in _MARKERS:
                if rec.primitive is not Primitive.END_COLLECT:
                    prev_resume = rec.time_us
                i += 1
                continue
            if rec.phase is not Phase.CALL:
                # a stray return (salvaged log): treat its time as resume
                prev_resume = rec.time_us
                i += 1
                continue
            call = rec
            ret = None
            if call.primitive is not Primitive.THR_EXIT and i + 1 < n:
                nxt = records[i + 1]
                if nxt.phase is Phase.RET and nxt.primitive is call.primitive:
                    ret = nxt
            if prev_resume is not None:
                compute += max(0, call.time_us - prev_resume)
            calls += 1
            prim = call.primitive
            counts[prim.value] = counts.get(prim.value, 0) + 1
            if prim is Primitive.THR_CREATE:
                forks += 1
            elif prim is Primitive.THR_JOIN:
                joins += 1
            elif prim is Primitive.COND_BROADCAST:
                barriers += 1
            if prim in _WAKEUPS:
                wakeups += 1
            if ret is not None:
                span = max(0, ret.time_us - call.time_us)
                bucket = _classify(prim)
                if bucket == "sync":
                    sync += span
                elif bucket == "io":
                    io += span
                else:
                    overhead += span
                prev_resume = ret.time_us
                i += 2
            else:
                prev_resume = call.time_us
                i += 1
        threads.append(
            ThreadProfile(
                tid=int(tid),
                compute_us=compute,
                sync_us=sync,
                io_us=io,
                overhead_us=overhead,
                calls=calls,
            )
        )

    # serial head/tail: time with only the main thread active
    t_start = trace.start_us
    t_end = trace.end_us
    first_create = None
    last_other = None
    for rec in trace:
        if rec.primitive is Primitive.THR_CREATE and rec.phase is Phase.CALL:
            if first_create is None:
                first_create = rec.time_us
        if int(rec.tid) != int(MAIN_THREAD_ID):
            last_other = rec.time_us
    if first_create is None:
        serial = max(0, t_end - t_start)
    else:
        head = max(0, first_create - t_start)
        tail = max(0, t_end - last_other) if last_other is not None else 0
        serial = head + tail

    analysis = sweep(
        trace, block_threshold_us=4 * trace.meta.probe_overhead_us
    )
    locks = tuple(
        LockProfile(
            name=usage.obj.name,
            kind=usage.obj.kind,
            acquisitions=usage.acquisitions,
            contended=usage.blocked_acquisitions,
            blocked_us=usage.total_blocked_us,
            held_us=usage.total_held_us,
            max_held_us=usage.max_held_us,
            owners=len(usage.owners),
        )
        for _, usage in sorted(
            analysis.lock_usage.items(), key=lambda kv: (kv[0].kind, kv[0].name)
        )
    )

    return TraceStats(
        program=trace.meta.program,
        trace_fingerprint=trace.fingerprint(),
        n_threads=len(threads),
        n_events=len(trace.records),
        duration_us=trace.duration_us,
        probe_overhead_us=trace.meta.probe_overhead_us,
        compute_us=sum(t.compute_us for t in threads),
        sync_us=sum(t.sync_us for t in threads),
        io_us=sum(t.io_us for t in threads),
        overhead_us=sum(t.overhead_us for t in threads),
        serial_us=serial,
        span_us=max((t.compute_us for t in threads), default=0),
        forks=forks,
        joins=joins,
        barriers=barriers,
        wakeups=wakeups,
        primitive_calls=tuple(sorted(counts.items())),
        threads=tuple(threads),
        locks=locks,
    )
