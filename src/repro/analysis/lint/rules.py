"""The built-in rule catalog (``VPPB-R001`` ... ``VPPB-R009``).

Each rule consumes the shared single-sweep
:class:`~repro.analysis.lint.locks.LockAnalysis` and yields findings;
``docs/lint.md`` renders this module's metadata as the user-facing rule
catalog.  Severities follow one principle: **error** means the recorded
run demonstrably violated a synchronisation contract (a race, a latent
deadlock cycle, an unpaired unlock); **warning** means the run was legal
but fragile; **note** is a tuning observation.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.ids import SyncObjectId

from repro.analysis.lint.engine import LintContext, Rule, register_rule
from repro.analysis.lint.findings import Finding, Severity, Site, site_key
from repro.analysis.lint.hb import VarRaces
from repro.analysis.lint.locks import LockOrderEdge
from repro.analysis.lint.witness import (
    synthesize_deadlock_witness,
    synthesize_race_witness,
)

__all__ = [
    "LocksetRaceRule",
    "LockOrderCycleRule",
    "CondWaitWithoutMutexRule",
    "SignalWithoutWaiterRule",
    "TimedwaitTimeoutHotspotRule",
    "UnlockWithoutLockRule",
    "JoinHoldingLockRule",
    "UncontendedLockRule",
    "PathologicalHoldRule",
    "IncompleteInputRule",
]


def _fmt_locks(locks: Iterable[SyncObjectId]) -> str:
    names = sorted(str(o) for o in locks)
    return "{" + ", ".join(names) + "}" if names else "no locks"


# ---------------------------------------------------------------------------
# VPPB-R001 — Eraser-style lockset race detection
# ---------------------------------------------------------------------------


@register_rule
class LocksetRaceRule(Rule):
    """Hybrid lockset ∩ happens-before race detection.

    The Eraser lockset algorithm (Savage et al., 1997) stays the *gate*:
    per variable the candidate set C(v) starts as the accessor's full
    protection set and is intersected on every access once a second
    thread touches the variable; the virgin → exclusive → shared →
    shared-modified state machine suppresses initialisation and
    read-only patterns, and a write refines with *write-capable* locks
    only.  A gated variable is then judged by the happens-before
    detector (:mod:`repro.analysis.lint.hb`):

    * some conflicting pair is concurrent even under mutex hand-off
      edges → **error**, with a replayable witness schedule;
    * pairs are concurrent under fork/join/sema/cond edges but the
      recorded lock hand-offs ordered every one → **warning** (the
      ordering is this interleaving's accident, not the program's);
    * every conflicting pair is fork/join/sema/cond-ordered → no
      finding at all (the classic Eraser false positive, eliminated).
    """

    id = "VPPB-R001"
    severity = Severity.ERROR
    title = "shared variable accessed without consistent locking (data race)"
    rationale = (
        "Two threads touched the same shared variable, at least one wrote, "
        "and no lock was held across all accesses — the schedule, not the "
        "program, decides the outcome.  Happens-before analysis sets the "
        "severity: error when a conflicting pair is provably concurrent "
        "(with a replayable witness schedule), warning when only this "
        "run's lock hand-off order kept the accesses apart."
    )

    _VIRGIN, _EXCLUSIVE, _SHARED, _SHARED_MODIFIED = range(4)

    def run(self, ctx: LintContext) -> Iterable[Finding]:
        states: Dict[SyncObjectId, int] = {}
        owners: Dict[SyncObjectId, int] = {}
        candidates: Dict[SyncObjectId, Set[SyncObjectId]] = {}
        reported: Set[SyncObjectId] = set()

        for acc in ctx.analysis.accesses:
            var = acc.var
            state = states.get(var, self._VIRGIN)
            protection = acc.write_locks if acc.is_write else acc.locks

            if state == self._VIRGIN:
                states[var] = self._EXCLUSIVE
                owners[var] = acc.tid
            elif state == self._EXCLUSIVE and acc.tid == owners[var]:
                pass  # initialisation window: no refinement (Eraser)
            else:
                if state == self._EXCLUSIVE:
                    # second thread arrives: candidate set becomes this
                    # accessor's protection, further accesses intersect.
                    # A read moves to SHARED even after first-thread writes
                    # (Eraser: init-then-publish is benign); only a write
                    # enables reporting.
                    candidates[var] = set(protection)
                    states[var] = (
                        self._SHARED_MODIFIED if acc.is_write else self._SHARED
                    )
                else:
                    candidates[var] &= protection
                    if acc.is_write:
                        states[var] = self._SHARED_MODIFIED
                if (
                    states[var] == self._SHARED_MODIFIED
                    and not candidates[var]
                    and var not in reported
                ):
                    reported.add(var)
                    finding = self._judge(ctx, var)
                    if finding is not None:
                        yield finding

    def _judge(self, ctx: LintContext, var: SyncObjectId) -> Optional[Finding]:
        """Happens-before verdict for a variable the lockset gated."""
        info = ctx.analysis.races.get(var)
        if info is None or not info.pairs:
            # every conflicting pair is fork/join/sema/cond-ordered: no
            # schedule reorders them — the lockset report was wrong
            return None
        pair = info.best_pair()
        a, b = pair.earlier, pair.later
        if pair.full_concurrent:
            severity = Severity.ERROR
            verdict = (
                "no recorded synchronisation orders the accesses — "
                "concurrent under happens-before"
            )
            raw = synthesize_race_witness(ctx.trace, pair)
            witness = raw.to_dict() if raw is not None else None
        else:
            severity = Severity.WARNING
            verdict = (
                "this run's mutex hand-off order kept the accesses apart, "
                "but nothing forces that order — fragile, not yet proven "
                "concurrent"
            )
            witness = None
        related = [
            Site(
                label=f"{'write' if a.is_write else 'read'} under "
                f"{_fmt_locks(a.locks)}",
                tid=a.tid,
                source=a.source,
                event_index=a.event_index,
            )
        ]
        return self.finding(
            f"data race on {var}: {'write' if b.is_write else 'read'} by "
            f"T{b.tid} holding {_fmt_locks(b.locks)} conflicts with "
            f"T{a.tid} holding {_fmt_locks(a.locks)}; "
            f"no lock protects every access; {verdict}",
            severity=severity,
            tid=b.tid,
            obj=var,
            source=b.source,
            event_index=b.event_index,
            related=tuple(related),
            witness=witness,
        )


# ---------------------------------------------------------------------------
# VPPB-R002 — lock-order graph cycles (deadlock potential)
# ---------------------------------------------------------------------------


@register_rule
class LockOrderCycleRule(Rule):
    """Cycle detection over the acquired-while-holding graph.

    The recorded run did not deadlock (it terminated and produced a log),
    but an ABBA ordering means an unlucky schedule can: that is the
    paper's whole premise — the one recorded schedule stands in for the
    many the multiprocessor will produce.
    """

    id = "VPPB-R002"
    severity = Severity.ERROR
    title = "inconsistent lock acquisition order (deadlock potential)"
    rationale = (
        "Thread A acquires L1 then L2 while thread B acquires L2 then L1; "
        "if both hold their first lock at once, neither can proceed.  The "
        "recorded schedule survived by luck, other schedules will not."
    )

    def run(self, ctx: LintContext) -> Iterable[Finding]:
        edges = ctx.analysis.edges
        graph: Dict[SyncObjectId, List[SyncObjectId]] = {}
        for held, later in edges:
            graph.setdefault(held, []).append(later)
        for cycle in _elementary_cycles(graph):
            witnesses = []
            for i, node in enumerate(cycle):
                succ = cycle[(i + 1) % len(cycle)]
                edge = edges[(node, succ)]
                witnesses.append(edge)
            yield self._report(cycle, witnesses, ctx)

    def _report(
        self,
        cycle: List[SyncObjectId],
        witnesses: List[LockOrderEdge],
        ctx: LintContext,
    ) -> Finding:
        chain = " -> ".join(str(o) for o in cycle + [cycle[0]])
        threads = sorted({w.tid for w in witnesses})
        related = []
        for w in witnesses:
            held_at = (
                f" (held since {site_key(w.held_source)})" if w.held_source else ""
            )
            related.append(
                Site(
                    label=f"T{w.tid} acquired {w.later} while holding "
                    f"{w.held}{held_at}",
                    tid=w.tid,
                    source=w.later_source,
                    event_index=w.later_event_index,
                )
            )
        first = witnesses[0]
        raw = synthesize_deadlock_witness(ctx.trace, witnesses)
        return self.finding(
            f"lock-order cycle {chain} between threads "
            f"{', '.join(f'T{t}' for t in threads)}: the orderings are "
            "inverted, so an adverse schedule deadlocks",
            tid=first.tid,
            obj=first.later,
            source=first.later_source,
            event_index=first.later_event_index,
            related=tuple(related),
            witness=raw.to_dict() if raw is not None else None,
        )


def _elementary_cycles(
    graph: Dict[SyncObjectId, List[SyncObjectId]]
) -> List[List[SyncObjectId]]:
    """Distinct elementary cycles of a small digraph (DFS, deduplicated
    by canonical rotation — lock graphs have a handful of nodes)."""
    cycles: List[List[SyncObjectId]] = []
    seen: Set[Tuple[str, ...]] = set()

    def canonical(path: List[SyncObjectId]) -> Tuple[str, ...]:
        names = [str(o) for o in path]
        pivot = min(range(len(names)), key=lambda i: names[i])
        return tuple(names[pivot:] + names[:pivot])

    def dfs(start: SyncObjectId, node: SyncObjectId, path: List[SyncObjectId]):
        for succ in graph.get(node, ()):
            if succ == start:
                key = canonical(path)
                if key not in seen:
                    seen.add(key)
                    cycles.append(list(path))
            elif succ not in path and str(succ) > str(start):
                # only extend through nodes "after" start: each cycle is
                # then found exactly once, rooted at its smallest node
                path.append(succ)
                dfs(start, succ, path)
                path.pop()

    for start in sorted(graph, key=str):
        dfs(start, start, [start])
    return cycles


# ---------------------------------------------------------------------------
# VPPB-R003..R005 — condition-variable misuse
# ---------------------------------------------------------------------------


@register_rule
class CondWaitWithoutMutexRule(Rule):
    id = "VPPB-R003"
    severity = Severity.ERROR
    title = "cond_wait without holding the associated mutex"
    rationale = (
        "Waiting on a condition variable without the mutex that guards its "
        "predicate races the predicate check against the signaller: the "
        "wake-up can be consumed between test and sleep (lost wake-up)."
    )

    def run(self, ctx: LintContext) -> Iterable[Finding]:
        for ev in ctx.analysis.hygiene:
            if ev.kind != "wait-no-mutex":
                continue
            yield self.finding(
                f"T{ev.tid} waits on {ev.obj} without holding the associated "
                f"mutex (held at the call: {_fmt_locks(ev.held)})",
                tid=ev.tid,
                obj=ev.obj,
                source=ev.source,
                event_index=ev.event_index,
            )


@register_rule
class SignalWithoutWaiterRule(Rule):
    id = "VPPB-R004"
    severity = Severity.WARNING
    title = "signal/broadcast on a condition variable nobody ever waits on"
    rationale = (
        "A condition variable that is signalled but never waited on in the "
        "whole monitored run is either dead code or — worse — the waiter "
        "exists on another path and the signal arrives before it sleeps."
    )

    def run(self, ctx: LintContext) -> Iterable[Finding]:
        for cond, obs in sorted(ctx.analysis.conds.items(), key=lambda kv: str(kv[0])):
            wakes = obs.signals + obs.broadcasts
            if wakes and obs.waits == 0:
                yield self.finding(
                    f"{cond} is signalled {wakes} time(s) but no thread ever "
                    "waits on it in the recorded run",
                    obj=cond,
                )


@register_rule
class TimedwaitTimeoutHotspotRule(Rule):
    id = "VPPB-R005"
    severity = Severity.WARNING
    title = "cond_timedwait timeout hot spot"
    rationale = (
        "A call site whose timed waits keep expiring is polling: the "
        "timeout, not a signal, paces the thread.  On more processors the "
        "polling interval becomes the bottleneck (§4 blocking metrics)."
    )

    #: A site is hot when it timed out at least this many times ...
    min_timeouts = 3
    #: ... and at least this fraction of its timed waits expired.
    min_ratio = 0.5

    def run(self, ctx: LintContext) -> Iterable[Finding]:
        for cond, obs in sorted(ctx.analysis.conds.items(), key=lambda kv: str(kv[0])):
            for site in obs.timeout_sites.values():
                source, timeouts, calls, index = site
                if timeouts >= self.min_timeouts and timeouts / max(1, calls) >= self.min_ratio:
                    yield self.finding(
                        f"cond_timedwait on {cond} timed out {timeouts} of "
                        f"{calls} time(s) at this site — timeout-paced "
                        "polling loop",
                        obj=cond,
                        source=source,
                        event_index=index,
                    )


# ---------------------------------------------------------------------------
# VPPB-R006..R009 — lock hygiene
# ---------------------------------------------------------------------------


@register_rule
class UnlockWithoutLockRule(Rule):
    id = "VPPB-R006"
    severity = Severity.ERROR
    title = "unlock of a lock the thread does not hold"
    rationale = (
        "Unlocking a mutex another thread owns (or that nobody holds) is "
        "undefined behaviour on Solaris and corrupts the waiter queue; it "
        "usually means the lock/unlock pairing is split across branches."
    )

    def run(self, ctx: LintContext) -> Iterable[Finding]:
        for ev in ctx.analysis.hygiene:
            if ev.kind != "unlock-without-lock":
                continue
            yield self.finding(
                f"T{ev.tid} unlocks {ev.obj} without holding it "
                f"(held at the call: {_fmt_locks(ev.held)})",
                tid=ev.tid,
                obj=ev.obj,
                source=ev.source,
                event_index=ev.event_index,
            )


@register_rule
class JoinHoldingLockRule(Rule):
    id = "VPPB-R007"
    severity = Severity.WARNING
    title = "thr_join while holding a lock"
    rationale = (
        "Joining a thread can block indefinitely; doing so while holding a "
        "lock extends the hold across the joined thread's whole remaining "
        "lifetime — and deadlocks outright if the joined thread needs it."
    )

    def run(self, ctx: LintContext) -> Iterable[Finding]:
        for ev in ctx.analysis.hygiene:
            if ev.kind != "join-holding-locks":
                continue
            yield self.finding(
                f"T{ev.tid} calls thr_join while holding "
                f"{_fmt_locks(ev.held)}",
                tid=ev.tid,
                source=ev.source,
                event_index=ev.event_index,
            )


@register_rule
class UncontendedLockRule(Rule):
    id = "VPPB-R008"
    severity = Severity.NOTE
    title = "lock never contended (candidate for removal)"
    rationale = (
        "A lock only ever taken by one thread protects nothing shared; "
        "each acquisition still pays the §3.2 synchronisation cost.  "
        "Removing it (or narrowing its scope) is free speed-up."
    )

    #: Ignore locks acquired fewer times than this (too little evidence).
    min_acquisitions = 4

    def run(self, ctx: LintContext) -> Iterable[Finding]:
        for obj, usage in sorted(
            ctx.analysis.lock_usage.items(), key=lambda kv: str(kv[0])
        ):
            if obj.kind not in ("mutex", "rwlock"):
                continue
            if usage.acquisitions < self.min_acquisitions:
                continue
            if len(usage.owners) == 1:
                owner = next(iter(usage.owners))
                yield self.finding(
                    f"{obj} was acquired {usage.acquisitions} time(s), all "
                    f"by T{owner} — never shared, candidate for removal",
                    tid=owner,
                    obj=obj,
                    source=usage.first_source,
                    event_index=usage.first_event_index,
                )


@register_rule
class PathologicalHoldRule(Rule):
    id = "VPPB-R009"
    severity = Severity.WARNING
    title = "pathological lock hold time"
    rationale = (
        "One critical section holding a shared lock for a large fraction "
        "of the run serialises every other thread behind it — the §5 "
        "producer/consumer bottleneck in its purest form."
    )

    #: A single hold spanning at least this fraction of the trace is
    #: pathological (only for locks more than one thread uses).
    max_hold_fraction = 0.25

    def run(self, ctx: LintContext) -> Iterable[Finding]:
        duration = ctx.trace.duration_us
        if duration <= 0:
            return
        for obj, usage in sorted(
            ctx.analysis.lock_usage.items(), key=lambda kv: str(kv[0])
        ):
            if obj.kind not in ("mutex", "rwlock") or len(usage.owners) < 2:
                continue
            frac = usage.max_held_us / duration
            if frac >= self.max_hold_fraction and usage.max_held_site:
                tid, source, index = usage.max_held_site
                yield self.finding(
                    f"T{tid} held {obj} for "
                    f"{usage.max_held_us / 1e6:.3f}s — {frac:.0%} of the "
                    f"monitored run — while {len(usage.owners)} threads "
                    "share it",
                    tid=tid,
                    obj=obj,
                    source=source,
                    event_index=index,
                )


# ---------------------------------------------------------------------------
# VPPB-R010 — salvaged input
# ---------------------------------------------------------------------------


@register_rule
class IncompleteInputRule(Rule):
    id = "VPPB-R010"
    severity = Severity.NOTE
    title = "trace was salvaged; lint ran on an incomplete log"
    rationale = (
        "The log did not parse cleanly and the salvage pipeline repaired "
        "or dropped records before analysis.  Every finding still points "
        "at real recorded events, but silence proves nothing: a hazard "
        "may have lived in the damaged region."
    )

    def run(self, ctx: LintContext) -> Iterable[Finding]:
        report = ctx.salvage
        if report is None or report.clean:
            return
        counts = ", ".join(
            f"{n}x {kind}" for kind, n in sorted(report.counts_by_kind().items())
        )
        yield self.finding(
            f"input was salvaged: kept {report.records_kept} of "
            f"{report.records_parsed} parsed records over "
            f"{report.total_lines} lines ({len(report.repairs)} repairs: "
            f"{counts}) — findings are valid, absence of findings is not",
        )
