"""Happens-before over the recorded log: dual vector clocks, FastTrack epochs.

The Eraser lockset (VPPB-R001) reasons about *protection*; this module
reasons about *ordering*.  The two answer different failure modes of a
pure lockset analysis:

* **False positives** — accesses ordered by ``thr_create``/``thr_join``,
  a semaphore hand-off, or a condvar signal→wake need no common lock:
  no schedule can reorder them.  The lockset still empties and Eraser
  reports; happens-before proves the report wrong.
* **Severity** — an empty lockset where every recorded conflict happens
  to be ordered by mutex release→acquire is *fragile* (the ordering is
  an accident of this interleaving, another schedule drops it), while a
  conflict no recorded synchronisation orders is a demonstrable race.

So the detector keeps **two** happens-before relations per thread:

``hard``
    fork/join + semaphore post→wait + condvar signal→wake edges — the
    orderings *every* schedule preserves (they gate thread existence or
    carry a counted token).
``full``
    ``hard`` plus mutex/rwlock release→acquire edges — the orderings
    *this recorded* schedule exhibited.

A conflicting access pair (same variable, different threads, at least
one write) is classified:

* concurrent under ``full``  → nothing the program did orders them: an
  **error**-grade race, and a witness schedule can exhibit it;
* ordered under ``full`` but concurrent under ``hard`` → lock hand-off
  ordered them *this time*: **warning** grade;
* ordered under ``hard`` → benign; the pair is never recorded at all
  (this is what deletes the fork/join false positives).

Per-variable state follows FastTrack (Flanagan & Freund, 2009): the last
write is one epoch, reads adaptively escalate from a single epoch to a
per-thread vector only when genuinely concurrent reads appear, and a
same-epoch re-access is a constant-time no-op.  The detector is driven
by :func:`repro.analysis.lint.locks.sweep` so the whole thing stays one
pass over the log.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.ids import SyncObjectId

__all__ = ["RaceDetector", "RacePair", "VarRaces"]

#: A vector clock: thread id -> logical time.  Plain dicts: the sweep
#: touches one per sync event, so construction cost matters.
VC = Dict[int, int]


def _join(into: VC, other: VC) -> None:
    for tid, clk in other.items():
        if into.get(tid, 0) < clk:
            into[tid] = clk


@dataclass(frozen=True)
class RacePair:
    """One recorded conflicting access pair and its ordering class.

    ``earlier``/``later`` are :class:`~repro.analysis.lint.locks.Access`
    records in log order.  ``full_concurrent`` is True when not even the
    recorded lock hand-offs order the two accesses — the error tier,
    and the pair a witness schedule can invert.
    """

    earlier: object  # Access
    later: object  # Access
    full_concurrent: bool


@dataclass
class VarRaces:
    """Every hard-concurrent conflicting pair recorded for one variable."""

    var: SyncObjectId
    pairs: List[RacePair] = field(default_factory=list)

    def best_pair(self) -> Optional[RacePair]:
        """The pair to report: a full-concurrent one when any exists."""
        for p in self.pairs:
            if p.full_concurrent:
                return p
        return self.pairs[0] if self.pairs else None


class _VarState:
    """FastTrack per-variable access summary."""

    __slots__ = (
        "write_tid", "write_hard", "write_full", "write_access",
        "read_epoch", "reads",
    )

    def __init__(self) -> None:
        self.write_tid: Optional[int] = None
        self.write_hard = 0
        self.write_full = 0
        self.write_access = None
        #: single-reader fast path: (tid, hard, full, access) or None
        self.read_epoch: Optional[tuple] = None
        #: escalated form: tid -> (hard, full, access)
        self.reads: Optional[Dict[int, tuple]] = None


#: Cap on recorded pairs per variable per tier — enough for witnesses
#: and reporting, bounded against pathological all-racy traces.
_MAX_PAIRS_PER_TIER = 4


class RaceDetector:
    """Vector-clock happens-before driven by the lock sweep.

    The sweep calls the edge hooks (`fork`, `join`, `acquire_lock`, ...)
    as it walks the log and `read`/`write` for every shared access; the
    detector accumulates :class:`VarRaces` in :attr:`races`.
    """

    def __init__(self) -> None:
        self._hard: Dict[int, VC] = {}
        self._full: Dict[int, VC] = {}
        #: mutex/rwlock release clocks (full relation only)
        self._lock_vc: Dict[SyncObjectId, VC] = {}
        #: sema/cond accumulators: obj -> (hard VC, full VC)
        self._sync_vc: Dict[SyncObjectId, Tuple[VC, VC]] = {}
        self._vars: Dict[SyncObjectId, _VarState] = {}
        self.races: Dict[SyncObjectId, VarRaces] = {}

    # -- clock plumbing --------------------------------------------------

    def _clocks(self, tid: int) -> Tuple[VC, VC]:
        hard = self._hard.get(tid)
        if hard is None:
            # a thread first seen mid-log (synthetic traces, salvaged
            # prefixes): born concurrent with everyone — conservative
            # toward reporting, never toward suppression
            hard = self._hard[tid] = {tid: 1}
            self._full[tid] = {tid: 1}
        return hard, self._full[tid]

    def _tick(self, tid: int, *, hard: bool) -> None:
        h, f = self._clocks(tid)
        f[tid] = f.get(tid, 0) + 1
        if hard:
            h[tid] = h.get(tid, 0) + 1

    # -- happens-before edge hooks (called by locks.sweep) ---------------

    def fork(self, parent: int, child: int) -> None:
        """``thr_create`` returned: the child inherits the parent's past."""
        ph, pf = self._clocks(parent)
        ch = dict(ph)
        cf = dict(pf)
        ch[child] = ch.get(child, 0) + 1
        cf[child] = cf.get(child, 0) + 1
        self._hard[child] = ch
        self._full[child] = cf
        self._tick(parent, hard=True)

    def join(self, parent: int, child: int) -> None:
        """``thr_join`` returned: the child's whole life precedes here."""
        child_h = self._hard.get(child)
        if child_h is None:
            return
        ph, pf = self._clocks(parent)
        _join(ph, child_h)
        _join(pf, self._full[child])

    def release_lock(self, tid: int, obj: SyncObjectId) -> None:
        """Mutex/rwlock unlock: publish into the lock's clock (full only)."""
        _, f = self._clocks(tid)
        vc = self._lock_vc.get(obj)
        if vc is None:
            vc = self._lock_vc[obj] = {}
        _join(vc, f)
        self._tick(tid, hard=False)

    def acquire_lock(self, tid: int, obj: SyncObjectId) -> None:
        """Mutex/rwlock acquire: absorb the last release (full only)."""
        vc = self._lock_vc.get(obj)
        if vc:
            _, f = self._clocks(tid)
            _join(f, vc)

    def sync_send(self, tid: int, obj: SyncObjectId) -> None:
        """``sema_post`` / ``cond_signal`` / ``cond_broadcast``: a hard edge
        source — the token/wake carries this thread's past to the waiter."""
        h, f = self._clocks(tid)
        pair = self._sync_vc.get(obj)
        if pair is None:
            pair = self._sync_vc[obj] = ({}, {})
        _join(pair[0], h)
        _join(pair[1], f)
        self._tick(tid, hard=True)

    def sync_recv(self, tid: int, obj: SyncObjectId) -> None:
        """``sema_wait`` / ``cond_wait`` returned OK: absorb the senders."""
        pair = self._sync_vc.get(obj)
        if pair:
            h, f = self._clocks(tid)
            _join(h, pair[0])
            _join(f, pair[1])

    # -- access checks ----------------------------------------------------

    def write(self, access) -> None:
        tid = access.tid
        h, f = self._clocks(tid)
        eh, ef = h.get(tid, 0), f.get(tid, 0)
        st = self._vars.get(access.var)
        if st is None:
            st = self._vars[access.var] = _VarState()
        elif st.write_tid == tid and st.write_hard == eh:
            # same-epoch rewrite: every conflict was checked last time
            st.write_access = access
            return
        else:
            self._check_write(st, access, tid, h, f)
        st.write_tid = tid
        st.write_hard = eh
        st.write_full = ef
        st.write_access = access
        # reads before this write were just checked; later reads open
        # fresh state (FastTrack's read-clear on write)
        st.read_epoch = None
        st.reads = None

    def read(self, access) -> None:
        tid = access.tid
        h, f = self._clocks(tid)
        eh, ef = h.get(tid, 0), f.get(tid, 0)
        st = self._vars.get(access.var)
        if st is None:
            st = self._vars[access.var] = _VarState()
        # same-epoch re-read: already checked against this write
        if st.reads is not None:
            prev = st.reads.get(tid)
            if prev is not None and prev[0] == eh:
                return
        elif st.read_epoch is not None and st.read_epoch[0] == tid and st.read_epoch[1] == eh:
            return
        # read-vs-last-write check
        if (
            st.write_tid is not None
            and st.write_tid != tid
            and st.write_hard > h.get(st.write_tid, 0)
        ):
            self._record(
                access.var,
                st.write_access,
                access,
                st.write_full > f.get(st.write_tid, 0),
            )
        # adaptive read state
        entry = (eh, ef, access)
        if st.reads is not None:
            st.reads[tid] = entry
        elif st.read_epoch is None or st.read_epoch[0] == tid:
            st.read_epoch = (tid, eh, ef, access)
        else:
            prev_tid, ph, pf, pacc = st.read_epoch
            st.reads = {prev_tid: (ph, pf, pacc), tid: entry}
            st.read_epoch = None

    def _check_write(self, st: _VarState, access, tid: int, h: VC, f: VC) -> None:
        # write-vs-last-write
        if (
            st.write_tid is not None
            and st.write_tid != tid
            and st.write_hard > h.get(st.write_tid, 0)
        ):
            self._record(
                access.var,
                st.write_access,
                access,
                st.write_full > f.get(st.write_tid, 0),
            )
        # write-vs-reads
        if st.reads is not None:
            items = st.reads.items()
        elif st.read_epoch is not None:
            rt, rh, rf, racc = st.read_epoch
            items = ((rt, (rh, rf, racc)),)
        else:
            items = ()
        for rtid, (rh, rf, racc) in items:
            if rtid != tid and rh > h.get(rtid, 0):
                self._record(access.var, racc, access, rf > f.get(rtid, 0))

    def _record(self, var: SyncObjectId, earlier, later, full_concurrent: bool) -> None:
        info = self.races.get(var)
        if info is None:
            info = self.races[var] = VarRaces(var=var)
        tier_count = sum(
            1 for p in info.pairs if p.full_concurrent == full_concurrent
        )
        if tier_count >= _MAX_PAIRS_PER_TIER:
            return
        info.pairs.append(
            RacePair(earlier=earlier, later=later, full_concurrent=full_concurrent)
        )
