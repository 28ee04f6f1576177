"""Live interposition on Python ``threading`` — the LD_PRELOAD analogue.

The paper's Recorder slips an instrumented library between the program
and ``libthread.so.1`` so every thread-library call is logged without
recompiling the program (§3.1).  This module does the same for real
Python programs: :class:`PyThreadsRecorder` hands out instrumented
``Thread`` / ``Lock`` / ``Semaphore`` / ``Condition`` objects (and can
optionally monkey-patch the ``threading`` module, the moral equivalent of
``LD_PRELOAD``), producing a standard :class:`~repro.core.trace.Trace`.

Why this is sound here of all places: CPython's GIL means a multithreaded
Python program *already* executes like the paper's monitored run — one
kernel thread making progress at a time, switching at blocking points.
The recorded log can then be fed to the same Simulator to predict how the
program would scale on N processors *if the GIL were not there* (or under
a GIL-free runtime).  Caveats inherited from the substrate: timestamps
include GIL hand-off noise, and CPU bursts are wall-clock approximations
(the repro-band note: "GIL distorts thread timing; trace replay still
doable").
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Dict, List, Optional

from repro.core.events import EventRecord, Phase, Primitive, Status
from repro.core.ids import MAIN_THREAD_ID, SyncObjectId, ThreadId
from repro.core.trace import Trace, TraceMeta
from repro.recorder.srcmap import AddressMap, RawCallSite, capture_call_site

__all__ = ["PyThreadsRecorder"]

# The real factories, captured at import time so instrumented objects and
# the patched() context manager never recurse into themselves.
_REAL_THREAD = threading.Thread
_REAL_LOCK = threading.Lock
_REAL_SEMAPHORE = threading.Semaphore
_REAL_CONDITION = threading.Condition


class PyThreadsRecorder:
    """Records thread-library activity of a live Python program.

    Use the instrumented factories::

        rec = PyThreadsRecorder("myprog")
        lock = rec.Lock("queue")
        t = rec.Thread(target=worker, args=(lock,))
        with rec.collecting():
            t.start()
            t.join()
        trace = rec.trace()

    or patch the whole ``threading`` module for unmodified code::

        with rec.patched(), rec.collecting():
            unmodified_function_using_threading()
    """

    def __init__(self, program: str = "a.out"):
        self.program = program
        self._records: List[tuple] = []  # (us, tid, phase, prim, kw, site)
        self._t0_ns: Optional[int] = None
        #: Thread object -> solaris-ish tid (not the OS ident, which the
        #: next thread reuses once this one has exited)
        self._tids: Dict[threading.Thread, int] = {}
        self._next_tid = itertools.count(4)
        self._obj_names: Dict[int, str] = {}
        self._obj_counter: Dict[str, itertools.count] = {}
        self._thread_functions: Dict[int, str] = {}
        self._lock = threading.Lock()
        self._collecting = False

    # ------------------------------------------------------------------
    # time & identity
    # ------------------------------------------------------------------

    def _now_us(self) -> int:
        assert self._t0_ns is not None
        return max(0, (time.monotonic_ns() - self._t0_ns) // 1_000)

    def _tid(self, thread: Optional[threading.Thread] = None) -> ThreadId:
        """The recorded tid of *thread* (default: the calling thread)."""
        if thread is None:
            thread = threading.current_thread()
        with self._lock:
            tid = self._tids.get(thread)
            if tid is None:
                if thread is threading.main_thread():
                    tid = int(MAIN_THREAD_ID)
                else:
                    tid = next(self._next_tid)
                self._tids[thread] = tid
        return ThreadId(tid)

    def _name_object(self, kind: str, name: Optional[str]) -> str:
        if name is not None:
            return name
        counter = self._obj_counter.setdefault(kind, itertools.count(1))
        return f"{kind}{next(counter)}"

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def _record(
        self,
        phase: Phase,
        primitive: Primitive,
        *,
        site: Optional[RawCallSite] = None,
        **kw,
    ) -> None:
        if not self._collecting:
            return
        entry = (self._now_us(), self._tid(), phase, primitive, kw, site)
        with self._lock:
            self._records.append(entry)

    def collecting(self):
        """Context manager delimiting the monitored interval."""
        rec = self

        class _Collecting:
            def __enter__(self):
                rec._t0_ns = time.monotonic_ns()
                rec._collecting = True
                rec._record(Phase.CALL, Primitive.START_COLLECT)
                return rec

            def __exit__(self, *exc):
                rec._record(Phase.CALL, Primitive.END_COLLECT)
                rec._collecting = False
                return False

        return _Collecting()

    def trace(self) -> Trace:
        """Finalize: translate call sites (the "debugger" pass) and build
        the trace."""
        addr_map = AddressMap()
        records = [
            EventRecord(
                time_us=us,
                tid=tid,
                phase=phase,
                primitive=prim,
                source=addr_map.resolve(site),
                **kw,
            )
            for us, tid, phase, prim, kw, site in self._records
        ]
        meta = TraceMeta(
            program=self.program,
            thread_functions=dict(self._thread_functions),
            comment="recorded from live Python threading (GIL uni-processor)",
        )
        # live timestamps can tie across threads; keep recorder order
        return Trace(records, meta, validate=False)

    # ------------------------------------------------------------------
    # instrumented thread
    # ------------------------------------------------------------------

    def Thread(self, target=None, args=(), kwargs=None, name: Optional[str] = None):
        """An instrumented ``threading.Thread``."""
        rec = self

        class _Thread(_REAL_THREAD):
            def start(self, *a, **k):
                site = capture_call_site()
                rec._record(Phase.CALL, Primitive.THR_CREATE, site=site)
                super().start(*a, **k)
                # the child may already have registered its tid in run()
                child = rec._tid(self)
                func = getattr(self._target_func, "__name__", self.name)
                rec._thread_functions[child] = func
                rec._record(
                    Phase.RET,
                    Primitive.THR_CREATE,
                    site=site,
                    target=ThreadId(child),
                    status=Status.OK,
                    arg=0,
                )

            def run(self):
                rec._tid()  # register
                rec._record(Phase.CALL, Primitive.THREAD_START)
                try:
                    super().run()
                finally:
                    rec._record(Phase.CALL, Primitive.THR_EXIT)

            def join(self, timeout=None):
                site = capture_call_site()
                child = rec._tids.get(self)
                target = ThreadId(child) if child is not None else None
                rec._record(
                    Phase.CALL, Primitive.THR_JOIN, site=site, target=target
                )
                super().join(timeout)
                rec._record(
                    Phase.RET,
                    Primitive.THR_JOIN,
                    site=site,
                    target=target,
                    status=Status.OK,
                )

        thread = _Thread(target=target, args=args, kwargs=kwargs or {}, name=name)
        thread._target_func = target
        return thread

    # ------------------------------------------------------------------
    # instrumented synchronisation objects
    # ------------------------------------------------------------------

    def Lock(self, name: Optional[str] = None):
        rec = self
        oid = SyncObjectId("mutex", self._name_object("lock", name))

        class _Lock:
            def __init__(self):
                self._real = _REAL_LOCK()

            def acquire(self, blocking: bool = True, timeout: float = -1, *, _site=None):
                site = _site or capture_call_site()
                prim = (
                    Primitive.MUTEX_LOCK if blocking else Primitive.MUTEX_TRYLOCK
                )
                rec._record(Phase.CALL, prim, site=site, obj=oid)
                ok = self._real.acquire(blocking, timeout)
                rec._record(
                    Phase.RET,
                    prim,
                    site=site,
                    obj=oid,
                    status=Status.OK if ok else Status.BUSY,
                )
                return ok

            def release(self, *, _site=None):
                site = _site or capture_call_site()
                rec._record(Phase.CALL, Primitive.MUTEX_UNLOCK, site=site, obj=oid)
                self._real.release()
                rec._record(
                    Phase.RET,
                    Primitive.MUTEX_UNLOCK,
                    site=site,
                    obj=oid,
                    status=Status.OK,
                )

            def __enter__(self):
                # skip this frame so the 'with lock:' line is recorded
                self.acquire(_site=capture_call_site(depth=2))
                return self

            def __exit__(self, *exc):
                self.release(_site=capture_call_site(depth=2))
                return False

            def locked(self):
                return self._real.locked()

        return _Lock()

    def Semaphore(self, value: int = 1, name: Optional[str] = None):
        rec = self
        oid = SyncObjectId("sema", self._name_object("sema", name))
        site0 = capture_call_site()
        rec._record(Phase.CALL, Primitive.SEMA_INIT, site=site0, obj=oid, arg=value)
        rec._record(
            Phase.RET,
            Primitive.SEMA_INIT,
            site=site0,
            obj=oid,
            arg=value,
            status=Status.OK,
        )

        class _Semaphore:
            def __init__(self):
                self._real = _REAL_SEMAPHORE(value)

            def acquire(self, blocking: bool = True, timeout=None, *, _site=None):
                site = _site or capture_call_site()
                prim = Primitive.SEMA_WAIT if blocking else Primitive.SEMA_TRYWAIT
                rec._record(Phase.CALL, prim, site=site, obj=oid)
                ok = self._real.acquire(blocking, timeout)
                rec._record(
                    Phase.RET,
                    prim,
                    site=site,
                    obj=oid,
                    status=Status.OK if ok else Status.BUSY,
                )
                return ok

            def release(self, n: int = 1, *, _site=None):
                site = _site or capture_call_site()
                for _ in range(n):
                    rec._record(Phase.CALL, Primitive.SEMA_POST, site=site, obj=oid)
                    self._real.release()
                    rec._record(
                        Phase.RET,
                        Primitive.SEMA_POST,
                        site=site,
                        obj=oid,
                        status=Status.OK,
                    )

            def __enter__(self):
                self.acquire(_site=capture_call_site(depth=2))
                return self

            def __exit__(self, *exc):
                self.release(_site=capture_call_site(depth=2))
                return False

        return _Semaphore()

    def Condition(self, lock=None, name: Optional[str] = None):
        rec = self
        cond_name = self._name_object("cond", name)
        oid = SyncObjectId("cond", cond_name)
        mutex_oid = None
        real_lock = None
        if lock is not None and hasattr(lock, "_real"):
            real_lock = lock._real

        class _Condition:
            def __init__(self):
                self._real = _REAL_CONDITION(real_lock)
                self._lock_proxy = lock

            def __enter__(self):
                if self._lock_proxy is not None:
                    self._lock_proxy.acquire()
                else:
                    self._real.acquire()
                return self

            def __exit__(self, *exc):
                if self._lock_proxy is not None:
                    self._lock_proxy.release()
                else:
                    self._real.release()
                return False

            def wait(self, timeout: Optional[float] = None):
                site = capture_call_site()
                obj2 = (
                    SyncObjectId("mutex", "cond-internal")
                    if self._lock_proxy is None
                    else SyncObjectId("mutex", rec._obj_names.get(id(lock), "m"))
                )
                if timeout is None:
                    rec._record(
                        Phase.CALL, Primitive.COND_WAIT, site=site, obj=oid
                    )
                    ok = self._real.wait()
                    rec._record(
                        Phase.RET,
                        Primitive.COND_WAIT,
                        site=site,
                        obj=oid,
                        status=Status.OK,
                    )
                else:
                    rec._record(
                        Phase.CALL,
                        Primitive.COND_TIMEDWAIT,
                        site=site,
                        obj=oid,
                        arg=round(timeout * 1_000_000),
                    )
                    ok = self._real.wait(timeout)
                    rec._record(
                        Phase.RET,
                        Primitive.COND_TIMEDWAIT,
                        site=site,
                        obj=oid,
                        arg=round(timeout * 1_000_000),
                        status=Status.OK if ok else Status.TIMEOUT,
                    )
                return ok

            def notify(self, n: int = 1):
                site = capture_call_site()
                rec._record(Phase.CALL, Primitive.COND_SIGNAL, site=site, obj=oid)
                self._real.notify(n)
                rec._record(
                    Phase.RET,
                    Primitive.COND_SIGNAL,
                    site=site,
                    obj=oid,
                    status=Status.OK,
                )

            def notify_all(self):
                site = capture_call_site()
                rec._record(
                    Phase.CALL, Primitive.COND_BROADCAST, site=site, obj=oid
                )
                self._real.notify_all()
                rec._record(
                    Phase.RET,
                    Primitive.COND_BROADCAST,
                    site=site,
                    obj=oid,
                    status=Status.OK,
                )

        return _Condition()

    # ------------------------------------------------------------------
    # LD_PRELOAD-style module patching
    # ------------------------------------------------------------------

    def patched(self):
        """Context manager that swaps the factories in the ``threading``
        module itself, so unmodified code is recorded — the closest
        Python gets to ``LD_PRELOAD``."""
        rec = self

        class _Patched:
            def __enter__(self):
                self._saved = (
                    threading.Thread,
                    threading.Lock,
                    threading.Semaphore,
                    threading.Condition,
                )
                threading.Thread = lambda *a, **k: rec.Thread(
                    target=k.get("target"),
                    args=k.get("args", ()),
                    kwargs=k.get("kwargs"),
                    name=k.get("name"),
                )
                threading.Lock = lambda: rec.Lock()
                threading.Semaphore = lambda value=1: rec.Semaphore(value)
                threading.Condition = lambda lock=None: rec.Condition(lock)
                return rec

            def __exit__(self, *exc):
                (
                    threading.Thread,
                    threading.Lock,
                    threading.Semaphore,
                    threading.Condition,
                ) = self._saved
                return False

        return _Patched()
