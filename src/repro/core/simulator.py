"""The VPPB Simulator (§3.2).

Drives thread behaviours over the Solaris scheduling model:

* each running thread is executed as a sequence of *steps* — a CPU burst
  followed by one thread-library operation;
* the operation's cost (from the :class:`~repro.solaris.costs.CostModel`,
  with the paper's bound-thread multipliers) is charged as CPU time at the
  end of the burst, then its semantics are applied against the simulated
  synchronisation objects;
* blocking operations take the thread off its processor; the return from
  the call (and its return-probe overhead, when recording) happens when the
  thread is scheduled again — exactly the timing a real interposed library
  exhibits.

The same class performs three roles from the paper's figure 1:

* **monitored uni-processor execution** — ``Simulator(uniprocessor config,
  probe=Recorder)`` running a live program *is* the Recorder run: the probe
  writes the log and its overhead is charged into the simulated timeline
  (that is the §4 "intrusion");
* **ground-truth multiprocessor execution** — a live program on an N-CPU
  configuration (optionally with OS-noise perturbation) stands in for the
  paper's real Sun E4000 runs;
* **prediction** — a :class:`ReplayPlan` compiled from a recorded trace by
  :mod:`repro.core.predictor` replayed under any configuration.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from heapq import heappush
from typing import Callable, Dict, Iterator, List, Optional, Protocol

from repro.core.config import SimConfig
from repro.core.engine import Engine, Watchdog
from repro.core.errors import (
    BudgetExceededError,
    DeadlockError,
    LivelockError,
    ProgramError,
    ReplayDivergenceError,
    SimulationError,
)
from repro.core.events import EventRecord, Phase, Primitive, Status
from repro.core.ids import MAIN_THREAD_ID, ThreadId
from repro.core.result import (
    Incompleteness,
    ResultBuilder,
    RunStatus,
    SimulationResult,
)
from repro.program import ops as op_mod
from repro.program.behavior import LiveBehavior, Step, ThreadBehavior
from repro.program.program import Program, ThreadCtx
from repro.solaris.scheduler import Scheduler
from repro.solaris.sync import NO_RESULT, SyncObjectTable
from repro.solaris.thread_model import (
    DEFAULT_USER_PRIORITY,
    SimThread,
    ThreadState,
)

__all__ = ["ProbeAPI", "ReplayThreadMeta", "ReplayPlan", "Simulator", "simulate_program"]


class ProbeAPI(Protocol):
    """What the Simulator needs from a Recorder probe (§3.1)."""

    @property
    def overhead_us(self) -> int:
        """CPU time one probe record costs the monitored program."""
        ...

    def record(self, rec: EventRecord) -> None:
        """Store one log record."""

    def note_thread_function(self, tid: int, func_name: str) -> None:
        """Remember the start routine passed to ``thr_create``."""


@dataclass(frozen=True)
class ReplayThreadMeta:
    """Per-thread attributes reconstructed from a trace."""

    tid: int
    func_name: str = ""
    bound: bool = False


# ---------------------------------------------------------------------------
# compiled replay plans (the fast interpreter's instruction set)
# ---------------------------------------------------------------------------

#: Primitive → index into the per-run cost rows (0 = "no primitive").
_PRIM_IDX: Dict[Primitive, int] = {p: i + 1 for i, p in enumerate(Primitive)}

#: ops whose sync object can be resolved once per run instead of per
#: execution, mapped to the :class:`SyncObjectTable` accessor that
#: resolves it.  Creation takes no parameters for these kinds, so
#: resolving (and so creating) early is invisible in the result.
#: Semaphores are excluded — sema() uses the initial count only at
#: creation, so first touch must stay at execution time.  Their handlers
#: read the object from ``rt.cur_sync``: a replay compiles steps to
#: small-int *slots* (one per distinct object a thread touches) resolved
#: once per run, a live step resolves its object when its burst ends.
_SYNC_KIND: Dict[type, Callable[[SyncObjectTable, str], object]] = {
    op_mod.MutexLock: SyncObjectTable.mutex,
    op_mod.MutexTrylock: SyncObjectTable.mutex,
    op_mod.MutexUnlock: SyncObjectTable.mutex,
    op_mod.CondSignal: SyncObjectTable.cond,
    op_mod.CondBroadcast: SyncObjectTable.cond,
    op_mod.RwRdLock: SyncObjectTable.rwlock,
    op_mod.RwWrLock: SyncObjectTable.rwlock,
    op_mod.RwTryRdLock: SyncObjectTable.rwlock,
    op_mod.RwTryWrLock: SyncObjectTable.rwlock,
    op_mod.RwUnlock: SyncObjectTable.rwlock,
}


class CompiledThread:
    """One thread's step list lowered to flat parallel arrays.

    Built once per :class:`ReplayPlan` and shared by every replay of the
    plan: small-int op-codes (indices into the simulator's pre-bound
    handler table), burst work, cost-table primitive indices, and the
    per-step constants the placed events need (sync-object id, target
    tid) so the hot loop touches no op attributes or properties.  The
    original ``Op`` objects ride along because completion events carry
    ``op.source`` and the handlers apply op semantics.
    """

    __slots__ = (
        "codes", "works", "prims", "ops", "objs", "targets",
        "sync_slots", "slot_specs", "create_idx", "n",
    )

    def __init__(self, steps: List[Step]):
        seq = list(steps)
        if not seq or type(seq[-1].op) is not op_mod.ThrExit:
            # need_step synthesises Step(0, ThrExit()) when a live
            # behaviour runs dry; bake the same sentinel in
            seq.append(Step(0, op_mod.ThrExit()))
        ops = tuple(s.op for s in seq)
        self.ops = ops
        self.works = tuple(s.work_us for s in seq)
        try:
            self.codes = tuple(_OPCODE_OF[type(op)] for op in ops)
        except KeyError as exc:  # an Op subclass outside the vocabulary
            raise ProgramError(f"unhandled op {exc.args[0].__name__}") from None
        self.prims = tuple(
            0 if op.primitive is None else _PRIM_IDX[op.primitive] for op in ops
        )
        self.objs = tuple(op.obj for op in ops)
        self.targets = tuple(Simulator._op_target(op) for op in ops)
        # per-step sync slot: 0 = none, j >= 1 indexes slot_specs[j - 1]
        slot_of: Dict[tuple, int] = {}
        specs: List[tuple] = []
        slots = []
        for op in ops:
            resolve = _SYNC_KIND.get(type(op))
            if resolve is not None:
                key = (resolve, op.name)
                j = slot_of.get(key)
                if j is None:
                    j = slot_of[key] = len(specs) + 1
                    specs.append(key)
                slots.append(j)
            else:
                slots.append(0)
        self.sync_slots = tuple(slots)
        self.slot_specs = tuple(specs)
        #: steps whose cost needs the child policy (thr_create, §3.2)
        self.create_idx = tuple(
            i for i, op in enumerate(ops) if type(op) is op_mod.ThrCreate
        )
        self.n = len(seq)


@dataclass
class ReplayPlan:
    """A compiled trace: per-thread step lists plus thread attributes.

    Produced by :func:`repro.core.predictor.compile_trace`; consumed by
    :meth:`Simulator.run_replay`.  Construction lowers every thread's
    steps into a :class:`CompiledThread` (``compiled``), the form a
    replay runs, and raises :class:`ProgramError` for an op outside the
    simulator's vocabulary.  Do not mutate ``steps`` in place afterwards
    — build a new plan instead (:meth:`with_steps`, as the
    fault-injection and what-if transforms do).
    """

    steps: Dict[int, List[Step]]
    meta: Dict[int, ReplayThreadMeta]
    program_name: str = "a.out"

    def __post_init__(self) -> None:
        self._total_steps = sum(len(steps) for steps in self.steps.values())
        self.compiled: Dict[int, CompiledThread] = {
            tid: CompiledThread(steps) for tid, steps in self.steps.items()
        }

    def total_steps(self) -> int:
        """Recorded library calls the plan replays (one placed event each)."""
        return self._total_steps

    def with_steps(self, steps: Dict[int, List[Step]]) -> "ReplayPlan":
        """A new plan of *steps* with this plan's thread attributes."""
        return ReplayPlan(steps=steps, meta=dict(self.meta), program_name=self.program_name)


# ---------------------------------------------------------------------------


class _ThreadRt:
    """Transient per-thread simulation state (slots: hot-loop attribute
    access and no per-thread ``__dict__``).

    ``cur_*`` cache the in-flight step's constants, filled by either
    step source, so completion never re-derives them from the op.
    ``cur_sync`` is the in-flight ``_SYNC_KIND`` op's object, set before
    the handler runs.  The ``c_*`` fields alias a replayed thread's
    :class:`CompiledThread` arrays plus the per-run cost array.
    """

    __slots__ = (
        "behavior", "ctx", "current_op", "op_cost_us", "op_call_time_us",
        "pending_ret", "pending_result", "extra_us", "started", "cur_sync",
        "cur_code", "cur_obj", "cur_target",
        # the compiled step source
        "pos", "c_codes", "c_works", "c_costs", "c_objs", "c_targets",
        "c_ops", "c_syncslots", "c_slotobjs",
    )

    def __init__(
        self,
        behavior: Optional[ThreadBehavior],
        ctx: Optional[ThreadCtx] = None,
    ):
        self.behavior = behavior
        self.ctx = ctx
        self.current_op: Optional[op_mod.Op] = None
        self.op_cost_us = 0
        self.op_call_time_us = 0
        #: a blocking op returned control; its RET record / placed event
        #: are due when the thread next reaches a processor
        self.pending_ret = False
        self.pending_result: object = NO_RESULT
        #: extra CPU to fold into the next burst (return-probe overhead)
        self.extra_us = 0
        self.started = False
        self.pos = 0
        self.c_codes: Optional[tuple] = None
        self.c_works: Optional[tuple] = None
        self.c_costs: Optional[list] = None
        self.c_objs: Optional[tuple] = None
        self.c_targets: Optional[tuple] = None
        self.c_ops: Optional[tuple] = None
        self.c_syncslots: Optional[tuple] = None
        self.c_slotobjs: Optional[tuple] = None
        self.cur_code = 0
        self.cur_obj = None
        self.cur_target: Optional[int] = None
        self.cur_sync: object = None


class Simulator:
    """One simulated execution (live program or trace replay)."""

    def __init__(
        self,
        config: SimConfig,
        *,
        probe: Optional[ProbeAPI] = None,
        perturb: Optional[Callable[[int], int]] = None,
        max_events: int = 50_000_000,
        watchdog: Optional[Watchdog] = None,
        strict: bool = True,
    ):
        self.config = config
        self.probe = probe
        self.perturb = perturb
        self.strict = strict
        self.engine = Engine(max_events=max_events, watchdog=watchdog)
        self.builder = ResultBuilder(config)
        self.scheduler = Scheduler(self.engine, config, self.builder, self)
        self.sync = SyncObjectTable()

        self.threads: Dict[int, SimThread] = {}
        self._rt: Dict[int, _ThreadRt] = {}
        self._next_tid = itertools.count(4)  # Solaris hands user threads 4, 5, ...
        self._block_reason: Dict[int, str] = {}
        self._current_cpu: Optional[int] = None

        # join bookkeeping
        self._zombie_order: List[int] = []
        self._joiners: Dict[int, List[SimThread]] = {}
        self._wildcard_joiners: List[SimThread] = []

        # live-program context
        self._program: Optional[Program] = None
        self._shared: Optional[dict] = None
        # replay context
        self._replay_plan: Optional[ReplayPlan] = None

        # the interpreter: a pre-bound copy of _HANDLERS indexed by
        # opcode, and the builder's placed-event rows
        self._fh = [h.__get__(self) for h in self._HANDLERS.values()]
        self._ev_list: Optional[list] = self.builder.event_rows
        # compiled-step state (armed by _setup_fast)
        self._cost_rows: Optional[tuple] = None
        self._begin_burst: Optional[Callable[[SimThread, int], None]] = None
        self._sched_pending: Optional[dict] = None
        self._sched_bursts: Optional[dict] = None
        self._heap: Optional[list] = None
        self._evseq: Optional[Iterator[int]] = None

        self._finished = False

    # ==================================================================
    # public entry points
    # ==================================================================

    def run_program(self, program: Program) -> SimulationResult:
        """Execute a live virtual program to completion."""
        self._program = program
        self._shared = program.make_shared()
        for name, count in program.semaphores.items():
            self.sync.sema(name, count)
        ctx = ThreadCtx(
            tid=int(MAIN_THREAD_ID),
            shared=self._shared,
            rng=program.make_rng(int(MAIN_THREAD_ID)),
        )
        behavior = LiveBehavior(program.main(ctx), perturb=self.perturb)
        return self._run(behavior, ctx=ctx, program_name=program.name)

    def run_replay(self, plan: ReplayPlan) -> SimulationResult:
        """Replay a compiled trace (the paper's prediction run).

        The plan's :class:`CompiledThread` arrays run through the opcode
        interpreter.  A replay carries no probe: the Recorder records
        live programs (:meth:`run_program`).
        """
        if self.probe is not None:
            raise SimulationError("a replay cannot carry a probe")
        self._replay_plan = plan
        if int(MAIN_THREAD_ID) not in plan.steps:
            raise SimulationError("replay plan lacks the main thread (tid 1)")
        self._setup_fast()
        return self._run(None, ctx=None, program_name=plan.program_name)

    # ==================================================================
    # run loop
    # ==================================================================

    def _run(
        self,
        main_behavior: Optional[ThreadBehavior],
        *,
        ctx: Optional[ThreadCtx],
        program_name: str,
    ) -> SimulationResult:
        if self._finished:
            raise SimulationError("a Simulator instance runs exactly once")
        main = SimThread(tid=MAIN_THREAD_ID, func_name="main")
        self.threads[int(MAIN_THREAD_ID)] = main
        self._rt[int(MAIN_THREAD_ID)] = _ThreadRt(behavior=main_behavior, ctx=ctx)
        if self.probe is not None:
            self._emit_marker(Primitive.START_COLLECT, main)
        self.scheduler.register_thread(main, waker_cpu=None)

        incompleteness: Optional[Incompleteness] = None
        try:
            self.engine.run()
        except (
            BudgetExceededError,
            LivelockError,
            ReplayDivergenceError,
            DeadlockError,
        ) as exc:
            if self.strict:
                self._finished = True
                raise
            incompleteness = self._downgrade(exc)
        self._finished = True

        makespan = 0
        blocked = []
        for thread in self.threads.values():
            if thread.alive:
                blocked.append(
                    f"T{int(thread.tid)} ({thread.state.value}: "
                    f"{self._block_reason.get(int(thread.tid), '?')})"
                )
            if thread.end_time_us is not None:
                makespan = max(makespan, thread.end_time_us)
        if blocked and incompleteness is None:
            blocked_tids = tuple(
                int(t.tid) for t in self.threads.values() if t.alive
            )
            message = "simulation ended with live threads: " + ", ".join(blocked)
            if self.strict:
                raise DeadlockError(message, blocked=blocked_tids)
            incompleteness = Incompleteness(
                status=RunStatus.DEADLOCK,
                reason=message,
                blocked=blocked_tids,
                cycle=self._find_blocking_cycle(),
            )
        if incompleteness is not None:
            # partial result: the timeline covers everything simulated so far
            makespan = max(makespan, self.engine.now_us)
        elif self.probe is not None:
            self.probe.record(
                EventRecord(
                    time_us=makespan,
                    tid=MAIN_THREAD_ID,
                    phase=Phase.CALL,
                    primitive=Primitive.END_COLLECT,
                )
            )
        result = self.builder.build(
            makespan_us=makespan,
            threads=[
                (t.tid, t.func_name, t.created_at_us, t.start_time_us, t.end_time_us)
                for t in self.threads.values()
            ],
            engine_events=self.engine.events_executed,
            incompleteness=incompleteness,
        )
        # the result owns the raw rows now: unbind the hot paths' aliases,
        # so this Simulator's reference cycles, which only the cyclic
        # collector frees, do not keep them alive after the result dies
        self._ev_list = self.scheduler._flips = None
        return result

    # ==================================================================
    # graceful degradation (strict=False)
    # ==================================================================

    def _downgrade(self, exc: SimulationError) -> Incompleteness:
        """Turn a mid-run failure into a partial-result diagnosis."""
        blocked = tuple(int(t.tid) for t in self.threads.values() if t.alive)
        if isinstance(exc, BudgetExceededError):
            return Incompleteness(
                status=RunStatus.BUDGET, reason=str(exc), blocked=blocked
            )
        if isinstance(exc, ReplayDivergenceError):
            return Incompleteness(
                status=RunStatus.DIVERGED,
                reason=str(exc),
                blocked=blocked,
                divergence_tid=exc.tid,
                divergence_us=self.engine.now_us,
            )
        if isinstance(exc, DeadlockError):
            return Incompleteness(
                status=RunStatus.DEADLOCK,
                reason=str(exc),
                blocked=exc.blocked or blocked,
                cycle=self._find_blocking_cycle(),
            )
        return Incompleteness(
            status=RunStatus.LIVELOCK, reason=str(exc), blocked=blocked
        )

    def _find_blocking_cycle(self) -> tuple:
        """A cycle in the wait-for graph of blocked threads, if one exists.

        Edges: a mutex waiter waits for the owner; an rwlock waiter waits
        for the writer (or the first reader); a joiner waits for the
        joined thread.  Condition/semaphore waits have no owner, so they
        never contribute edges (those deadlocks have no cycle witness —
        the blocked set is the diagnosis).
        """
        waits_for: Dict[int, int] = {}
        for mutex in self.sync.all_mutexes().values():
            if mutex.owner is None:
                continue
            for waiter in mutex.waiters.threads():
                waits_for[int(waiter.tid)] = int(mutex.owner.tid)
        for rwlock in self.sync._rwlocks.values():
            holder = rwlock.writer or (rwlock.readers[0] if rwlock.readers else None)
            if holder is None:
                continue
            for _, waiter in rwlock._queue:
                waits_for[int(waiter.tid)] = int(holder.tid)
        for target_tid, joiners in self._joiners.items():
            for joiner in joiners:
                waits_for[int(joiner.tid)] = target_tid

        for start in waits_for:
            seen: Dict[int, int] = {}
            node = start
            pos = 0
            while node in waits_for and node not in seen:
                seen[node] = pos
                pos += 1
                node = waits_for[node]
            if node in seen:
                cycle = [t for t, p in sorted(seen.items(), key=lambda kv: kv[1])]
                return tuple(cycle[seen[node]:])
        return ()

    # ==================================================================
    # SchedulerListener: the live step source
    # ==================================================================
    #
    # Every burst ends in the closure ``_bind_burst`` builds: the
    # scheduler's end-of-burst bookkeeping and an opcode dispatch through
    # ``self._fh``, a pre-bound copy of ``_HANDLERS``.  Live programs and
    # replays differ only in where a thread's next step comes from.  Here
    # ``need_step`` pulls it from the thread's LiveBehavior and lowers it
    # into the runtime fields a compiled step fills; the burst's
    # pre-dispatch hook (``_live_call``) resolves the op's sync object
    # and writes the probe's CALL record, and ``_complete_now`` its RET
    # record.  A replay shadows ``need_step`` and ``_complete_now`` with
    # versions that read the plan's compiled arrays (below).

    def need_step(self, thread: SimThread) -> None:
        """The thread reached a processor with nothing in flight: return
        its blocked call if one is due, else fetch its next step."""
        rt = self._rt[thread.tid]
        if not rt.started:
            rt.started = True
            self._bind_burst(thread, rt, self._live_call)
            if thread.tid != MAIN_THREAD_ID:
                # the interposed start routine announces the thread (§3.1)
                self._emit_marker(Primitive.THREAD_START, thread)
        op = rt.current_op
        if op is not None:
            if not rt.pending_ret:
                # same-microsecond preemption cancelled the completion
                # event before the op applied — apply it now (rare)
                thread.burst_action()
                return
            # deferred return of a blocking call: it returns now
            rt.pending_ret = False
            result = rt.pending_result
            code = rt.cur_code
            status = (
                Status.TIMEOUT
                if code == _CODE_COND_TIMEDWAIT and result is False
                else Status.OK
            )
            # a wildcard join returns whom it joined
            target = result if code == _CODE_THR_JOIN and isinstance(result, int) else None
            self._complete_now(thread, rt, op, result, status, target=target)
            return

        result = rt.pending_result
        rt.pending_result = NO_RESULT
        step = rt.behavior.next_step(None if result is NO_RESULT else result)
        if step is None:
            step = Step(0, op_mod.ThrExit())
        op = step.op
        code = _OPCODE_OF.get(type(op))
        if code is None:
            raise ProgramError(f"unhandled op {type(op).__name__}")
        rt.current_op = op
        rt.cur_code = code
        rt.cur_obj = op.obj
        rt.cur_target = self._op_target(op)
        cost = rt.op_cost_us = self._op_cost(thread, op)
        burst = step.work_us + cost + rt.extra_us
        rt.extra_us = 0
        if self.probe is not None and op.primitive is not None:
            burst += self.probe.overhead_us  # the call-side probe
        self.scheduler.begin_burst(thread, burst)

    def _live_call(self, thread: SimThread, rt: _ThreadRt, op: op_mod.Op) -> None:
        """A live burst's pre-dispatch hook: the call is made now."""
        self._emit_record(thread, op, Phase.CALL, rt.op_call_time_us, target=rt.cur_target)
        resolve = _SYNC_KIND.get(type(op))
        if resolve is not None:
            rt.cur_sync = resolve(self.sync, op.name)

    def _complete_now(
        self,
        thread: SimThread,
        rt: _ThreadRt,
        op: op_mod.Op,
        result: object,
        status: Status = Status.OK,
        *,
        target: Optional[int] = None,
    ) -> None:
        """The live call returns now: its RET record and return-side probe
        charge, its placed event, then the thread's next step."""
        prim = op.primitive
        if prim is not None:
            if target is None:
                target = rt.cur_target
            now = self.engine.now_us
            if self.probe is not None:
                self._emit_record(thread, op, Phase.RET, now, status=status, target=target)
                rt.extra_us += self.probe.overhead_us  # the return-side probe
            self._ev_list.append(
                (thread.tid, prim, rt.op_call_time_us, now, thread.last_cpu,
                 rt.cur_obj, target, status, op.source)
            )
        rt.current_op = None
        rt.pending_result = result
        self.need_step(thread)

    def _bind_burst(
        self,
        thread: SimThread,
        rt: _ThreadRt,
        pre: Optional[Callable[[SimThread, _ThreadRt, op_mod.Op], None]] = None,
    ) -> None:
        """Build *thread*'s burst completion, which the scheduler arms as
        ``thread.burst_action``: the end-of-burst bookkeeping, *pre* (if
        any) and the opcode dispatch in a single callback frame."""
        def burst_action(
            t=thread,
            t_id=thread.tid,
            rt=rt,
            events=self.scheduler._burst_events,
            running=ThreadState.RUNNING,
            sched=self.scheduler,
            engine=self.engine,
            fh=self._fh,
            sim=self,
            pre=pre,
        ):
            events.pop(t_id, None)
            t.burst_remaining_us = 0
            if t.state is not running:
                raise SimulationError(
                    f"burst completion for non-running T{t_id}"
                )
            op = rt.current_op
            if op is None:
                raise SimulationError(
                    f"burst completed with no op for T{t_id}"
                )
            sched._atomic_depth += 1  # inlined begin_atomic()
            sim._current_cpu = t.last_cpu
            try:
                rt.op_call_time_us = engine.now_us - rt.op_cost_us
                if pre is not None:
                    pre(t, rt, op)
                fh[rt.cur_code](t, rt, op)
            finally:
                sim._current_cpu = None
                # inlined end_atomic(): depth is >= 1 by construction
                depth = sched._atomic_depth - 1
                sched._atomic_depth = depth
                if depth == 0 and sched._dispatch_wanted:
                    sched._dispatch_wanted = False
                    sched._kernel_dispatch()
        thread.burst_action = burst_action

    # ==================================================================
    # the compiled step source (replays)
    # ==================================================================
    #
    # A replay shadows ``need_step`` and ``_complete_now`` with loops over
    # the plan's CompiledThread arrays: per-step costs come from a
    # precomputed row, ``rt.cur_sync`` from the slots resolved once per
    # run, and the probe plumbing is gone (a replay carries no probe).

    def _setup_fast(self) -> None:
        op_cost = self.config.costs.op_cost
        # cost rows indexed by CompiledThread.prims: row 0 = unbound
        # thread, row 1 = bound; slot 0 = "op has no primitive"
        self._cost_rows = tuple(
            (0,) + tuple(op_cost(p, bound=b) for p in Primitive)
            for b in (False, True)
        )
        # pre-bound hot collaborators (one attribute hop per step instead
        # of two or three)
        self._begin_burst = self.scheduler.begin_burst
        self._sched_pending = self.scheduler._switch_cost_pending
        self._sched_bursts = self.scheduler._burst_events
        self._heap = self.engine.queue._heap
        self._evseq = self.engine.queue._counter
        # shadow the listener entry point and the handlers' completion
        # routine (instance attribute wins over the class methods, for the
        # scheduler and the handlers)
        self.need_step = self._need_step_fast  # type: ignore[method-assign]
        self._complete_now = self._complete_now_fast  # type: ignore[method-assign]

    def _attach_fast(self, thread: SimThread, rt: _ThreadRt) -> None:
        """Alias the compiled arrays onto the runtime at first dispatch.

        Deferred to here (not _spawn) because ``register_thread`` applies
        the run's binding policy *after* spawn, and boundness picks the
        cost row.
        """
        assert self._replay_plan is not None
        ct = self._replay_plan.compiled[int(thread.tid)]
        rt.c_codes = ct.codes
        rt.c_works = ct.works
        rt.c_objs = ct.objs
        rt.c_targets = ct.targets
        rt.c_ops = ct.ops
        assert self._cost_rows is not None
        row = self._cost_rows[1 if thread.bound else 0]
        costs = [row[i] for i in ct.prims]
        for i in ct.create_idx:
            # thr_create cost follows the *child's* boundness (§3.2)
            costs[i] = self._op_cost(thread, ct.ops[i])
        rt.c_costs = costs
        # resolve parameter-less sync objects once per run (mutex/cond/
        # rwlock creation is invisible in the result, so doing it here
        # rather than at first execution cannot perturb parity) — one
        # resolution per distinct object, indexed per step via sync_slots
        sync = self.sync
        rt.c_slotobjs = (None,) + tuple(
            resolve(sync, name) for resolve, name in ct.slot_specs
        )
        rt.c_syncslots = ct.sync_slots
        rt.pos = 0
        self._bind_burst(thread, rt)

    def _need_step_fast(self, thread: SimThread) -> None:
        """Replay ``need_step``: fetch/decode from the compiled arrays."""
        rt = self._rt[int(thread.tid)]
        op = rt.current_op
        if op is not None:
            if not rt.pending_ret:
                # same-microsecond preemption cancelled the completion
                # event before the op applied — apply it now (rare)
                thread.burst_action()
                return
            # deferred return of a blocking call: place its event now
            result = rt.pending_result
            code = rt.cur_code
            status = (
                Status.TIMEOUT
                if code == _CODE_COND_TIMEDWAIT and result is False
                else Status.OK
            )
            if code == _CODE_THR_JOIN and isinstance(result, int):
                target = result  # wildcard join: who we actually joined
            else:
                target = rt.cur_target
            prim = op.primitive
            if prim is not None:
                self._ev_list.append(
                    (thread.tid, prim, rt.op_call_time_us,
                     self.engine.now_us, thread.last_cpu, rt.cur_obj,
                     target, status, op.source)
                )
            rt.pending_ret = False
            rt.current_op = None
        rt.pending_result = NO_RESULT

        codes = rt.c_codes
        if codes is None:
            self._attach_fast(thread, rt)
            codes = rt.c_codes
        i = rt.pos
        rt.pos = i + 1
        rt.current_op = rt.c_ops[i]
        rt.cur_code = codes[i]
        rt.cur_obj = rt.c_objs[i]
        rt.cur_target = rt.c_targets[i]
        rt.cur_sync = rt.c_slotobjs[rt.c_syncslots[i]]
        cost = rt.c_costs[i]
        rt.op_cost_us = cost
        self._begin_burst(thread, rt.c_works[i] + cost)

    def _complete_now_fast(
        self,
        thread: SimThread,
        rt: _ThreadRt,
        op: op_mod.Op,
        result: object,
        status: Status = Status.OK,
        *,
        target: Optional[int] = None,
    ) -> None:
        """Replay ``_complete_now``: place the event from the cached step
        constants and fetch the next instruction.

        The fetch is inlined rather than delegated to
        :meth:`_need_step_fast`: the op just completed synchronously, so
        the deferred-return prologue there cannot apply (``current_op`` is
        consumed here, ``pending_ret`` was never set).
        """
        prim = op.primitive
        if prim is not None:
            if target is None:
                target = rt.cur_target
            self._ev_list.append(
                (thread.tid, prim, rt.op_call_time_us,
                 self.engine.now_us, thread.last_cpu, rt.cur_obj,
                 target, status, op.source)
            )
        rt.pending_result = NO_RESULT
        i = rt.pos
        rt.pos = i + 1
        rt.current_op = rt.c_ops[i]
        rt.cur_code = rt.c_codes[i]
        rt.cur_obj = rt.c_objs[i]
        rt.cur_target = rt.c_targets[i]
        rt.cur_sync = rt.c_slotobjs[rt.c_syncslots[i]]
        cost = rt.c_costs[i]
        rt.op_cost_us = cost
        # inlined Scheduler.begin_burst (kept in lockstep with it; the
        # state check is omitted because the thread just completed a burst
        # inside an atomic section, so it is RUNNING by construction)
        duration = rt.c_works[i] + cost
        pending = self._sched_pending
        if pending:
            duration += pending.pop(thread.tid, 0)
        thread.burst_remaining_us = duration
        engine = self.engine
        end = engine.now_us + duration
        ev = thread.burst_event
        if ev is None or ev.cancelled:
            ev = engine.queue.push(end, thread.burst_action, "burst")
            thread.burst_event = ev
        else:
            ev.time_us = end
            ev.seq = seq = next(self._evseq)
            heappush(self._heap, (end, seq, ev))
        self._sched_bursts[thread.tid] = (ev, end)

    # ==================================================================
    # KernelAPI (used by the sync objects)
    # ==================================================================

    @property
    def now_us(self) -> int:
        return self.engine.now_us

    def block(self, thread: SimThread, reason: str) -> None:
        self._block_reason[int(thread.tid)] = reason
        self.scheduler.block_current(thread)

    def wake(self, thread: SimThread, result: object = NO_RESULT) -> None:
        if result is not NO_RESULT:
            self._rt[int(thread.tid)].pending_result = result
        self.scheduler.make_runnable(
            thread, waker_cpu=self._current_cpu, boost=True
        )

    def post_result(self, thread: SimThread, result: object) -> None:
        self._rt[int(thread.tid)].pending_result = result

    def arm_timer(self, delay_us: int, action: Callable[[], None], label: str):
        return self.engine.schedule_in(delay_us, action, label)

    def cancel_timer(self, handle) -> None:
        handle.cancel()

    # ==================================================================
    # operation semantics
    # ==================================================================

    # -- helpers ---------------------------------------------------------

    @staticmethod
    def _op_target(op: op_mod.Op) -> Optional[int]:
        if isinstance(op, op_mod.ThrJoin) and op.tid is not None:
            return op.tid
        if isinstance(op, op_mod.ThrCreate) and op.replay_tid is not None:
            return op.replay_tid
        return None

    def _op_cost(self, thread: SimThread, op: op_mod.Op) -> int:
        costs = self.config.costs
        if isinstance(op, op_mod.Noop):
            prim = op.noop_primitive
            return costs.op_cost(prim, bound=thread.bound) if prim else 0
        if op.primitive is None:
            return 0
        if op.primitive is Primitive.THR_CREATE:
            # the creation multiplier follows the *child's* boundness (§3.2)
            assert isinstance(op, op_mod.ThrCreate)
            child_bound = op.bound
            tid = op.replay_tid
            if tid is not None:
                policy = self.config.policy_for(tid)
                if policy.effective_bound() is not None:
                    child_bound = bool(policy.effective_bound())
            return costs.op_cost(Primitive.THR_CREATE, bound=child_bound)
        return costs.op_cost(op.primitive, bound=thread.bound)

    # -- per-op handlers ---------------------------------------------------

    def _h_mutex_lock(self, thread, rt, op: op_mod.MutexLock) -> None:
        if rt.cur_sync.lock(thread, self):
            self._complete_now(thread, rt, op, None)
        else:
            rt.pending_ret = True

    def _h_mutex_trylock(self, thread, rt, op: op_mod.MutexTrylock) -> None:
        ok = rt.cur_sync.trylock(thread)
        self._complete_now(thread, rt, op, ok, Status.OK if ok else Status.BUSY)

    def _h_mutex_unlock(self, thread, rt, op: op_mod.MutexUnlock) -> None:
        rt.cur_sync.unlock(thread, self)
        self._complete_now(thread, rt, op, None)

    def _h_sema_init(self, thread, rt, op: op_mod.SemaInit) -> None:
        self.sync.sema(op.name, op.count)
        self._complete_now(thread, rt, op, None)

    def _h_sema_wait(self, thread, rt, op: op_mod.SemaWait) -> None:
        if self.sync.sema(op.name).wait(thread, self):
            self._complete_now(thread, rt, op, None)
        else:
            rt.pending_ret = True

    def _h_sema_trywait(self, thread, rt, op: op_mod.SemaTryWait) -> None:
        ok = self.sync.sema(op.name).trywait(thread)
        self._complete_now(thread, rt, op, ok, Status.OK if ok else Status.BUSY)

    def _h_sema_post(self, thread, rt, op: op_mod.SemaPost) -> None:
        self.sync.sema(op.name).post(self)
        self._complete_now(thread, rt, op, None)

    def _h_cond_wait(self, thread, rt, op: op_mod.CondWait) -> None:
        mutex = self.sync.mutex(op.mutex) if op.mutex else None
        self.sync.cond(op.name).wait(thread, mutex, self)
        rt.pending_ret = True

    def _h_cond_timedwait(self, thread, rt, op: op_mod.CondTimedWait) -> None:
        if op.forced_timeout:
            # §3.2: a wait that timed out in the log replays as a delay
            rt.pending_result = False
            rt.pending_ret = True
            self.scheduler.sleep_current(thread, op.timeout_us)
            return
        mutex = self.sync.mutex(op.mutex) if op.mutex else None
        cond = self.sync.cond(op.name)
        cond.wait(
            thread,
            mutex,
            self,
            timeout_us=op.timeout_us,
            on_timeout=lambda t, c=cond: self._cond_timeout(c, t),
        )
        rt.pending_ret = True

    def _cond_timeout(self, cond, thread: SimThread) -> None:
        """The timed wait expired before a signal arrived."""
        mutex = cond.cancel_wait(thread, self)
        self.post_result(thread, False)
        if mutex is None or mutex.enqueue_blocked(thread):
            self.scheduler.make_runnable(thread, boost=True)
        # else: queued on the mutex; the hand-off will wake it

    def _h_cond_signal(self, thread, rt, op: op_mod.CondSignal) -> None:
        rt.cur_sync.signal(self)
        self._complete_now(thread, rt, op, None)

    def _h_cond_broadcast(self, thread, rt, op: op_mod.CondBroadcast) -> None:
        held = None
        if op.expected_waiters is not None:
            # A blocking §6 barrier broadcast happens inside the barrier's
            # critical section: hand the most recently acquired mutex to
            # the condition variable so the waiters it is waiting for can
            # get in (it is re-acquired before the broadcaster resumes).
            held = self._most_recent_mutex_of(thread)
        proceeded = rt.cur_sync.broadcast(
            thread, self, expected_waiters=op.expected_waiters, held_mutex=held
        )
        if proceeded:
            self._complete_now(thread, rt, op, None)
        else:
            rt.pending_ret = True

    def _most_recent_mutex_of(self, thread: SimThread):
        held = [m for m in self.sync.all_mutexes().values() if m.owner is thread]
        if not held:
            return None
        return max(held, key=lambda m: m.acquired_seq)

    def _h_rw_rdlock(self, thread, rt, op: op_mod.RwRdLock) -> None:
        if rt.cur_sync.rdlock(thread, self):
            self._complete_now(thread, rt, op, None)
        else:
            rt.pending_ret = True

    def _h_rw_wrlock(self, thread, rt, op: op_mod.RwWrLock) -> None:
        if rt.cur_sync.wrlock(thread, self):
            self._complete_now(thread, rt, op, None)
        else:
            rt.pending_ret = True

    def _h_rw_tryrdlock(self, thread, rt, op: op_mod.RwTryRdLock) -> None:
        ok = rt.cur_sync.tryrdlock(thread)
        self._complete_now(thread, rt, op, ok, Status.OK if ok else Status.BUSY)

    def _h_rw_trywrlock(self, thread, rt, op: op_mod.RwTryWrLock) -> None:
        ok = rt.cur_sync.trywrlock(thread)
        self._complete_now(thread, rt, op, ok, Status.OK if ok else Status.BUSY)

    def _h_rw_unlock(self, thread, rt, op: op_mod.RwUnlock) -> None:
        rt.cur_sync.unlock(thread, self)
        self._complete_now(thread, rt, op, None)

    def _h_resched(self, thread, rt, op: op_mod.Resched) -> None:
        # internal scheduling point: no record, no cost, stay on the CPU
        rt.current_op = None
        rt.pending_result = None
        self.need_step(thread)

    def _h_delay(self, thread, rt, op: op_mod.Delay) -> None:
        rt.current_op = None  # not a library call: nothing to record
        self.scheduler.sleep_current(thread, op.duration_us)

    def _h_io_wait(self, thread, rt, op: op_mod.IoWait) -> None:
        # the §6 extension: a recorded blocking I/O — the thread sleeps
        # without a processor and the return is stamped when it resumes
        rt.pending_ret = True
        self.scheduler.sleep_current(thread, op.duration_us)

    def _h_noop(self, thread, rt, op: op_mod.Noop) -> None:
        status = Status.BUSY if op.busy else Status.OK
        self._complete_now(thread, rt, op, not op.busy, status)

    def _h_shared_access(self, thread, rt, op: op_mod.Op) -> None:
        # record-only instrumentation point: no blocking, no side effect
        self._complete_now(thread, rt, op, None)

    def _h_thr_create(self, thread, rt, op: op_mod.ThrCreate) -> None:
        child = self._spawn(thread, op)
        self._complete_now(thread, rt, op, int(child.tid), target=int(child.tid))

    def _h_thr_join(self, thread, rt, op: op_mod.ThrJoin) -> None:
        if op.tid is None:
            if self._zombie_order:
                tid = self._zombie_order.pop(0)
                self._reap(tid)
                self._complete_now(thread, rt, op, tid, target=tid)
            else:
                if not self._any_joinable():
                    raise DeadlockError(
                        f"T{int(thread.tid)} joins but no joinable thread exists"
                    )
                self._wildcard_joiners.append(thread)
                self.block(thread, "thr_join <any>")
                rt.pending_ret = True
            return
        target = self.threads.get(op.tid)
        if target is None:
            raise SimulationError(f"thr_join of unknown thread T{op.tid}")
        if target.state is ThreadState.DEAD:
            raise SimulationError(f"thr_join of already-joined T{op.tid}")
        if target.state is ThreadState.ZOMBIE:
            self._reap(op.tid)
            self._complete_now(thread, rt, op, op.tid)
        else:
            self._joiners.setdefault(op.tid, []).append(thread)
            self.block(thread, f"thr_join T{op.tid}")
            rt.pending_ret = True

    def _any_joinable(self) -> bool:
        return any(
            t.alive and int(t.tid) != int(MAIN_THREAD_ID) for t in self.threads.values()
        )

    def _h_thr_exit(self, thread, rt, op: op_mod.ThrExit) -> None:
        # single-record primitive: the probe's final act is to call the
        # real thr_exit, which never returns (paper fig. 3)
        if op.primitive is not None:
            self.builder.event_placed(
                tid=thread.tid,
                primitive=op.primitive,
                start_us=rt.op_call_time_us,
                end_us=self.engine.now_us,
                cpu=thread.last_cpu,
                source=op.source,
            )
        rt.current_op = None
        self.scheduler.thread_exited(thread)
        self._notify_joiners(thread)

    def _h_thr_yield(self, thread, rt, op: op_mod.ThrYield) -> None:
        rt.pending_ret = True  # the call returns when the thread runs again
        self.scheduler.yield_current(thread)

    def _h_thr_setprio(self, thread, rt, op: op_mod.ThrSetPrio) -> None:
        thread.set_priority(op.priority)
        self._complete_now(thread, rt, op, None)

    def _h_thr_setconcurrency(self, thread, rt, op: op_mod.ThrSetConcurrency) -> None:
        self.scheduler.set_concurrency(op.level)
        self._complete_now(thread, rt, op, None)

    _HANDLERS = {
        op_mod.MutexLock: _h_mutex_lock,
        op_mod.MutexTrylock: _h_mutex_trylock,
        op_mod.MutexUnlock: _h_mutex_unlock,
        op_mod.SemaInit: _h_sema_init,
        op_mod.SemaWait: _h_sema_wait,
        op_mod.SemaTryWait: _h_sema_trywait,
        op_mod.SemaPost: _h_sema_post,
        op_mod.CondWait: _h_cond_wait,
        op_mod.CondTimedWait: _h_cond_timedwait,
        op_mod.CondSignal: _h_cond_signal,
        op_mod.CondBroadcast: _h_cond_broadcast,
        op_mod.RwRdLock: _h_rw_rdlock,
        op_mod.RwWrLock: _h_rw_wrlock,
        op_mod.RwTryRdLock: _h_rw_tryrdlock,
        op_mod.RwTryWrLock: _h_rw_trywrlock,
        op_mod.RwUnlock: _h_rw_unlock,
        op_mod.Resched: _h_resched,
        op_mod.Delay: _h_delay,
        op_mod.IoWait: _h_io_wait,
        op_mod.Noop: _h_noop,
        op_mod.SharedRead: _h_shared_access,
        op_mod.SharedWrite: _h_shared_access,
        op_mod.ThrCreate: _h_thr_create,
        op_mod.ThrJoin: _h_thr_join,
        op_mod.ThrExit: _h_thr_exit,
        op_mod.ThrYield: _h_thr_yield,
        op_mod.ThrSetPrio: _h_thr_setprio,
        op_mod.ThrSetConcurrency: _h_thr_setconcurrency,
    }

    # ==================================================================
    # thread creation / exit plumbing
    # ==================================================================

    def _spawn(self, creator: SimThread, op: op_mod.ThrCreate) -> SimThread:
        if self._replay_plan is not None:
            if op.replay_tid is None:
                raise SimulationError("replay thr_create without a thread id")
            tid = op.replay_tid
            if tid not in self._replay_plan.steps:
                raise SimulationError(f"replay plan has no steps for T{tid}")
            meta = self._replay_plan.meta.get(tid, ReplayThreadMeta(tid))
            behavior: Optional[ThreadBehavior] = None
            func_name = meta.func_name
            bound = op.bound or meta.bound
            ctx = None
        else:
            if op.func is None:
                raise ProgramError("thr_create without a start routine")
            tid = next(self._next_tid)
            func_name = op.name or getattr(op.func, "__name__", "thread")
            bound = op.bound
            assert self._program is not None and self._shared is not None
            ctx = ThreadCtx(
                tid=tid,
                shared=self._shared,
                rng=self._program.make_rng(tid),
                args=tuple(op.args),
            )
            behavior = LiveBehavior(op.func(ctx), perturb=self.perturb)
        if tid in self.threads:
            raise SimulationError(f"duplicate thread id {tid}")
        child = SimThread(
            tid=ThreadId(tid),
            func_name=func_name,
            priority=op.priority if op.priority is not None else DEFAULT_USER_PRIORITY,
            bound=bound,
            bound_cpu=op.cpu,
        )
        self.threads[tid] = child
        self._rt[tid] = _ThreadRt(behavior=behavior, ctx=ctx)
        if self.probe is not None:
            self.probe.note_thread_function(tid, func_name)
        self.scheduler.register_thread(child, waker_cpu=self._current_cpu)
        return child

    def _notify_joiners(self, exited: SimThread) -> None:
        tid = int(exited.tid)
        joiners = self._joiners.pop(tid, [])
        if joiners:
            joiner = joiners.pop(0)
            if joiners:
                self._joiners[tid] = joiners
            self._reap(tid)
            self.wake(joiner, result=tid)
            return
        if self._wildcard_joiners:
            joiner = self._wildcard_joiners.pop(0)
            self._reap(tid)
            self.wake(joiner, result=tid)
            return
        self._zombie_order.append(tid)

    def _reap(self, tid: int) -> None:
        thread = self.threads[tid]
        if thread.state is not ThreadState.ZOMBIE:
            raise SimulationError(f"reaping non-zombie T{tid}")
        thread.state = ThreadState.DEAD
        if tid in self._zombie_order:
            self._zombie_order.remove(tid)

    # ==================================================================
    # recording (the probe)
    # ==================================================================

    def _emit_marker(self, primitive: Primitive, thread: SimThread) -> None:
        if self.probe is None:
            return
        self.probe.record(
            EventRecord(
                time_us=self.engine.now_us,
                tid=thread.tid,
                phase=Phase.CALL,
                primitive=primitive,
            )
        )
        self._rt[int(thread.tid)].extra_us += self.probe.overhead_us

    def _emit_record(
        self,
        thread: SimThread,
        op: op_mod.Op,
        phase: Phase,
        time_us: int,
        *,
        status: Optional[Status] = None,
        target: Optional[int] = None,
    ) -> None:
        if self.probe is None or op.primitive is None:
            return
        obj2 = None
        arg = None
        if isinstance(op, (op_mod.CondWait, op_mod.CondTimedWait)) and op.mutex:
            obj2 = op_mod.mutex_id(op.mutex)
        if isinstance(op, op_mod.CondTimedWait):
            arg = op.timeout_us
        elif isinstance(op, op_mod.IoWait):
            arg = op.duration_us
        elif isinstance(op, op_mod.SemaInit):
            arg = op.count
        elif isinstance(op, op_mod.ThrSetPrio):
            arg = op.priority
        elif isinstance(op, op_mod.ThrSetConcurrency):
            arg = op.level
        elif isinstance(op, op_mod.ThrCreate):
            arg = 1 if op.bound else 0
        self.probe.record(
            EventRecord(
                time_us=time_us,
                tid=thread.tid,
                phase=phase,
                primitive=op.primitive,
                obj=op.obj,
                obj2=obj2,
                target=ThreadId(target) if target is not None else None,
                arg=arg,
                status=status,
                source=op.source,
            )
        )


# Tables derived from Simulator._HANDLERS (read only at call time, so they
# can follow the class).

#: Op type → opcode: the index into the per-run pre-bound copy of
#: ``_HANDLERS`` (``Simulator._fh``) that every burst dispatches through.
_OPCODE_OF: Dict[type, int] = {
    cls: code for code, cls in enumerate(Simulator._HANDLERS)
}

# opcodes the deferred-return path special-cases (timeout status, wildcard
# join target) — int compares instead of isinstance in the hot loop
_CODE_COND_TIMEDWAIT = _OPCODE_OF[op_mod.CondTimedWait]
_CODE_THR_JOIN = _OPCODE_OF[op_mod.ThrJoin]


def simulate_program(
    program: Program,
    config: SimConfig,
    *,
    probe: Optional[ProbeAPI] = None,
    perturb: Optional[Callable[[int], int]] = None,
) -> SimulationResult:
    """Convenience wrapper: one live execution of *program* under *config*."""
    return Simulator(config, probe=probe, perturb=perturb).run_program(program)
