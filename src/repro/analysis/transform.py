"""Trace transformations: test a tuning hypothesis before writing it.

The §5 workflow finds a bottleneck, *edits the program*, re-records and
re-simulates.  But many candidate edits have a predictable effect on the
trace itself — "make the insert copy twice as fast", "shrink that
critical section", "cut the I/O in half" — so they can be evaluated by
transforming the *replay plan* and re-simulating, no new code and no new
recording needed.  That turns the tuning loop's expensive first iteration
into a ranking of hypotheses.

All transformations return a new plan; the input is never mutated.
Critical-section scaling exploits a structural fact of the step model:
the work a thread does while holding a lock is exactly the ``work_us`` of
the steps *following* the acquisition, up to and including the step whose
op releases it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.simulator import ReplayPlan
from repro.program import ops as op_mod
from repro.program.behavior import Step

__all__ = [
    "scale_compute",
    "scale_io",
    "scale_critical_sections",
    "split_lock",
]


def _scale(us: int, factor: float) -> int:
    return max(0, round(us * factor))


def scale_compute(
    plan: ReplayPlan,
    factor: float,
    *,
    threads: Optional[Sequence[int]] = None,
) -> ReplayPlan:
    """Scale every CPU burst by *factor* ("what if the code were 2x
    faster?").  ``threads`` restricts the change to some thread ids."""
    if factor < 0:
        raise ValueError(f"factor must be >= 0, got {factor}")
    chosen = set(threads) if threads is not None else None
    out: Dict[int, List[Step]] = {}
    for tid, steps in plan.steps.items():
        if chosen is not None and tid not in chosen:
            out[tid] = list(steps)
            continue
        out[tid] = [Step(_scale(s.work_us, factor), s.op) for s in steps]
    return plan.with_steps(out)


def scale_io(plan: ReplayPlan, factor: float) -> ReplayPlan:
    """Scale every recorded I/O wait ("what if the disk were 2x faster?")."""
    if factor < 0:
        raise ValueError(f"factor must be >= 0, got {factor}")
    out: Dict[int, List[Step]] = {}
    for tid, steps in plan.steps.items():
        new_steps = []
        for s in steps:
            if isinstance(s.op, op_mod.IoWait):
                new_op = op_mod.IoWait(
                    _scale(s.op.duration_us, factor), source=s.op.source
                )
                new_steps.append(Step(s.work_us, new_op))
            else:
                new_steps.append(s)
        out[tid] = new_steps
    return plan.with_steps(out)


def _release_names(op) -> Optional[str]:
    if isinstance(op, (op_mod.MutexUnlock, op_mod.RwUnlock)):
        return op.name
    return None


def _acquire_names(op) -> Optional[str]:
    if isinstance(op, (op_mod.MutexLock, op_mod.RwRdLock, op_mod.RwWrLock)):
        return op.name
    return None


def scale_critical_sections(
    plan: ReplayPlan, lock_name: str, factor: float
) -> ReplayPlan:
    """Scale the work done *while holding* ``lock_name``.

    Models the §5 hypothesis "what if the insert/fetch copy under the
    buffer mutex were cheaper?" — the serialised portion shrinks, the
    rest of the program is untouched.
    """
    if factor < 0:
        raise ValueError(f"factor must be >= 0, got {factor}")
    out: Dict[int, List[Step]] = {}
    for tid, steps in plan.steps.items():
        new_steps: List[Step] = []
        holding = False
        for s in steps:
            work = s.work_us
            if holding:
                work = _scale(work, factor)
            if _acquire_names(s.op) == lock_name:
                holding = True
            if _release_names(s.op) == lock_name:
                holding = False
            new_steps.append(Step(work, s.op))
        out[tid] = new_steps
    return plan.with_steps(out)


def split_lock(plan: ReplayPlan, lock_name: str, ways: int) -> ReplayPlan:
    """Spread operations on one mutex over *ways* mutexes, round-robin
    per acquisition ("what if I sharded that lock?" — the actual §5 fix,
    previewed on the trace).

    Each thread's n-th acquisition of the lock (and everything up to the
    matching release) is redirected to shard ``n % ways``.  Contention
    drops accordingly; the work inside the sections is unchanged.
    """
    if ways < 1:
        raise ValueError(f"ways must be >= 1, got {ways}")
    out: Dict[int, List[Step]] = {}
    for tid, steps in plan.steps.items():
        new_steps: List[Step] = []
        shard = None
        count = 0
        for s in steps:
            op = s.op
            if isinstance(op, op_mod.MutexLock) and op.name == lock_name:
                shard = count % ways
                count += 1
                op = op_mod.MutexLock(f"{lock_name}#{shard}", source=op.source)
            elif isinstance(op, op_mod.MutexTrylock) and op.name == lock_name:
                shard = count % ways
                count += 1
                op = op_mod.MutexTrylock(f"{lock_name}#{shard}", source=op.source)
            elif (
                isinstance(op, op_mod.MutexUnlock)
                and op.name == lock_name
                and shard is not None
            ):
                op = op_mod.MutexUnlock(f"{lock_name}#{shard}", source=op.source)
                shard = None
            new_steps.append(Step(s.work_us, op))
        out[tid] = new_steps
    return plan.with_steps(out)
