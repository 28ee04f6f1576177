"""Seeded perturbations of traces and replay plans.

Where :mod:`repro.faultinject.corrupt` damages the log *text* (and so
exercises the parser and the salvage pipeline), these perturbations
damage the *semantics* of an already-valid trace or compiled plan, and
so exercise the simulator's watchdog and graceful-degradation paths:

* :func:`drop_wakeups` removes ``sema_post`` / ``cond_signal`` /
  ``cond_broadcast`` call+ret pairs from a trace.  The result is still a
  structurally valid log, but replaying it can leave waiters blocked
  forever — exactly the deadlock/livelock shape the watchdog must turn
  into a partial result.
* :func:`skew_clock` scales each step's CPU burst by a seeded factor,
  modelling a recorder whose timestamps drifted.
* :func:`stall_threads` inserts long no-CPU delays into thread step
  lists, modelling LWPs that the kernel parked mid-run.

Plan perturbations follow :mod:`repro.analysis.transform`'s rule: they
return a new plan and never mutate the input.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.events import EventRecord, Phase, Primitive
from repro.core.simulator import ReplayPlan
from repro.core.trace import Trace
from repro.program import ops as op_mod
from repro.program.behavior import Step

__all__ = [
    "DroppedWakeups",
    "delay_steps",
    "drop_wakeups",
    "skew_clock",
    "stall_threads",
    "perturb_profile",
]

_WAKEUP_PRIMITIVES = (
    Primitive.SEMA_POST,
    Primitive.COND_SIGNAL,
    Primitive.COND_BROADCAST,
)


@dataclass(frozen=True)
class DroppedWakeups:
    """What :func:`drop_wakeups` removed: ``(lineno-ish index, record)``
    pairs in original record order, call records only."""

    trace: Trace
    dropped: Tuple[EventRecord, ...]


def delay_steps(
    plan: ReplayPlan,
    insertions: Sequence[Tuple[int, int, int]],
) -> ReplayPlan:
    """Insert targeted ``Delay`` steps: the deterministic sibling of
    :func:`stall_threads`.

    Each ``(tid, step_index, delay_us)`` entry inserts ``Step(0,
    Delay(delay_us))`` immediately *before* that thread's
    ``step_index``-th step, postponing everything from that step on.
    This is how lint witness schedules are built: a minimal, surgical
    nudge that forces a specific adjacency (a racy access inversion, a
    deadlock cycle's hold-and-wait overlap) without touching any other
    thread.  Returns a new plan; the input is untouched.
    """
    by_tid: Dict[int, List[Tuple[int, int]]] = {}
    for tid, step_index, delay_us in insertions:
        if delay_us < 0:
            raise ValueError(f"delay_us must be >= 0, got {delay_us}")
        by_tid.setdefault(int(tid), []).append((int(step_index), int(delay_us)))

    out: Dict[int, List[Step]] = {}
    for tid in sorted(plan.steps):
        steps = list(plan.steps[tid])
        # descending order keeps earlier indices valid across insertions
        for step_index, delay_us in sorted(by_tid.get(tid, ()), reverse=True):
            at = min(max(0, step_index), len(steps))
            steps.insert(at, Step(0, op_mod.Delay(delay_us)))
        out[tid] = steps
    return plan.with_steps(out)


def drop_wakeups(
    trace: Trace,
    *,
    seed: int = 0,
    fraction: float = 0.5,
    primitives: Sequence[Primitive] = _WAKEUP_PRIMITIVES,
) -> DroppedWakeups:
    """Remove a seeded sample of wake-up call+ret pairs from *trace*.

    Each victim is a CALL record of one of *primitives*; its matching
    RET (the next record of the same thread, primitive and object) is
    removed with it, so the result still satisfies the structural
    invariants and loads as a valid :class:`Trace`.  Replaying it,
    however, may strand the threads that waited on those signals —
    feeding the simulator's deadlock/watchdog machinery realistic input.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    rng = random.Random(seed)
    records = list(trace.records)
    wanted = set(primitives)

    candidates = [
        i
        for i, rec in enumerate(records)
        if rec.is_call and rec.primitive in wanted
    ]
    count = min(len(candidates), max(1, int(len(candidates) * fraction))) if candidates else 0
    victims = sorted(rng.sample(candidates, count)) if count else []

    doomed: set = set()
    dropped: List[EventRecord] = []
    for i in victims:
        call = records[i]
        doomed.add(i)
        dropped.append(call)
        for j in range(i + 1, len(records)):
            rec = records[j]
            if (
                j not in doomed
                and rec.tid == call.tid
                and rec.primitive is call.primitive
                and rec.obj == call.obj
                and rec.phase is Phase.RET
            ):
                doomed.add(j)
                break

    kept = [rec for i, rec in enumerate(records) if i not in doomed]
    return DroppedWakeups(
        trace=Trace(kept, trace.meta, validate=True),
        dropped=tuple(dropped),
    )


def skew_clock(
    plan: ReplayPlan,
    *,
    seed: int = 0,
    max_skew: float = 0.1,
) -> ReplayPlan:
    """Scale each step's CPU burst by an independent seeded factor drawn
    uniformly from ``[1 - max_skew, 1 + max_skew]`` (recorder clock
    drift).  Returns a new plan; the input is untouched."""
    if not 0.0 <= max_skew < 1.0:
        raise ValueError(f"max_skew must be in [0, 1), got {max_skew}")
    rng = random.Random(seed)
    out: Dict[int, List[Step]] = {}
    for tid in sorted(plan.steps):
        new_steps: List[Step] = []
        for s in plan.steps[tid]:
            factor = rng.uniform(1.0 - max_skew, 1.0 + max_skew)
            new_steps.append(Step(max(0, round(s.work_us * factor)), s.op))
        out[tid] = new_steps
    return plan.with_steps(out)


def stall_threads(
    plan: ReplayPlan,
    *,
    seed: int = 0,
    stall_us: int = 50_000,
    fraction: float = 0.5,
    threads: Optional[Sequence[int]] = None,
) -> ReplayPlan:
    """Insert a ``Delay(stall_us)`` step at one seeded position in each
    chosen thread (the kernel parked the LWP mid-run).  ``threads``
    restricts the damage; by default a seeded *fraction* of all threads
    with at least one step is stalled."""
    if stall_us < 0:
        raise ValueError(f"stall_us must be >= 0, got {stall_us}")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    rng = random.Random(seed)
    eligible = sorted(tid for tid, steps in plan.steps.items() if steps)
    if threads is not None:
        chosen = [tid for tid in eligible if tid in set(threads)]
    else:
        count = min(len(eligible), max(1, int(len(eligible) * fraction))) if eligible else 0
        chosen = sorted(rng.sample(eligible, count)) if count else []

    out: Dict[int, List[Step]] = {}
    for tid in sorted(plan.steps):
        steps = list(plan.steps[tid])
        if tid in chosen:
            at = rng.randrange(0, len(steps) + 1)
            steps.insert(at, Step(0, op_mod.Delay(stall_us)))
        out[tid] = steps
    return plan.with_steps(out)


def perturb_profile(
    profile_text: str,
    *,
    seed: int = 0,
    factor_range: Tuple[float, float] = (1.5, 3.0),
) -> str:
    """Silently corrupt a calibration profile's fitted parameters.

    Scales a seeded subset (at least one) of the profile's ``params`` by
    factors drawn from *factor_range*, leaving the recorded error table
    untouched — the exact failure mode drift detection exists for: a
    profile whose parameters no longer produce the accuracy it claims.
    ``vppb validate`` against the perturbed profile must flag the
    mismatch (exit 1 or 2), never pass it.

    Operates on the JSON text so it composes with the corruptor
    pipeline; raises ``ValueError`` for input that is not a profile.
    """
    import json

    lo, hi = factor_range
    if not 0 < lo <= hi:
        raise ValueError(f"bad factor range {factor_range!r}")
    try:
        document = json.loads(profile_text)
    except ValueError as exc:
        raise ValueError(f"not a calibration profile: {exc}") from exc
    params = document.get("params")
    if not isinstance(params, dict) or not params:
        raise ValueError("not a calibration profile: no 'params' object")
    rng = random.Random(f"vppb-profile-perturb-{seed}")
    names = sorted(params)
    count = rng.randint(1, len(names))
    for name in rng.sample(names, count):
        params[name] = round(float(params[name]) * rng.uniform(lo, hi), 6)
    return json.dumps(document, indent=2, sort_keys=True)
