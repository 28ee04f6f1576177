"""Closed-form makespan models over :class:`~repro.analytic.stats.TraceStats`.

Four models of increasing refinement, each a few arithmetic operations
per configuration (PPT-Multicore-style analytical prediction — no event
replay):

* ``work_span`` — the greedy-scheduler critical-path bound:
  ``max(span, work / P)`` where *work* is total CPU demand (bursts plus
  the cost model's per-operation charges) and *span* the longest single
  thread's demand;
* ``amdahl`` — adds the serial fraction: the single-threaded head and
  tail of the run cannot parallelise, so
  ``serial + (work - serial) / P``;
* ``lock_queue`` — a lock-contention queueing correction: each lock is
  a serial resource, so its critical sections add expected queueing
  delay proportional to how likely ``P`` concurrent threads are to
  collide on it, floored by the hottest lock's total hold time;
* ``comm_scale`` — comm-delay scaling: every recorded wake-up
  (``sema_post``, ``cond_signal/broadcast``) crosses CPUs with
  probability ``(P-1)/P`` and then costs ``comm_delay_us`` extra.

A raw point estimate is useless without error bars; the
:class:`~repro.analytic.profile.AnalyticProfile` carries per-model
``(lo, hi)`` ratio margins calibrated against DES ground truth
(:mod:`repro.analytic.calibrate`), and :func:`estimate_makespan`
intersects the models' calibrated intervals into one ``[lo, hi]``
answer.  On every calibration-suite cell the DES makespan lies inside
each model's margined interval by construction, so it lies inside the
intersection too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from repro.core.config import SimConfig
from repro.core.events import Primitive

from repro.analytic.stats import TraceStats

__all__ = [
    "MODEL_NAMES",
    "MakespanInterval",
    "binding_of",
    "trace_class",
    "margin_key_for",
    "model_points",
    "estimate_makespan",
]

#: Model names in refinement order; ``comm_scale`` (the full chain) is
#: the point estimator.
MODEL_NAMES = ("work_span", "amdahl", "lock_queue", "comm_scale")


@dataclass(frozen=True)
class MakespanInterval:
    """A calibrated ``[lo, hi]`` makespan estimate for one config."""

    lo_us: int
    hi_us: int
    point_us: int
    #: per-model calibrated intervals (model → (lo_us, hi_us))
    per_model: Tuple[Tuple[str, Tuple[int, int]], ...]
    #: which margin table answered (exact cell key or a fallback level)
    margin_key: str

    def brackets(self, makespan_us: int) -> bool:
        return self.lo_us <= makespan_us <= self.hi_us

    def to_dict(self) -> Dict[str, Any]:
        return {
            "lo_us": self.lo_us,
            "hi_us": self.hi_us,
            "point_us": self.point_us,
            "margin_key": self.margin_key,
            "models": {name: list(iv) for name, iv in self.per_model},
        }


def _bound_fraction(config: SimConfig) -> float:
    """Fraction of per-thread policies asking for a bound thread."""
    if not config.thread_policies:
        return 0.0
    bound = sum(1 for p in config.thread_policies.values() if p.bound)
    return bound / len(config.thread_policies)


def binding_of(config: SimConfig) -> str:
    """The manifest-style binding label this config corresponds to."""
    frac = _bound_fraction(config)
    if frac == 0.0:
        return "unbound"
    if frac == 1.0:
        return "bound"
    return "mixed"


def trace_class(stats: TraceStats) -> str:
    """Coarse behaviour class of a trace, from its own statistics.

    The models' bias depends strongly on how lock-dominated a workload
    is (a contended producer/consumer queue vs. barrier-phased compute),
    so margins are calibrated per class.  The class is a pure function
    of :class:`TraceStats`, hence available identically at calibration
    and at estimate time.  Buckets are log-scale on the locks' total
    hold time relative to compute.
    """
    held = sum(lock.held_us for lock in stats.locks)
    intensity = held / max(stats.compute_us, 1)
    if intensity >= 0.1:
        return "lock-heavy"
    if intensity >= 0.001:
        return "lock-light"
    return "lock-free"


def margin_key_for(stats: TraceStats, config: SimConfig) -> List[str]:
    """Margin lookup chain for *stats* under *config*, most specific first.

    ``class/scheduler/binding/Ncpu`` → ``class/scheduler/binding`` →
    ``scheduler/binding/Ncpu`` → ``scheduler/binding`` → ``scheduler``
    → ``default``.  Calibration aggregates observed DES/model ratios at
    every level, so off-grid configurations and unseen behaviour classes
    still get (wider) margins.
    """
    sched = config.scheduler
    binding = binding_of(config)
    cls = trace_class(stats)
    return [
        f"{cls}/{sched}/{binding}/{config.cpus}cpu",
        f"{cls}/{sched}/{binding}",
        f"{sched}/{binding}/{config.cpus}cpu",
        f"{sched}/{binding}",
        sched,
        "default",
    ]


def _effective_parallelism(stats: TraceStats, config: SimConfig) -> int:
    """How many of the machine's CPUs the trace can actually occupy."""
    limit = min(config.cpus, max(1, stats.n_threads))
    if config.lwps is not None and _bound_fraction(config) < 1.0:
        # unbound threads multiplex a fixed LWP pool
        limit = min(limit, config.lwps)
    return max(1, limit)


def _op_cost_us(stats: TraceStats, config: SimConfig) -> float:
    """The cost model's total per-operation charge for this trace."""
    costs = config.costs
    frac_bound = _bound_fraction(config)
    total = 0.0
    for name, count in stats.primitive_calls:
        try:
            prim = Primitive(name)
        except ValueError:
            continue
        unbound = costs.op_cost(prim, bound=False)
        if frac_bound > 0.0:
            bound = costs.op_cost(prim, bound=True)
            total += count * (frac_bound * bound + (1.0 - frac_bound) * unbound)
        else:
            total += count * unbound
    return total


def model_points(stats: TraceStats, config: SimConfig) -> Dict[str, float]:
    """Each model's raw (uncalibrated) makespan point estimate, in µs."""
    p = _effective_parallelism(stats, config)
    work = float(stats.compute_us) + _op_cost_us(stats, config)
    span = float(max(stats.span_us, 1))
    serial = min(float(stats.serial_us), work)

    t_ws = max(span, work / p)
    t_am = max(t_ws, serial + (work - serial) / p)

    # queueing correction: a lock's critical sections serialise; with p
    # threads the chance another holder is inside scales with the
    # lock's share of the parallel work
    queue = 0.0
    hottest = 0.0
    for lock in stats.locks:
        demand = float(lock.held_us)
        hottest = max(hottest, demand)
        if p > 1 and work > 0:
            collide = min(1.0, (p - 1) * demand / work)
            queue += demand * collide
    t_lq = max(t_am + queue, hottest if p > 1 else 0.0, t_am)

    # comm-delay scaling: recorded wake-ups cross CPUs with
    # probability (p-1)/p, each delivery then arriving comm_delay later
    cross = stats.wakeups * (p - 1) / p if p > 1 else 0.0
    t_cs = t_lq + cross * config.comm_delay_us

    return {
        "work_span": t_ws,
        "amdahl": t_am,
        "lock_queue": t_lq,
        "comm_scale": t_cs,
    }


def estimate_makespan(
    stats: TraceStats, config: SimConfig, profile
) -> MakespanInterval:
    """Calibrated ``[lo, hi]`` makespan interval for *stats* under *config*.

    *profile* is an :class:`~repro.analytic.profile.AnalyticProfile`.
    Each model contributes its point estimate scaled by its calibrated
    ratio margins; the final interval is the intersection (every model's
    margins bracket the DES on the calibration suite, so the
    intersection does too).  Should the intersection be empty on inputs
    far outside the calibrated envelope, the union is returned instead —
    wider, never narrower.
    """
    points = model_points(stats, config)
    chain = margin_key_for(stats, config)
    per_model: List[Tuple[str, Tuple[int, int]]] = []
    used_key = "default"
    los: List[int] = []
    his: List[int] = []
    for name in MODEL_NAMES:
        point = points[name]
        lo_m, hi_m, key = profile.margin(name, chain)
        used_key = key
        lo = int(point * lo_m)
        hi = int(point * hi_m) + 1
        per_model.append((name, (lo, hi)))
        los.append(lo)
        his.append(hi)
    lo, hi = max(los), min(his)
    if hi < lo:  # disjoint margins: fall back to the envelope
        lo, hi = min(los), max(his)
    point = int(points["comm_scale"])
    point = min(max(point, lo), hi)
    return MakespanInterval(
        lo_us=lo,
        hi_us=hi,
        point_us=max(point, 1),
        per_model=tuple(per_model),
        margin_key=used_key,
    )
