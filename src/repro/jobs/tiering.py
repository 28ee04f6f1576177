"""The tiering policy: when does an interval answer, when do we simulate?

The analytical tier (:mod:`repro.analytic`) answers a grid cell with a
calibrated ``[lo, hi]`` makespan interval in microseconds of compute; the
simulator answers with an exact point at replay cost.  This module holds
the policy glueing them together; :func:`repro.jobs.manifest.run_grid`
applies it, and is the one prediction path behind both ``vppb batch
--tier auto`` and the service's ``POST /predict``:

1. the **baseline** (uniprocessor replay) is always simulated — every
   speed-up figure divides by it, so an interval there would poison
   every decision;
2. every grid cell gets an analytic interval, giving per-cell *speed-up
   bounds* ``[baseline/hi, baseline/lo]``;
3. :func:`escalation_labels` picks the cells whose intervals cannot
   decide the queries — the best-of-grid winner and the per-group knee —
   and only those are replayed;
4. :func:`decide` then produces decisions **provably identical** to a
   fully simulated grid.

Only complete replays are exact: a partial one (deadlock, budget, ...)
gets no speed-up and never reaches :func:`decide`, and since the models
assume replays that complete, ``run_grid`` replays every remaining
analytic cell once an escalated replay deadlocks, livelocks or diverges.

Why the guarantee holds (given intervals that bracket the true
makespan, which calibration enforces on its suite): a cell is only left
analytic when its speed-up upper bound is *strictly below* the best
cell's lower bound (so it cannot be the winner, nor tie with it), and
when it falls decidedly on one side of every knee threshold it
participates in.  All remaining comparisons happen between simulated —
exact — values, so the winner, its ties, and each group's knee come out
the same as if everything had been replayed.  :func:`decide` works on
the mixed grid using each analytic cell's point estimate; because the
point lies inside ``[lo, hi]``, the decided-cell inequalities above
transfer to it unchanged.

The knee query mirrors the paper's §4 what-if workflow: "how many CPUs
until adding more stops paying?", formalised as the smallest CPU count
in a group reaching ``target_fraction`` of that group's best speed-up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = ["DEFAULT_TARGET_FRACTION", "TierCell", "escalation_labels", "decide"]

#: A knee at 80% of the group's best speed-up: past it, the curve has
#: visibly flattened (the paper's Fig. 8 knee reads at about this level).
DEFAULT_TARGET_FRACTION = 0.8


@dataclass(frozen=True)
class TierCell:
    """One grid cell as the tiering policy sees it.

    A simulated cell has ``lo_us == hi_us == point_us`` and
    ``exact=True``; an analytic cell carries its calibrated interval.
    ``group`` keys the speed-up curve the cell belongs to (one curve per
    binding/lwps/comm-delay/scheduler combination — the cpus axis is the
    curve), so knees are computed per group.
    """

    label: str
    group: str
    cpus: int
    lo_us: int
    hi_us: int
    point_us: int
    exact: bool

    def speedup_bounds(self, baseline_us: int) -> Tuple[float, float]:
        """``(lo_sp, hi_sp)``: slowest and fastest this cell can be."""
        return (
            baseline_us / self.hi_us if self.hi_us else 0.0,
            baseline_us / self.lo_us if self.lo_us else 0.0,
        )

    def speedup_point(self, baseline_us: int) -> float:
        return baseline_us / self.point_us if self.point_us else 0.0


def _by_group(cells: Sequence[TierCell]) -> Dict[str, List[TierCell]]:
    groups: Dict[str, List[TierCell]] = {}
    for cell in cells:
        groups.setdefault(cell.group, []).append(cell)
    return groups


def escalation_labels(
    cells: Sequence[TierCell],
    baseline_us: int,
    *,
    target_fraction: float = DEFAULT_TARGET_FRACTION,
) -> List[str]:
    """Labels of the cells whose intervals cannot decide the queries.

    Three escalation triggers, each necessary for exactness:

    * **global-best contenders** — cells whose speed-up upper bound
      reaches the highest lower bound anywhere on the grid.  Everything
      else is strictly slower than the eventual winner and can stay
      analytic;
    * **group-best contenders** — same test within each group: the
      knee threshold is a fraction of the group's best speed-up, so
      that best must be exact;
    * **knee straddlers** — cells whose speed-up interval overlaps
      ``[t * Mlo_g, t * Mhi_g]`` (the group-best bounds scaled by the
      target fraction): the interval cannot say which side of the knee
      threshold they land on.

    Already-exact cells never escalate.  Order follows *cells*.
    """
    if baseline_us <= 0:
        return [c.label for c in cells if not c.exact]
    if not 0.0 < target_fraction <= 1.0:
        raise ValueError(
            f"target_fraction must be in (0, 1], got {target_fraction}"
        )
    bounds = {c.label: c.speedup_bounds(baseline_us) for c in cells}
    max_lo = max((lo for lo, _ in bounds.values()), default=0.0)

    escalate: List[str] = []
    seen = set()

    def mark(cell: TierCell) -> None:
        if not cell.exact and cell.label not in seen:
            seen.add(cell.label)
            escalate.append(cell.label)

    for cell in cells:
        if bounds[cell.label][1] >= max_lo:
            mark(cell)

    for group_cells in _by_group(cells).values():
        g_lo = max(bounds[c.label][0] for c in group_cells)
        g_hi = max(bounds[c.label][1] for c in group_cells)
        knee_lo = target_fraction * g_lo
        knee_hi = target_fraction * g_hi
        for cell in group_cells:
            lo_sp, hi_sp = bounds[cell.label]
            if hi_sp >= g_lo:
                mark(cell)  # group-best contender
            elif not (lo_sp >= knee_hi or hi_sp < knee_lo):
                mark(cell)  # knee straddler
    return escalate


def decide(
    cells: Sequence[TierCell],
    baseline_us: Optional[int],
    *,
    target_fraction: float = DEFAULT_TARGET_FRACTION,
) -> Dict[str, Any]:
    """The grid's decisions: best cell overall, knee CPU count per group.

    Works on exact, mixed (post-escalation) and all-analytic grids
    alike, using each cell's point estimate; on a post-escalation grid
    the result equals the fully simulated grid's (see module docstring).
    The winner is the first cell in *cells* order achieving the maximum
    speed-up, the knee the smallest CPU count in the group reaching
    ``target_fraction`` of the group's best — both deterministic.
    """
    if baseline_us is None or baseline_us <= 0 or not cells:
        return {}
    speedups = {c.label: c.speedup_point(baseline_us) for c in cells}
    best = max(cells, key=lambda c: speedups[c.label])

    knees: Dict[str, Optional[int]] = {}
    for group, group_cells in sorted(_by_group(cells).items()):
        threshold = target_fraction * max(speedups[c.label] for c in group_cells)
        at_knee = [
            c for c in group_cells if speedups[c.label] >= threshold
        ]
        knees[group] = min(c.cpus for c in at_knee) if at_knee else None

    return {
        "best": best.label,
        "best_speedup": round(speedups[best.label], 4),
        "knees": knees,
        "target_fraction": target_fraction,
    }
