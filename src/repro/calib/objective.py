"""The calibration objective: mean |§4 prediction error| over the suite.

For a candidate parameter vector, every workload's monitored trace is
replayed under the candidate cost model — one uni-processor baseline
plus one N-CPU prediction per measured machine size — and each
prediction is scored with the paper's error ``(real − predicted) /
real``.  The scalar the fitter minimises is the mean absolute error
over all (workload, cpus) cells.

All replays for one vector go through
:meth:`repro.jobs.engine.JobEngine.run` as a single batch:
cells run concurrently when the engine has a pool, and because job
fingerprints cover the full config (costs included), every previously
visited vector — in this fit, a refit, or a validation run — is a pure
:class:`~repro.jobs.cache.ResultCache` read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.metrics import prediction_error
from repro.core.config import SimConfig
from repro.core.errors import CalibrationError
from repro.calib.measure import MeasuredWorkload
from repro.calib.space import ParamSpace, default_space
from repro.jobs.engine import JobEngine, default_engine
from repro.jobs.model import SimJob
from repro.program.uniexec import uniprocessor_config
from repro.solaris.costs import apply_params

__all__ = [
    "DEFAULT_ERROR_BUDGET",
    "ErrorRow",
    "ObjectiveEvaluator",
    "mean_abs_error",
]

#: The paper's worst validated cell (Ocean, 8 CPUs): 6.2 % error.  Both
#: the validate gate and the fitter's hinge penalty default to it, so
#: the fit optimises exactly the quantity the gate later checks.
DEFAULT_ERROR_BUDGET = 0.062


@dataclass(frozen=True)
class ErrorRow:
    """One (workload, cpus) cell of the §4 error table."""

    workload: str
    cpus: int
    real_speedup: float
    predicted_speedup: float
    error: float

    @property
    def abs_error(self) -> float:
        return abs(self.error)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "workload": self.workload,
            "cpus": self.cpus,
            "real_speedup": round(self.real_speedup, 6),
            "predicted_speedup": round(self.predicted_speedup, 6),
            "error": round(self.error, 6),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ErrorRow":
        try:
            return cls(
                workload=str(data["workload"]),
                cpus=int(data["cpus"]),
                real_speedup=float(data["real_speedup"]),
                predicted_speedup=float(data["predicted_speedup"]),
                error=float(data["error"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CalibrationError(f"bad error-table row {data!r}: {exc}") from exc


def mean_abs_error(rows: Sequence[ErrorRow]) -> float:
    if not rows:
        raise CalibrationError("empty error table")
    return sum(r.abs_error for r in rows) / len(rows)


class ObjectiveEvaluator:
    """Scores parameter dicts/vectors against a measured suite.

    The evaluator is cheap to construct — all the expensive state (the
    measured suite) is handed in — so cross-validation builds one
    restricted evaluator per fold via :meth:`restricted`.

    The scalar score is mean |error| plus a hinge penalty,
    ``budget_weight × Σ max(0, |error| − cell_budget)``, on every cell
    over *cell_budget*.  The validate gate is per-cell, so a fit that
    lowered the mean by sacrificing one cell past the budget would
    produce a profile that fails its own gate; the hinge makes such
    trades unprofitable while leaving the objective equal to plain mean
    |error| everywhere inside the budget.  ``cell_budget=None`` turns
    the penalty off.
    """

    def __init__(
        self,
        measured: Sequence[MeasuredWorkload],
        *,
        space: Optional[ParamSpace] = None,
        base_config: Optional[SimConfig] = None,
        engine: Optional[JobEngine] = None,
        use_cache: bool = True,
        cell_budget: Optional[float] = DEFAULT_ERROR_BUDGET,
        budget_weight: float = 10.0,
    ) -> None:
        if not measured:
            raise CalibrationError("no measured workloads to evaluate against")
        if cell_budget is not None and cell_budget <= 0:
            raise CalibrationError(
                f"cell_budget must be > 0 or None, got {cell_budget}"
            )
        self.measured = list(measured)
        self.space = space or default_space()
        self.base_config = base_config or SimConfig()
        self.engine = engine or default_engine()
        self.use_cache = use_cache
        self.cell_budget = cell_budget
        self.budget_weight = budget_weight
        self.evaluations = 0

    # ------------------------------------------------------------------

    def restricted(self, names: Sequence[str]) -> "ObjectiveEvaluator":
        """An evaluator over a subset of the suite (for CV folds)."""
        wanted = set(names)
        subset = [m for m in self.measured if m.name in wanted]
        missing = wanted - {m.name for m in subset}
        if missing:
            raise CalibrationError(f"unknown workload(s) {sorted(missing)}")
        return ObjectiveEvaluator(
            subset,
            space=self.space,
            base_config=self.base_config,
            engine=self.engine,
            use_cache=self.use_cache,
            cell_budget=self.cell_budget,
            budget_weight=self.budget_weight,
        )

    def _candidate_config(self, params: Mapping[str, float]) -> SimConfig:
        costs = apply_params(params, base=self.base_config.costs)
        return self.base_config.with_costs(costs)

    def error_table(self, params: Mapping[str, float]) -> List[ErrorRow]:
        """The §4 error table for one parameter dict, suite-wide."""
        config = self._candidate_config(params)
        uni = uniprocessor_config(config)

        jobs: List[SimJob] = []
        layout: List[Tuple[MeasuredWorkload, int]] = []
        for m in self.measured:
            jobs.append(
                SimJob(trace=m.trace_ref, config=uni, label=f"{m.name}/baseline")
            )
            layout.append((m, 0))
            for meas in m.measurements:
                jobs.append(
                    SimJob(
                        trace=m.trace_ref,
                        config=config.with_cpus(meas.cpus),
                        label=f"{m.name}/{meas.cpus}cpu",
                    )
                )
                layout.append((m, meas.cpus))

        outcomes = self.engine.run(jobs, use_cache=self.use_cache)
        self.evaluations += 1

        makespans: Dict[Tuple[str, int], int] = {}
        for (m, cpus), outcome in zip(layout, outcomes):
            if not outcome.ok:
                raise CalibrationError(
                    f"objective lost job {outcome.label}: {outcome.error}"
                )
            if not outcome.complete:
                raise CalibrationError(
                    f"objective job {outcome.label} came back partial "
                    f"({outcome.status}): {outcome.reason}"
                )
            makespans[(m.name, cpus)] = outcome.makespan_us

        rows: List[ErrorRow] = []
        for m in self.measured:
            baseline_us = makespans[(m.name, 0)]
            for meas in m.measurements:
                predicted = baseline_us / makespans[(m.name, meas.cpus)]
                rows.append(
                    ErrorRow(
                        workload=m.name,
                        cpus=meas.cpus,
                        real_speedup=meas.real_speedup,
                        predicted_speedup=predicted,
                        error=prediction_error(meas.real_speedup, predicted),
                    )
                )
        return rows

    def score(self, params: Mapping[str, float]) -> float:
        rows = self.error_table(params)
        value = mean_abs_error(rows)
        if self.cell_budget is not None:
            value += self.budget_weight * sum(
                max(0.0, r.abs_error - self.cell_budget) for r in rows
            )
        return value

    def __call__(self, vector: Sequence[float]) -> float:
        """Vector objective for the derivative-free fitters."""
        return self.score(self.space.to_dict(vector))

    def vector_fn(self) -> Callable[[Sequence[float]], float]:
        return self.__call__
