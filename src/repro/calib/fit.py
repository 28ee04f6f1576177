"""Derivative-free fitting of the cost model, with cross-validation.

The objective (mean |§4 error| over the suite) is a black box: each
evaluation is a batch of simulations, it is piecewise-constant in the
integral parameters, and no gradients exist.  The fitter therefore
composes two classic derivative-free methods, both pure Python:

* **coordinate descent** with per-parameter shrinking steps — robust,
  embarrassingly cache-friendly (each probe moves one coordinate, so
  refits re-visit mostly known vectors), and good at exploiting the
  near-separable structure of the cost knobs;
* a **Nelder-Mead simplex restart** around the coordinate-descent
  incumbent, to pick up the remaining cross-parameter interaction.

Everything is deterministic: same suite + same budget → same fit.  All
evaluations are memoised on the rounded vector, and the job engine's
content-addressed cache deduplicates the underlying simulations anyway,
so the wall-clock cost of a fit is roughly (distinct vectors visited) ×
(suite replay cost).

:func:`cross_validate` answers the over-fitting question the paper's
Table 1 raises implicitly (five workloads, five fitted machines): fit
on k−1 folds of workloads, score on the held-out fold, report the
spread between train and holdout error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.errors import CalibrationError
from repro.calib.objective import ObjectiveEvaluator, mean_abs_error
from repro.calib.space import ParamSpace

__all__ = ["FitResult", "FoldResult", "CrossValidation", "fit", "cross_validate"]

#: Default evaluation budget for one fit.
DEFAULT_MAX_EVALS = 80


class _Memo:
    """Memoised objective with an evaluation budget and a trace.

    Vectors are keyed rounded to 9 significant-ish decimals so the
    float-noise neighbours Nelder-Mead generates collapse onto one
    evaluation.  The trace records ``(evaluation #, best-so-far)`` each
    time the incumbent improves — the convergence curve the profile
    stores.
    """

    def __init__(
        self, fn: Callable[[Sequence[float]], float], max_evals: int
    ) -> None:
        self.fn = fn
        self.max_evals = max_evals
        self.cache: Dict[Tuple[float, ...], float] = {}
        self.evals = 0
        self.best: Optional[Tuple[float, ...]] = None
        self.best_value = float("inf")
        self.trace: List[Tuple[int, float]] = []

    def exhausted(self) -> bool:
        return self.evals >= self.max_evals

    def __call__(self, vector: Sequence[float]) -> float:
        key = tuple(round(v, 9) for v in vector)
        if key in self.cache:
            return self.cache[key]
        if self.exhausted():
            # over budget: report the worst value seen so far so the
            # optimiser steers back without spending a real evaluation
            return float("inf")
        self.evals += 1
        value = self.fn(list(key))
        self.cache[key] = value
        if value < self.best_value:
            self.best_value = value
            self.best = key
            self.trace.append((self.evals, value))
        return value


def _coordinate_descent(
    memo: _Memo,
    space: ParamSpace,
    start: List[float],
    *,
    shrink: float = 0.5,
    min_rel_step: float = 0.01,
) -> List[float]:
    """Cyclic coordinate descent with per-axis shrinking steps."""
    x = space.clip(start)
    steps = space.steps()
    floors = [(p.hi - p.lo) * min_rel_step for p in space.params]
    best = memo(x)
    while not memo.exhausted() and any(s > f for s, f in zip(steps, floors)):
        improved = False
        for i in range(len(x)):
            if steps[i] <= floors[i]:
                continue
            for direction in (+1.0, -1.0):
                if memo.exhausted():
                    break
                candidate = list(x)
                candidate[i] += direction * steps[i]
                candidate = space.clip(candidate)
                if candidate == x:
                    continue
                value = memo(candidate)
                if value < best:
                    x, best = candidate, value
                    improved = True
                    break
        if not improved:
            steps = [s * shrink for s in steps]
    return list(memo.best) if memo.best is not None else x


def _nelder_mead(
    memo: _Memo,
    space: ParamSpace,
    start: List[float],
    *,
    spread: float = 0.05,
    max_iter: int = 200,
    tol: float = 1e-6,
) -> List[float]:
    """Textbook Nelder-Mead in the clipped box, restarted at *start*."""
    n = len(space)
    x0 = space.clip(start)
    simplex = [x0]
    for i in range(n):
        p = space.params[i]
        vertex = list(x0)
        delta = (p.hi - p.lo) * spread
        # step toward whichever bound has room
        vertex[i] += delta if vertex[i] + delta <= p.hi else -delta
        simplex.append(space.clip(vertex))
    values = [memo(v) for v in simplex]

    for _ in range(max_iter):
        if memo.exhausted():
            break
        order = sorted(range(n + 1), key=lambda i: values[i])
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]
        if values[-1] - values[0] < tol:
            break
        centroid = [
            sum(simplex[i][d] for i in range(n)) / n for d in range(n)
        ]

        def at(coef: float) -> List[float]:
            return space.clip(
                [c + coef * (c - w) for c, w in zip(centroid, simplex[-1])]
            )

        reflected = at(1.0)
        fr = memo(reflected)
        if values[0] <= fr < values[-2]:
            simplex[-1], values[-1] = reflected, fr
        elif fr < values[0]:
            expanded = at(2.0)
            fe = memo(expanded)
            if fe < fr:
                simplex[-1], values[-1] = expanded, fe
            else:
                simplex[-1], values[-1] = reflected, fr
        else:
            contracted = at(-0.5)
            fc = memo(contracted)
            if fc < values[-1]:
                simplex[-1], values[-1] = contracted, fc
            else:  # total shrink toward the best vertex
                for i in range(1, n + 1):
                    simplex[i] = space.clip(
                        [
                            b + 0.5 * (v - b)
                            for b, v in zip(simplex[0], simplex[i])
                        ]
                    )
                    values[i] = memo(simplex[i])
    return list(memo.best) if memo.best is not None else x0


@dataclass(frozen=True)
class FitResult:
    """One fit: the incumbent parameters and how we got there."""

    params: Dict[str, float]
    objective: float
    baseline_objective: float
    evaluations: int
    objective_trace: Tuple[Tuple[int, float], ...]

    @property
    def improved(self) -> bool:
        """Strictly better than the defaults it started from."""
        return self.objective < self.baseline_objective

    @property
    def improvement(self) -> float:
        """Relative reduction of mean |error| vs the defaults."""
        if self.baseline_objective == 0:
            return 0.0
        return 1.0 - self.objective / self.baseline_objective


def fit(
    evaluator: ObjectiveEvaluator,
    *,
    max_evals: int = DEFAULT_MAX_EVALS,
    start: Optional[Dict[str, float]] = None,
) -> FitResult:
    """Fit the evaluator's parameter space within an evaluation budget.

    Roughly 60 % of the budget goes to coordinate descent, the rest to
    the Nelder-Mead restart.  The default parameters are always
    evaluated first, so ``objective <= baseline_objective`` holds by
    construction (the incumbent never regresses below the start point).
    """
    if max_evals < len(evaluator.space) + 2:
        raise CalibrationError(
            f"max_evals={max_evals} cannot even evaluate the defaults and "
            f"one probe per parameter ({len(evaluator.space)} params)"
        )
    space = evaluator.space
    memo = _Memo(evaluator.vector_fn(), max_evals)

    defaults = space.defaults()
    baseline = memo(defaults)
    x0 = space.to_vector(start) if start else defaults

    cd_budget = max(len(space) + 1, int(max_evals * 0.6))
    memo.max_evals = min(max_evals, memo.evals + cd_budget)
    incumbent = _coordinate_descent(memo, space, x0)
    memo.max_evals = max_evals
    incumbent = _nelder_mead(memo, space, incumbent)

    best_vec = list(memo.best) if memo.best is not None else incumbent
    return FitResult(
        params=space.to_dict(best_vec),
        objective=memo.best_value,
        baseline_objective=baseline,
        evaluations=memo.evals,
        objective_trace=tuple(memo.trace),
    )


@dataclass(frozen=True)
class FoldResult:
    """One CV fold: fitted on everything except ``held_out``."""

    held_out: Tuple[str, ...]
    train_objective: float
    holdout_objective: float
    params: Dict[str, float]


@dataclass(frozen=True)
class CrossValidation:
    """k-fold CV across workloads."""

    folds: Tuple[FoldResult, ...]

    @property
    def mean_holdout(self) -> float:
        return sum(f.holdout_objective for f in self.folds) / len(self.folds)

    @property
    def worst_holdout(self) -> float:
        return max(f.holdout_objective for f in self.folds)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "folds": [
                {
                    "held_out": list(f.held_out),
                    "train_objective": round(f.train_objective, 6),
                    "holdout_objective": round(f.holdout_objective, 6),
                    "params": {k: round(v, 6) for k, v in f.params.items()},
                }
                for f in self.folds
            ],
            "mean_holdout": round(self.mean_holdout, 6),
            "worst_holdout": round(self.worst_holdout, 6),
        }


def cross_validate(
    evaluator: ObjectiveEvaluator,
    *,
    folds: int = 0,
    max_evals: int = DEFAULT_MAX_EVALS,
    progress: Optional[Callable[[str], None]] = None,
) -> CrossValidation:
    """k-fold cross-validation across *workloads* (never across rows of
    one workload — that would leak its trace into both sides).

    ``folds=0`` means leave-one-out.  Needs at least two workloads;
    fewer has nothing to hold out.  Per-fold fits share the engine's
    result cache with each other and with the main fit, so the marginal
    cost of CV is far below ``folds ×`` the main fit.
    """
    names = [m.name for m in evaluator.measured]
    if len(names) < 2:
        raise CalibrationError(
            f"cross-validation needs >= 2 workloads, got {names}"
        )
    k = len(names) if folds == 0 else folds
    if not 2 <= k <= len(names):
        raise CalibrationError(
            f"folds must be in [2, {len(names)}], got {folds}"
        )
    # deterministic contiguous folds over the suite order
    buckets: List[List[str]] = [[] for _ in range(k)]
    for i, name in enumerate(names):
        buckets[i % k].append(name)

    results: List[FoldResult] = []
    for held_out in buckets:
        train = [n for n in names if n not in held_out]
        if progress:
            progress(f"cv fold: holding out {held_out}, fitting on {train}")
        fitted = fit(evaluator.restricted(train), max_evals=max_evals)
        holdout_rows = evaluator.restricted(held_out).error_table(fitted.params)
        results.append(
            FoldResult(
                held_out=tuple(held_out),
                train_objective=fitted.objective,
                holdout_objective=mean_abs_error(holdout_rows),
                params=fitted.params,
            )
        )
    return CrossValidation(folds=tuple(results))
