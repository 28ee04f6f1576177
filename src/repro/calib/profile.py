"""The versioned calibration artifact: a profile JSON on disk.

A :class:`CalibrationProfile` is the durable output of ``vppb
calibrate`` and the input to ``vppb validate`` and ``--profile`` on the
prediction commands.  It records everything needed to (a) reproduce the
fitted cost model (the parameter dict), (b) re-measure the exact suite
it was fitted against (the workload specs, seeds included), and (c)
audit the fit (per-cell error table, objective convergence trace,
cross-validation summary, machine fingerprint).

The machine fingerprint is *advisory*: the measured "machine" is itself
the seeded scheduler model, so profiles are portable across hosts; the
fingerprint only documents provenance and produces warnings, never
errors.  Structural problems (wrong format marker, unknown version,
parameters outside the tunable space's vocabulary) raise
:class:`~repro.core.errors.CalibrationError`.
"""

from __future__ import annotations

import json
import platform
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.core.config import SimConfig
from repro.core.errors import CalibrationError
from repro.calib.fit import CrossValidation, FitResult
from repro.calib.measure import WorkloadSpec
from repro.calib.objective import ErrorRow
from repro.jobs.fingerprint import ENGINE_VERSION
from repro.solaris.costs import CostModel, apply_params

__all__ = ["PROFILE_FORMAT", "PROFILE_VERSION", "CalibrationProfile", "machine_fingerprint"]

PROFILE_FORMAT = "vppb-calibration-profile"
PROFILE_VERSION = 1


def machine_fingerprint() -> Dict[str, Any]:
    """Provenance of the fitting host (advisory — see module docstring)."""
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "engine_version": ENGINE_VERSION,
    }


@dataclass(frozen=True)
class CalibrationProfile:
    """Fitted cost-model parameters plus the evidence behind them."""

    params: Dict[str, float]
    objective: float
    baseline_objective: float
    error_table: Tuple[ErrorRow, ...]
    suite: Tuple[WorkloadSpec, ...]
    objective_trace: Tuple[Tuple[int, float], ...] = ()
    evaluations: int = 0
    cv: Optional[Dict[str, Any]] = None
    machine: Dict[str, Any] = field(default_factory=machine_fingerprint)
    created: str = ""
    version: int = PROFILE_VERSION

    def __post_init__(self) -> None:
        if not self.params:
            raise CalibrationError("profile has no fitted parameters")
        if not self.error_table:
            raise CalibrationError("profile has no recorded error table")
        if not self.suite:
            raise CalibrationError("profile records no workload suite")
        if not self.created:
            object.__setattr__(
                self,
                "created",
                datetime.now(timezone.utc).isoformat(timespec="seconds"),
            )

    # ------------------------------------------------------------------
    # applying the profile
    # ------------------------------------------------------------------

    def cost_model(self, *, base: Optional[CostModel] = None) -> CostModel:
        """The fitted cost model (raises on unknown parameter names)."""
        return apply_params(self.params, base=base)

    def apply(self, config: Optional[SimConfig] = None) -> SimConfig:
        """A config running under this profile's fitted costs."""
        base = config or SimConfig()
        return base.with_costs(self.cost_model(base=base.costs))

    @property
    def mean_abs_error(self) -> float:
        return sum(r.abs_error for r in self.error_table) / len(self.error_table)

    def machine_mismatches(self) -> List[str]:
        """Differences between the fitting host and this one (warn-only)."""
        here = machine_fingerprint()
        return [
            f"{key}: profile has {self.machine.get(key)!r}, "
            f"this host has {here[key]!r}"
            for key in here
            if self.machine.get(key) != here[key]
        ]

    # ------------------------------------------------------------------
    # construction / (de)serialisation
    # ------------------------------------------------------------------

    @classmethod
    def from_fit(
        cls,
        fitted: FitResult,
        error_table: List[ErrorRow],
        suite: List[WorkloadSpec],
        *,
        cv: Optional[CrossValidation] = None,
    ) -> "CalibrationProfile":
        return cls(
            params=dict(fitted.params),
            objective=fitted.objective,
            baseline_objective=fitted.baseline_objective,
            error_table=tuple(error_table),
            suite=tuple(suite),
            objective_trace=tuple(fitted.objective_trace),
            evaluations=fitted.evaluations,
            cv=cv.to_dict() if cv is not None else None,
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": PROFILE_FORMAT,
            "version": self.version,
            "created": self.created,
            "params": {k: round(v, 9) for k, v in sorted(self.params.items())},
            "objective": round(self.objective, 9),
            "baseline_objective": round(self.baseline_objective, 9),
            "evaluations": self.evaluations,
            "objective_trace": [
                [n, round(v, 9)] for n, v in self.objective_trace
            ],
            "error_table": [r.to_dict() for r in self.error_table],
            "suite": [s.to_dict() for s in self.suite],
            "cv": self.cv,
            "machine": self.machine,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CalibrationProfile":
        if not isinstance(data, dict):
            raise CalibrationError(
                f"profile document must be an object, got {type(data).__name__}"
            )
        if data.get("format") != PROFILE_FORMAT:
            raise CalibrationError(
                f"not a calibration profile (format={data.get('format')!r}, "
                f"expected {PROFILE_FORMAT!r})"
            )
        version = data.get("version")
        if version != PROFILE_VERSION:
            raise CalibrationError(
                f"unsupported profile version {version!r} "
                f"(this build reads version {PROFILE_VERSION})"
            )
        params = data.get("params")
        if not isinstance(params, dict):
            raise CalibrationError("profile 'params' must be an object")
        try:
            return cls(
                params={str(k): float(v) for k, v in params.items()},
                objective=float(data["objective"]),
                baseline_objective=float(data["baseline_objective"]),
                error_table=tuple(
                    ErrorRow.from_dict(r) for r in data.get("error_table", [])
                ),
                suite=tuple(
                    WorkloadSpec.from_dict(s) for s in data.get("suite", [])
                ),
                objective_trace=tuple(
                    (int(n), float(v))
                    for n, v in data.get("objective_trace", [])
                ),
                evaluations=int(data.get("evaluations", 0)),
                cv=data.get("cv"),
                machine=dict(data.get("machine", {})),
                created=str(data.get("created", "")),
                version=int(version),
            )
        except CalibrationError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise CalibrationError(f"malformed profile: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "CalibrationProfile":
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise CalibrationError(f"profile is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    def save(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json(), encoding="utf-8")
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "CalibrationProfile":
        path = Path(path)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise CalibrationError(f"cannot read profile {path}: {exc}") from exc
        try:
            return cls.from_json(text)
        except CalibrationError as exc:
            raise CalibrationError(f"{path}: {exc}") from exc
