"""The versioned analytic-calibration artifact: interval margins on disk.

An :class:`AnalyticProfile` is to the analytical tier what a
:class:`~repro.calib.profile.CalibrationProfile` is to the cost model:
the durable, auditable output of a calibration run.  It records, per
margin key (``scheduler/binding/Ncpu`` down to ``default``) and per
model, the ``(lo, hi)`` ratio band such that

    ``lo * model_point  <=  DES makespan  <=  hi * model_point``

held (with a safety pad) on every cell of the calibration grid, plus the
workload suite and grid that produced the evidence.  Profiles are
deterministic — the suite's programs are seeded and the DES is exact —
so CI can re-derive the same margins and fail if the models drift.

Structural problems (wrong format marker, unknown version, malformed
margins) raise :class:`~repro.core.errors.CalibrationError`, mirroring
the cost-model profile's contract.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.errors import CalibrationError

__all__ = [
    "ANALYTIC_PROFILE_FORMAT",
    "ANALYTIC_PROFILE_VERSION",
    "AnalyticProfile",
    "default_profile_path",
    "load_default_profile",
]

ANALYTIC_PROFILE_FORMAT = "vppb-analytic-profile"
ANALYTIC_PROFILE_VERSION = 1

#: Margin table type: margin key → model name → (lo, hi) ratio band.
Margins = Dict[str, Dict[str, Tuple[float, float]]]


@dataclass(frozen=True)
class AnalyticProfile:
    """Calibrated per-model interval margins plus their provenance."""

    margins: Margins
    #: workload specs (dicts, :class:`~repro.calib.measure.WorkloadSpec`
    #: shape) the margins were fitted against
    suite: Tuple[Dict[str, Any], ...]
    #: the calibration grid axes (cpus / bindings / schedulers)
    grid: Dict[str, Any] = field(default_factory=dict)
    #: calibration cells measured (suite × grid)
    samples: int = 0
    #: relative safety pad applied beyond the observed ratio range
    pad: float = 0.0
    engine_version: int = 0
    analytic_version: int = 0
    created: str = ""
    version: int = ANALYTIC_PROFILE_VERSION

    def __post_init__(self) -> None:
        if not self.margins:
            raise CalibrationError("analytic profile has no margin tables")
        if "default" not in self.margins:
            raise CalibrationError(
                "analytic profile is missing the 'default' margin table"
            )
        for key, table in self.margins.items():
            for model, band in table.items():
                lo, hi = band
                if not (0.0 < lo <= hi):
                    raise CalibrationError(
                        f"bad margin band for {key!r}/{model!r}: "
                        f"({lo!r}, {hi!r})"
                    )

    # ------------------------------------------------------------------

    def margin(
        self, model: str, key_chain: Sequence[str]
    ) -> Tuple[float, float, str]:
        """``(lo, hi, key)`` for *model*, trying *key_chain* in order."""
        for key in key_chain:
            table = self.margins.get(key)
            if table is not None and model in table:
                lo, hi = table[model]
                return lo, hi, key
        table = self.margins["default"]
        if model not in table:
            raise CalibrationError(
                f"analytic profile has no margins for model {model!r}"
            )
        lo, hi = table[model]
        return lo, hi, "default"

    def fingerprint(self) -> str:
        """Content hash — part of every analytic answer's address, so
        re-calibrating invalidates previously cached analytic answers.

        Hashed once per profile object: the profile is frozen, and
        nothing changes its tables after construction.
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is None:
            text = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
            cached = hashlib.sha256(text.encode("utf-8")).hexdigest()
            object.__setattr__(self, "_fingerprint", cached)
        return cached

    # ------------------------------------------------------------------
    # serialisation
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": ANALYTIC_PROFILE_FORMAT,
            "version": self.version,
            "engine_version": self.engine_version,
            "analytic_version": self.analytic_version,
            "created": self.created,
            "pad": self.pad,
            "samples": self.samples,
            "grid": self.grid,
            "suite": list(self.suite),
            "margins": {
                key: {model: list(band) for model, band in sorted(table.items())}
                for key, table in sorted(self.margins.items())
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "AnalyticProfile":
        if not isinstance(data, dict):
            raise CalibrationError("analytic profile must be a JSON object")
        if data.get("format") != ANALYTIC_PROFILE_FORMAT:
            raise CalibrationError(
                f"not an analytic profile (format {data.get('format')!r}, "
                f"expected {ANALYTIC_PROFILE_FORMAT!r})"
            )
        version = data.get("version")
        if version != ANALYTIC_PROFILE_VERSION:
            raise CalibrationError(
                f"unsupported analytic profile version {version!r} "
                f"(this build reads version {ANALYTIC_PROFILE_VERSION})"
            )
        raw_margins = data.get("margins")
        if not isinstance(raw_margins, dict):
            raise CalibrationError("analytic profile 'margins' must be an object")
        margins: Margins = {}
        for key, table in raw_margins.items():
            if not isinstance(table, dict):
                raise CalibrationError(f"margin table {key!r} must be an object")
            out: Dict[str, Tuple[float, float]] = {}
            for model, band in table.items():
                try:
                    lo, hi = float(band[0]), float(band[1])
                except (TypeError, ValueError, IndexError) as exc:
                    raise CalibrationError(
                        f"bad margin band for {key!r}/{model!r}: {band!r}"
                    ) from exc
                out[str(model)] = (lo, hi)
            margins[str(key)] = out
        return cls(
            margins=margins,
            suite=tuple(dict(s) for s in data.get("suite", [])),
            grid=dict(data.get("grid", {})),
            samples=int(data.get("samples", 0)),
            pad=float(data.get("pad", 0.0)),
            engine_version=int(data.get("engine_version", 0)),
            analytic_version=int(data.get("analytic_version", 0)),
            created=str(data.get("created", "")),
            version=int(version),
        )

    @classmethod
    def from_json(cls, text: str) -> "AnalyticProfile":
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise CalibrationError(f"analytic profile is not valid JSON: {exc}")
        return cls.from_dict(data)

    def save(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json(), encoding="utf-8")
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "AnalyticProfile":
        path = Path(path)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise CalibrationError(f"cannot read analytic profile {path}: {exc}")
        return cls.from_json(text)


def default_profile_path() -> Optional[Path]:
    """Where the stock analytic profile lives, if anywhere.

    ``VPPB_ANALYTIC_PROFILE`` overrides; otherwise the repo-checkout
    location ``profiles/analytic.json`` is probed.
    """
    env = os.environ.get("VPPB_ANALYTIC_PROFILE")
    if env:
        return Path(env)
    candidate = Path(__file__).resolve().parents[3] / "profiles" / "analytic.json"
    return candidate if candidate.is_file() else None


def load_default_profile() -> Optional[AnalyticProfile]:
    """The committed/stock profile, or ``None`` when not available."""
    path = default_profile_path()
    if path is None or not path.is_file():
        return None
    return AnalyticProfile.load(path)
