"""Finding vocabulary of the trace lint engine.

A :class:`Finding` is one diagnosed problem: which rule fired, how bad it
is, which thread/object/source location it concerns, and the witness
sites that justify it.  Findings are plain data — every output format
(text report, JSON, SARIF, Visualizer markers) is a projection of the
same :class:`LintReport`.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.events import SourceLocation
from repro.core.ids import SyncObjectId

__all__ = ["Severity", "Site", "Finding", "LintReport", "site_key"]


def site_key(source: SourceLocation) -> str:
    """``basename:line`` of a source site: the same from any checkout
    path, so fingerprints and labels that name sites carry across
    machines."""
    name = source.file.replace("\\", "/").rsplit("/", 1)[-1]
    return f"{name}:{source.line}"


class Severity(enum.Enum):
    """How bad a finding is; also the SARIF ``level`` vocabulary."""

    NOTE = "note"
    WARNING = "warning"
    ERROR = "error"

    @property
    def rank(self) -> int:
        return _SEVERITY_RANK[self]

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value

    @classmethod
    def parse(cls, text: str) -> "Severity":
        try:
            return cls(text.lower())
        except ValueError:
            raise ValueError(
                f"unknown severity {text!r}; expected one of "
                f"{[s.value for s in cls]}"
            ) from None


_SEVERITY_RANK = {Severity.NOTE: 0, Severity.WARNING: 1, Severity.ERROR: 2}


@dataclass(frozen=True)
class Site:
    """One witness location: a thread at a source position in the trace.

    ``event_index`` is the position of the witnessing record in the
    global log (``trace[i]``), so tools can jump from a finding back to
    the exact recorded event.
    """

    label: str
    tid: Optional[int] = None
    source: Optional[SourceLocation] = None
    event_index: Optional[int] = None

    def describe(self) -> str:
        parts = [self.label]
        if self.tid is not None:
            parts.append(f"T{self.tid}")
        if self.source is not None:
            parts.append(str(self.source))
        return " ".join(parts)

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {"label": self.label}
        if self.tid is not None:
            out["tid"] = self.tid
        if self.source is not None:
            out["file"] = self.source.file
            out["line"] = self.source.line
            if self.source.function:
                out["function"] = self.source.function
        if self.event_index is not None:
            out["event_index"] = self.event_index
        return out


@dataclass(frozen=True)
class Finding:
    """One diagnosed problem in a recorded trace.

    ``witness`` (when a rule could synthesize one) is the serialized
    replayable schedule that exhibits the hazard — see
    :mod:`repro.analysis.lint.witness`.  ``manifests`` is filled by the
    predictive ``--whatif`` grid: the machine-config labels under which
    the hazard concretely manifested in replay (``None`` = grid not run,
    ``()`` = run but never manifested).
    """

    rule_id: str
    severity: Severity
    message: str
    tid: Optional[int] = None
    obj: Optional[SyncObjectId] = None
    source: Optional[SourceLocation] = None
    event_index: Optional[int] = None
    related: Tuple[Site, ...] = ()
    witness: Optional[Dict[str, object]] = None
    manifests: Optional[Tuple[str, ...]] = None

    def fingerprint(self) -> str:
        """Stable identity across runs of the same program.

        Hashes what the finding *is* (rule, operand, source sites as
        ``basename:line``) and not where in this particular log or
        checkout it happened (no event indices, no timestamps, no
        message text, no directories): re-recording the same program,
        from any checkout path, yields the same fingerprint, so findings
        diff across runs and a ``--baseline`` file keeps suppressing
        them.
        """
        parts = [
            self.rule_id,
            str(self.obj) if self.obj is not None else "",
            site_key(self.source) if self.source else "",
        ]
        parts.extend(
            sorted(site_key(s.source) if s.source else s.label for s in self.related)
        )
        digest = hashlib.sha256("|".join(parts).encode("utf-8")).hexdigest()
        return digest

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "rule_id": self.rule_id,
            "severity": self.severity.value,
            "message": self.message,
        }
        if self.tid is not None:
            out["tid"] = self.tid
        if self.obj is not None:
            out["object"] = str(self.obj)
        if self.source is not None:
            out["file"] = self.source.file
            out["line"] = self.source.line
            if self.source.function:
                out["function"] = self.source.function
        if self.event_index is not None:
            out["event_index"] = self.event_index
        if self.related:
            out["related"] = [site.to_dict() for site in self.related]
        out["fingerprint"] = self.fingerprint()
        if self.witness is not None:
            out["witness"] = self.witness
        if self.manifests is not None:
            out["manifests"] = list(self.manifests)
        return out


@dataclass
class LintReport:
    """The result of one lint run over one trace."""

    program: str
    findings: List[Finding] = field(default_factory=list)
    rules_run: Tuple[str, ...] = ()

    def __len__(self) -> int:
        return len(self.findings)

    def __iter__(self):
        return iter(self.findings)

    def counts_by_severity(self) -> Dict[Severity, int]:
        counts = {s: 0 for s in Severity}
        for f in self.findings:
            counts[f.severity] += 1
        return counts

    @property
    def worst(self) -> Optional[Severity]:
        if not self.findings:
            return None
        return max((f.severity for f in self.findings), key=lambda s: s.rank)

    def by_rule(self, rule_id: str) -> List[Finding]:
        return [f for f in self.findings if f.rule_id == rule_id]

    def at_least(self, severity: Severity) -> List[Finding]:
        return [f for f in self.findings if f.severity.rank >= severity.rank]

    def sorted(self) -> "LintReport":
        """Findings ordered worst-first, then by rule id and log position."""
        ordered = sorted(
            self.findings,
            key=lambda f: (
                -f.severity.rank,
                f.rule_id,
                f.event_index if f.event_index is not None else 1 << 62,
            ),
        )
        return LintReport(self.program, ordered, self.rules_run)

    def summary(self) -> str:
        counts = self.counts_by_severity()
        parts = [
            f"{counts[s]} {s.value}{'s' if counts[s] != 1 else ''}"
            for s in (Severity.ERROR, Severity.WARNING, Severity.NOTE)
            if counts[s]
        ]
        body = ", ".join(parts) if parts else "no findings"
        return f"{self.program}: {body} ({len(self.rules_run)} rules run)"

    def to_dict(self) -> Dict[str, object]:
        return {
            "program": self.program,
            "rules_run": list(self.rules_run),
            "counts": {
                s.value: n for s, n in self.counts_by_severity().items() if n
            },
            "findings": [f.to_dict() for f in self.sorted().findings],
        }
