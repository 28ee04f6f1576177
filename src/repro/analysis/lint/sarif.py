"""SARIF 2.1.0 serialisation of a lint report.

Emits the minimal-but-valid shape consumers (GitHub code scanning,
VS Code SARIF viewer) expect: one run, ``tool.driver`` carrying the rule
catalog, one ``result`` per finding with ``ruleId``/``level``/``message``
and physical locations.  Witness sites become ``relatedLocations``; each
result carries a stable ``partialFingerprints`` entry (the same identity
``vppb lint --baseline`` suppresses on), and replayable witness
schedules plus ``--whatif`` manifestation tags ride in ``properties``.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.core.events import SourceLocation

from repro.analysis.lint.engine import all_rules
from repro.analysis.lint.findings import Finding, LintReport, Site

__all__ = ["to_sarif", "sarif_json"]

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)
TOOL_NAME = "vppb-lint"


def _location(
    source: Optional[SourceLocation],
    *,
    message: Optional[str] = None,
    tid: Optional[int] = None,
) -> Optional[Dict[str, object]]:
    if source is None and message is None:
        return None
    out: Dict[str, object] = {}
    if source is not None:
        region: Dict[str, object] = {"startLine": max(1, source.line)}
        out["physicalLocation"] = {
            "artifactLocation": {"uri": source.file},
            "region": region,
        }
        if source.function:
            out["logicalLocations"] = [
                {"name": source.function, "kind": "function"}
            ]
    if message is not None:
        out["message"] = {"text": message}
    if tid is not None:
        out.setdefault("properties", {})["tid"] = tid
    return out


def _result(finding: Finding, rule_index: Dict[str, int]) -> Dict[str, object]:
    result: Dict[str, object] = {
        "ruleId": finding.rule_id,
        "level": finding.severity.value,
        "message": {"text": finding.message},
    }
    if finding.rule_id in rule_index:
        result["ruleIndex"] = rule_index[finding.rule_id]
    loc = _location(finding.source, tid=finding.tid)
    if loc is not None:
        result["locations"] = [loc]
    related: List[Dict[str, object]] = []
    for site in finding.related:
        rel = _location(site.source, message=site.describe(), tid=site.tid)
        if rel is not None:
            related.append(rel)
    if related:
        result["relatedLocations"] = related
    result["partialFingerprints"] = {
        "vppbFingerprint/v2": finding.fingerprint()
    }
    props: Dict[str, object] = {}
    if finding.tid is not None:
        props["tid"] = finding.tid
    if finding.obj is not None:
        props["object"] = str(finding.obj)
    if finding.event_index is not None:
        props["eventIndex"] = finding.event_index
    if finding.witness is not None:
        props["witness"] = finding.witness
    if finding.manifests is not None:
        props["manifests"] = list(finding.manifests)
    if props:
        result["properties"] = props
    return result


def to_sarif(report: LintReport) -> Dict[str, object]:
    """The report as a SARIF 2.1.0 ``log`` object (plain dict)."""
    rules = all_rules()
    rule_index = {r.id: i for i, r in enumerate(rules)}
    driver = {
        "name": TOOL_NAME,
        "informationUri": "https://example.invalid/vppb",
        "rules": [
            {
                "id": r.id,
                "name": type(r).__name__,
                "shortDescription": {"text": r.title},
                "fullDescription": {"text": r.rationale},
                "defaultConfiguration": {"level": r.severity.value},
            }
            for r in rules
        ],
    }
    run = {
        "tool": {"driver": driver},
        "results": [
            _result(f, rule_index) for f in report.sorted().findings
        ],
        "properties": {
            "program": report.program,
            "rulesRun": list(report.rules_run),
        },
    }
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [run],
    }


def sarif_json(report: LintReport, *, indent: int = 2) -> str:
    return json.dumps(to_sarif(report), indent=indent, sort_keys=False)
