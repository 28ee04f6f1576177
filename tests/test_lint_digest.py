"""Golden lint digest: the lint verdicts on the CI lint gate's traces.

``test_replay_digest.py`` pins what every backend replays and
``test_analytic_digest.py`` what the analytic tier answers.  This file
pins what the trace lint concludes:

* ``run_lint`` over the lint gate's traces (fft, lu, prodcons and
  prodcons-tuned at scale 0.05, and prodcons-racy), recorded with fixed
  seeds, and over the recorded deadlock log of ``tests/test_watchdog.py``.
  For each finding: rule id, severity, thread, object, event index,
  fingerprint, the related sites (label, thread, event index) and the
  witness digest;
* ``whatif_lint`` on the racy trace over cpus {1, 2, 4} x every backend,
  with each finding's ``manifests`` (the grid cells where the hazard
  showed up in replay).

Fingerprints and labels name source sites as ``basename:line``, so
they are stored verbatim and the file is the same from any checkout
path; ``test_fingerprints_do_not_depend_on_the_checkout_path`` checks
that on a log whose paths are moved to another directory.

The file is stamped with ``LINT_VERSION``, ``ENGINE_VERSION`` and every
backend's ``version``, the constants that key the lint results in the
cache.  A verdict that moves while the stamps match is a behaviour
change without a version bump, which would serve stale cached verdicts;
a moved stamp means the digest must be regenerated.

Regenerate with:  PYTHONPATH=src:. python tests/test_lint_digest.py
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

import repro
from repro import record_program
from repro.analysis.lint import run_lint, whatif_lint
from repro.jobs import JobEngine
from repro.jobs.fingerprint import LINT_VERSION
from repro.jobs.manifest import SweepManifest
from repro.recorder import logfile
from repro.sched import available_backends
from repro.workloads import get_workload

from tests.test_replay_digest import stamps as replay_stamps
from tests.test_watchdog import DEADLOCK_LOG

GOLDEN = Path(__file__).parent / "golden" / "lint_digest.json"

#: the lint gate's recordings: (workload, threads, scale)
TRACES = (
    ("fft", 4, 0.05),
    ("lu", 4, 0.05),
    ("prodcons", 4, 0.05),
    ("prodcons-tuned", 4, 0.05),
    ("prodcons-racy", 4, 0.1),
)
SEED = 0
#: the trace the what-if grid probes, and the grid's CPU counts
WHATIF_TRACE = "prodcons-racy"
WHATIF_CPUS = (1, 2, 4)
#: the directory source locations sit under, on this checkout
_SRC = str(Path(repro.__file__).parents[1])


def stamps() -> Dict[str, object]:
    return {**replay_stamps(), "lint_version": LINT_VERSION}


def record(name: str, threads: int, scale: float):
    program = get_workload(name).make_program(threads, scale, seed=SEED)
    return record_program(program).trace


def verdict(finding) -> Dict[str, object]:
    """A finding's golden entry."""
    out: Dict[str, object] = {
        "rule_id": finding.rule_id,
        "severity": finding.severity.value,
        "tid": finding.tid,
        "object": None if finding.obj is None else str(finding.obj),
        "event_index": finding.event_index,
        "fingerprint": finding.fingerprint(),
        "related": [
            {
                "label": site.label,
                "tid": site.tid,
                "event_index": site.event_index,
            }
            for site in finding.related
        ],
        "witness": None if finding.witness is None else finding.witness["digest"],
    }
    if finding.manifests is not None:
        out["manifests"] = list(finding.manifests)
    return out


def lint_all() -> Dict[str, List[Dict[str, object]]]:
    """Every trace's lint verdicts, and the racy trace's what-if grid."""
    traces = {name: record(name, threads, scale) for name, threads, scale in TRACES}
    traces["deadlock-log"] = logfile.loads(DEADLOCK_LOG)
    out = {name: [verdict(f) for f in run_lint(trace)] for name, trace in traces.items()}
    manifest = SweepManifest.from_dict({
        "trace": "x.log",
        "cpus": list(WHATIF_CPUS),
        "schedulers": available_backends(),
    })
    whatif = whatif_lint(
        traces[WHATIF_TRACE], manifest, engine=JobEngine(mode="inline"), use_cache=False
    )
    out[f"whatif/{WHATIF_TRACE}"] = [verdict(f) for f in whatif.report]
    return out


class TestLintDigest:
    def test_every_verdict_matches_the_golden_digest(self):
        golden = json.loads(GOLDEN.read_text())
        now = stamps()
        stamped = {key: golden[key] for key in now}
        assert stamped == now, (
            f"version stamps moved ({stamped} -> {now}): regenerate the "
            "digest with `PYTHONPATH=src:. python tests/test_lint_digest.py`"
        )
        answers = lint_all()
        assert sorted(answers) == sorted(golden["traces"]), (
            "the trace set changed: regenerate with "
            "`PYTHONPATH=src:. python tests/test_lint_digest.py`"
        )
        moved = [
            f"{name}: {golden['traces'][name]} -> {got}"
            for name, got in answers.items()
            if got != golden["traces"][name]
        ]
        assert not moved, (
            f"lint verdicts changed without a version bump on {len(moved)} of "
            f"{len(answers)} traces (bump LINT_VERSION, ENGINE_VERSION or the "
            "backend's version, then regenerate): " + "; ".join(moved)
        )

    def test_fingerprints_do_not_depend_on_the_checkout_path(self):
        """The same recording, its source paths moved to another
        checkout directory, lints to the same fingerprints and labels
        (so ``--baseline`` files carry across machines)."""
        text = logfile.dumps(record(WHATIF_TRACE, 4, 0.1))
        assert _SRC in text
        moved = logfile.loads(text.replace(_SRC, "/elsewhere/checkout/src"))

        def ids(trace):
            return [
                (f.fingerprint(), [site.label for site in f.related])
                for f in run_lint(trace)
            ]

        here = ids(logfile.loads(text))
        assert here and ids(moved) == here
        assert not any(_SRC in label for _, labels in here for label in labels)


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({**stamps(), "traces": lint_all()}, indent=1, sort_keys=True) + "\n"
    )
    print(f"wrote {GOLDEN}")
