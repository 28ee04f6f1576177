"""Golden analytic digest: the analytic tier's answer on the replay digest's grid.

``test_replay_digest.py`` pins what every backend replays on a fixed
grid.  This file pins what the analytic tier answers on the same 195
cells: each cell's calibrated ``[lo, hi]`` makespan interval and point
estimate, from ``run_grid(tier="analytic")`` with the committed
``profiles/analytic.json``, plus each workload's uniprocessor baseline
and a sha256 over its extracted ``TraceStats``.  The stats' own
fingerprint covers the trace fingerprint, which hashes source
locations; the digest's hash leaves that field out, so the file is the
same from any checkout path.

The file is stamped with ``ANALYTIC_VERSION``, ``STATS_VERSION``,
``ENGINE_VERSION``, every backend's ``version`` and the profile's
fingerprint: the inputs of every analytic cache address.  A cell that
moves while the stamps match is a behaviour change without a version
bump, which would serve stale cached answers; a moved stamp means the
digest must be regenerated.

Regenerate with:  PYTHONPATH=src:. python tests/test_analytic_digest.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict

from repro.analytic import STATS_VERSION, AnalyticProfile, extract_stats
from repro.jobs import JobEngine, TraceRef
from repro.jobs.fingerprint import ANALYTIC_VERSION
from repro.jobs.manifest import GridCell, run_grid

from tests.test_replay_digest import WORKLOADS, record, workload_cells
from tests.test_replay_digest import stamps as replay_stamps

GOLDEN = Path(__file__).parent / "golden" / "analytic_digest.json"
PROFILE = Path(__file__).parents[1] / "profiles" / "analytic.json"


def stamps() -> Dict[str, object]:
    return {
        **replay_stamps(),
        "analytic_version": ANALYTIC_VERSION,
        "stats_version": STATS_VERSION,
        "profile": AnalyticProfile.load(PROFILE).fingerprint(),
    }


def stats_sha256(stats) -> str:
    """sha256 over the extracted stats, the trace fingerprint aside."""
    data = stats.to_dict()
    del data["trace_fingerprint"]
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


def estimate_all() -> Dict[str, Dict[str, object]]:
    """Every workload's baseline and stats hash, every cell's interval."""
    profile = AnalyticProfile.load(PROFILE)
    engine = JobEngine(mode="inline")
    workloads, cells = {}, {}
    for name in WORKLOADS:
        trace = record(name)
        grid = run_grid(
            engine,
            TraceRef.from_trace(trace),
            [
                GridCell(
                    label=label,
                    group=label,
                    cpus=config.cpus,
                    binding="bound" if config.thread_policies else "unbound",
                    config=config,
                )
                for label, config in workload_cells(name, trace)
            ],
            tier="analytic",
            trace=trace,
            analytic_profile=profile,
            use_cache=False,
        )
        unanswered = [s.label for s in grid.scenarios if not s.outcome.complete]
        assert not unanswered, f"no analytic answer for {unanswered}"
        stats = extract_stats(trace)
        stats_fps = {s.outcome.payload["stats_fingerprint"] for s in grid.scenarios}
        assert stats_fps == {stats.fingerprint()}, stats_fps
        workloads[name] = {
            "baseline_us": grid.baseline_us,
            "stats_sha256": stats_sha256(stats),
        }
        for s in grid.scenarios:
            lo, hi = s.interval
            cells[s.label] = {"lo_us": lo, "hi_us": hi, "point_us": s.outcome.makespan_us}
    return {"workloads": workloads, "cells": cells}


class TestAnalyticDigest:
    def test_every_cell_matches_the_golden_digest(self):
        golden = json.loads(GOLDEN.read_text())
        now = stamps()
        stamped = {key: golden[key] for key in now}
        assert stamped == now, (
            f"version stamps moved ({stamped} -> {now}): regenerate the "
            "digest with `PYTHONPATH=src:. python tests/test_analytic_digest.py`"
        )
        answers = estimate_all()
        assert answers["workloads"] == golden["workloads"], (
            "baselines or extracted stats changed without a version bump "
            "(bump ENGINE_VERSION or STATS_VERSION, then regenerate)"
        )
        assert sorted(answers["cells"]) == sorted(golden["cells"]), (
            "the grid changed: regenerate with "
            "`PYTHONPATH=src:. python tests/test_analytic_digest.py`"
        )
        moved = [
            f"{label}: {golden['cells'][label]} -> {got}"
            for label, got in answers["cells"].items()
            if got != golden["cells"][label]
        ]
        assert not moved, (
            f"behaviour changed without a version bump in {len(moved)} of "
            f"{len(answers['cells'])} cells (bump ANALYTIC_VERSION, then "
            "regenerate): " + "; ".join(moved[:5])
        )


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({**stamps(), **estimate_all()}, indent=1, sort_keys=True) + "\n"
    )
    print(f"wrote {GOLDEN}")
