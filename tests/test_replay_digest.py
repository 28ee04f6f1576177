"""Golden replay digest: what every scheduler backend answers on a fixed grid.

``test_golden_predictions.py`` pins ten Solaris speed-ups.  This file
pins whole replays under every backend: for each cell of a fixed grid
(workload x CPUs x binding x scheduler, plus RT, pinned, LWP-limited,
comm-delay and no-slicing cells per backend) it stores the makespan,
the engine event count and a sha256 over the segments, placed events,
thread summaries and per-CPU busy time.  Source locations are left out
of the hash, so the digest is the same from any checkout path.

The file is stamped with ``ENGINE_VERSION`` and every backend's
``version``, the constants that key the result cache.  A cell that
moves while the stamps match is a behaviour change without a version
bump, which would serve stale cached answers; a moved stamp means the
digest must be regenerated.

Regenerate with:  python tests/test_replay_digest.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Tuple

from repro import SimConfig, record_program
from repro.core.config import ThreadPolicy
from repro.core.predictor import compile_trace
from repro.core.simulator import Simulator
from repro.jobs.fingerprint import ENGINE_VERSION
from repro.sched import available_backends, backend_version
from repro.workloads import get_workload

GOLDEN = Path(__file__).parent / "golden" / "replay_digest.json"

WORKLOADS = ("prodcons", "fft", "lu", "ocean", "radix", "water")
THREADS = 8
SCALE = 0.05
SEED = 0
CPUS = (1, 2, 3, 4, 8)
#: workload the per-backend policy cells replay
POLICY_WORKLOAD = "water"


def stamps() -> Dict[str, object]:
    return {
        "engine_version": ENGINE_VERSION,
        "backends": {name: backend_version(name) for name in available_backends()},
    }


def _policy_cells(tids: List[int]) -> List[Tuple[str, SimConfig]]:
    """The configurations no sweep grid reaches, on one workload."""
    workers = [t for t in tids if t != 1]
    pinned = {t: ThreadPolicy(cpu=i % 4) for i, t in enumerate(workers[::2])}
    return [
        ("rt/2cpu", SimConfig(cpus=2, thread_policies={workers[0]: ThreadPolicy(rt_priority=10)})),
        ("pinned/4cpu", SimConfig(cpus=4, thread_policies=pinned)),
        ("lwps=2/4cpu", SimConfig(cpus=4, lwps=2)),
        ("comm=50us/4cpu", SimConfig(cpus=4, comm_delay_us=50)),
        ("no-slicing/2cpu", SimConfig(cpus=2, time_slicing=False)),
    ]


def record(name: str):
    """The digest's recording of workload *name*."""
    program = get_workload(name).make_program(THREADS, SCALE, seed=SEED)
    return record_program(program).trace


def workload_cells(name: str, trace) -> List[Tuple[str, SimConfig]]:
    """Workload *name*'s ``(label, config)`` cells, in a fixed order."""
    tids = sorted(int(t) for t in trace.thread_ids())
    bound = {t: ThreadPolicy(bound=True) for t in tids}
    configs = [
        (f"{cpus}cpu/{binding}", SimConfig(
            cpus=cpus, thread_policies=bound if binding == "bound" else {}
        ))
        for cpus in CPUS
        for binding in ("unbound", "bound")
    ]
    if name == POLICY_WORKLOAD:
        configs += _policy_cells(tids)
    return [
        (f"{name}/{label}/{scheduler}", config.with_scheduler(scheduler))
        for scheduler in available_backends()
        for label, config in configs
    ]


def cells() -> List[Tuple[str, object, SimConfig]]:
    """Every ``(label, plan, config)`` of the grid, in a fixed order."""
    out = []
    for name in WORKLOADS:
        trace = record(name)
        plan = compile_trace(trace)
        out += [(label, plan, config) for label, config in workload_cells(name, trace)]
    return out


def digest(result) -> str:
    """sha256 over everything a replay answers, source locations aside."""
    h = hashlib.sha256()
    for tid in sorted(result.segments):
        for s in result.segments[tid]:
            h.update(f"s {int(s.tid)} {s.kind.value} {s.start_us} {s.end_us} {s.cpu}\n".encode())
    for e in result.events:
        status = None if e.status is None else e.status.value
        target = None if e.target is None else int(e.target)
        h.update(
            f"e {e.index} {int(e.tid)} {e.primitive.value} {e.start_us} {e.end_us} "
            f"{e.cpu} {e.obj} {target} {status}\n".encode()
        )
    for tid in sorted(result.summaries):
        m = result.summaries[tid]
        h.update(
            f"t {int(m.tid)} {m.func_name} {m.created_at_us} {m.start_us} "
            f"{m.end_us} {m.work_us}\n".encode()
        )
    h.update(f"c {result.cpu_busy_us} {result.status.value}\n".encode())
    return h.hexdigest()


def replay_all() -> Dict[str, Dict[str, object]]:
    answers = {}
    for label, plan, config in cells():
        result = Simulator(config).run_replay(plan)
        answers[label] = {
            "makespan_us": result.makespan_us,
            "engine_events": result.engine_events,
            "sha256": digest(result),
        }
    return answers


class TestReplayDigest:
    def test_every_cell_matches_the_golden_digest(self):
        golden = json.loads(GOLDEN.read_text())
        now = stamps()
        stamped = {key: golden[key] for key in now}
        assert stamped == now, (
            f"version stamps moved ({stamped} -> {now}): regenerate the "
            "digest with `python tests/test_replay_digest.py`"
        )
        answers = replay_all()
        assert sorted(answers) == sorted(golden["cells"]), (
            "the grid changed: regenerate with `python tests/test_replay_digest.py`"
        )
        moved = [
            f"{label}: {golden['cells'][label]} -> {got}"
            for label, got in answers.items()
            if got != golden["cells"][label]
        ]
        assert not moved, (
            f"behaviour changed without a version bump in {len(moved)} of "
            f"{len(answers)} cells (bump ENGINE_VERSION or the backend's "
            "version, then regenerate): " + "; ".join(moved[:5])
        )

    def test_digest_ignores_source_locations(self):
        program = get_workload("prodcons").make_program(2, SCALE, seed=SEED)
        result = Simulator(SimConfig(cpus=2)).run_replay(
            compile_trace(record_program(program).trace)
        )
        assert any(e.source is not None for e in result.events)
        before = digest(result)
        result.events[:] = [e._replace(source=None) for e in result.events]
        assert digest(result) == before


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({**stamps(), "cells": replay_all()}, indent=1, sort_keys=True) + "\n"
    )
    print(f"wrote {GOLDEN}")
