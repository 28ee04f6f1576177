"""Identity replay: replaying a recording on the machine it was recorded
on reproduces the recorded run.

The Recorder runs a program on ``uniprocessor_config()`` (one CPU, one
LWP); replaying its log on that same configuration must give back the
recorded span.  It does not, quite: the replay's makespan exceeds the
span by ``thread_switch_us`` for every user-level thread switch.  The
recording charges a switch into the incoming thread's next burst, so
the recorded gap before that thread's next call, which the plan turns
into work, already holds it, and the replay charges the same switch
again (``docs/robustness.md``, "Identity replay").

``tests/golden/identity_drift.json`` pins that drift in µs for the six
digest workloads (8 threads, scale 0.05, seed 0) at probe overhead 0
and the default, and for seeded ``random_program`` runs at overhead 0
and 3.  It is stamped with ``ENGINE_VERSION``: a drift that moves under
the same stamp is a replay change without a version bump.  The drift
must never be negative (a replay faster than the recording), and with
the switch cost set to zero it must vanish.

Regenerate with:  PYTHONPATH=src:. python tests/test_identity_replay.py
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Dict, Optional

import pytest

from repro import SimConfig, record_program
from repro.core.predictor import compile_trace
from repro.core.simulator import Simulator
from repro.jobs.fingerprint import ENGINE_VERSION
from repro.program.uniexec import uniprocessor_config
from repro.recorder.recorder import DEFAULT_PROBE_OVERHEAD_US
from repro.workloads import get_workload
from repro.workloads.synthetic import random_program

GOLDEN = Path(__file__).parent / "golden" / "identity_drift.json"

WORKLOADS = ("prodcons", "fft", "lu", "ocean", "radix", "water")
THREADS = 8
SCALE = 0.05
SEED = 0
WORKLOAD_OVERHEADS = (0, DEFAULT_PROBE_OVERHEAD_US)
RANDOM_SEEDS = range(24)
RANDOM_OVERHEADS = (0, 3)


def programs():
    """Every ``(label, program, probe overhead)``, in a fixed order."""
    for name in WORKLOADS:
        program = get_workload(name).make_program(THREADS, SCALE, seed=SEED)
        for overhead in WORKLOAD_OVERHEADS:
            yield f"{name}/overhead={overhead}", program, overhead
    for seed in RANDOM_SEEDS:
        program = random_program(seed, nthreads=4, steps=10)
        for overhead in RANDOM_OVERHEADS:
            yield f"random-{seed}/overhead={overhead}", program, overhead


def drift_us(program, overhead: int, base: Optional[SimConfig] = None) -> int:
    """Identity-replay makespan minus the recorded span, in µs."""
    trace = record_program(program, overhead_us=overhead, base_config=base).trace
    result = Simulator(uniprocessor_config(base)).run_replay(compile_trace(trace))
    return result.makespan_us - trace.duration_us


def drift_all() -> Dict[str, int]:
    return {label: drift_us(p, overhead) for label, p, overhead in programs()}


class TestIdentityReplay:
    def test_drift_matches_the_golden_file(self):
        golden = json.loads(GOLDEN.read_text())
        assert golden["engine_version"] == ENGINE_VERSION, (
            "ENGINE_VERSION moved: regenerate with "
            "`PYTHONPATH=src:. python tests/test_identity_replay.py`"
        )
        drift = drift_all()
        assert min(drift.values()) >= 0, {k: v for k, v in drift.items() if v < 0}
        assert drift == golden["drift_us"]

    @pytest.mark.parametrize("name", ["ocean", "lu", "water"])
    def test_no_drift_without_a_switch_cost(self, name):
        """The double-charged user-level switch is the whole drift."""
        base = SimConfig()
        base = dataclasses.replace(
            base, costs=dataclasses.replace(base.costs, thread_switch_us=0)
        )
        program = get_workload(name).make_program(THREADS, SCALE, seed=SEED)
        assert drift_us(program, 0) > 0
        assert drift_us(program, 0, base) == 0


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps(
            {"engine_version": ENGINE_VERSION, "drift_us": drift_all()},
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {GOLDEN}")
