"""Golden live digest: what the Recorder run and the ground-truth runs answer.

``test_replay_digest.py`` pins the simulator's prediction role.  This
file pins its other two roles from the paper's figure 1, both of which
run live programs:

* ``record/...``: the monitored uni-processor run.  For every workload
  at 8 threads, scale 0.05, seed 0, with probe overheads of 0 and 15 µs,
  and for ten ``random_program`` seeds at 0 and 3 µs, it stores the
  sha256 of the log ``record_program`` writes (``logfile.dumps``);
* ``run/...``: the ground-truth multiprocessor runs,
  ``Simulator(config, perturb=..., strict=False).run_program``, of the
  same programs under every backend at 2 and 4 CPUs, noise-free and
  under ``PerturbationModel(1)``, plus one all-bound and one ``lwps=2``
  configuration at 4 CPUs.  Each stores the makespan, the engine event
  count, the replay digest's timeline hash and any
  :class:`~repro.core.result.Incompleteness` (a live deadlock pins its
  blocked threads and blocking cycle).

A log names the source line of every call by its absolute path; the
hash cuts each to ``basename:line``, as lint fingerprints do, so the
digest is the same from any checkout path.

The file carries the same stamps as the replay digest (``ENGINE_VERSION``
and every backend's ``version``).  A cell that moves while the stamps
match is a behaviour change; a moved stamp means the digest must be
regenerated.

Regenerate with:  PYTHONPATH=src:. python tests/test_live_digest.py
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from repro import SimConfig, record_program
from repro.core.config import ThreadPolicy
from repro.core.simulator import Simulator
from repro.program.mpexec import PerturbationModel
from repro.program.program import Program
from repro.recorder import logfile
from repro.sched import available_backends
from repro.workloads import get_workload
from repro.workloads.synthetic import random_program

from tests.test_replay_digest import answer, stamps

GOLDEN = Path(__file__).parent / "golden" / "live_digest.json"

WORKLOADS = (
    "prodcons", "fft", "lu", "ocean", "radix", "water",
    "prodcons-racy", "prodcons-tuned",
)
THREADS = 8
SCALE = 0.05
SEED = 0
WORKLOAD_OVERHEADS = (0, 15)
RANDOM_SEEDS = tuple(range(10))
RANDOM_OVERHEADS = (0, 3)
#: programs whose ground-truth runs are pinned.  lu's runs take ~0.3 s
#: each, and fft's under ``cfs`` ~0.2 s (its 8 threads are sliced into
#: 8k-12k events on 2-4 CPUs); their recordings run both live.
RUN_PROGRAMS = (
    "prodcons", "ocean", "radix", "water", "prodcons-racy", "prodcons-tuned",
    "random-0", "random-1", "random-2",
)
RUN_CPUS = (2, 4)
NOISE_SEED = 1

#: a log's ``src=<path>|<line>|<function>`` token
_SRC = re.compile(r"src=(?:[^ |]*/)?([^ /|]*)\|(\d+)\|[^ \n]*")

Source = Tuple[str, Callable[[], Program], Tuple[int, ...]]


def sources() -> List[Source]:
    """``(label, program factory, probe overheads)``, in a fixed order."""
    out: List[Source] = [
        (name, lambda name=name: get_workload(name).make_program(THREADS, SCALE, seed=SEED),
         WORKLOAD_OVERHEADS)
        for name in WORKLOADS
    ]
    out += [
        (f"random-{seed}", lambda seed=seed: random_program(seed), RANDOM_OVERHEADS)
        for seed in RANDOM_SEEDS
    ]
    return out


def path_free(log_text: str) -> str:
    """*log_text* with every source site cut to ``basename:line``."""
    return _SRC.sub(r"src=\1:\2", log_text)


def log_digest(trace) -> str:
    return hashlib.sha256(path_free(logfile.dumps(trace)).encode()).hexdigest()


def run_configs(tids: List[int]) -> List[Tuple[str, SimConfig, bool]]:
    """``(label, config, noisy)`` of every ground-truth run of a program."""
    bound = {t: ThreadPolicy(bound=True) for t in tids}
    out = []
    for backend in available_backends():
        out += [
            (f"{cpus}cpu{'/noise' if noisy else ''}/{backend}",
             SimConfig(cpus=cpus, scheduler=backend), noisy)
            for cpus in RUN_CPUS
            for noisy in (False, True)
        ]
        out.append((f"4cpu/bound/{backend}",
                    SimConfig(cpus=4, scheduler=backend, thread_policies=bound), False))
        out.append((f"4cpu/lwps=2/{backend}",
                    SimConfig(cpus=4, lwps=2, scheduler=backend), False))
    return out


def live_all() -> Dict[str, Dict[str, object]]:
    out: Dict[str, Dict[str, object]] = {}
    for label, make, overheads in sources():
        for overhead in overheads:
            trace = record_program(make(), overhead_us=overhead).trace
            out[f"record/{label}/overhead={overhead}us"] = {"sha256": log_digest(trace)}
        if label not in RUN_PROGRAMS:
            continue
        tids = sorted(int(t) for t in trace.thread_ids())
        for config_label, config, noisy in run_configs(tids):
            perturb = PerturbationModel(NOISE_SEED) if noisy else None
            result = Simulator(config, perturb=perturb, strict=False).run_program(make())
            out[f"run/{label}/{config_label}"] = answer(result)
    return out


class TestLiveDigest:
    def test_every_cell_matches_the_golden_digest(self):
        golden = json.loads(GOLDEN.read_text())
        now = stamps()
        stamped = {key: golden[key] for key in now}
        assert stamped == now, (
            f"version stamps moved ({stamped} -> {now}): regenerate the "
            "digest with `PYTHONPATH=src:. python tests/test_live_digest.py`"
        )
        answers = live_all()
        assert sorted(answers) == sorted(golden["cells"]), (
            "the cells changed: regenerate with "
            "`PYTHONPATH=src:. python tests/test_live_digest.py`"
        )
        moved = [
            f"{label}: {golden['cells'][label]} -> {got}"
            for label, got in answers.items()
            if got != golden["cells"][label]
        ]
        assert not moved, (
            f"live behaviour changed in {len(moved)} of {len(answers)} "
            "cells: " + "; ".join(moved[:5])
        )

    def test_log_digest_ignores_checkout_paths(self):
        trace = record_program(random_program(0)).trace
        text = logfile.dumps(trace)
        moved = text.replace("src=/", "src=/elsewhere/")
        assert moved != text
        assert path_free(moved) == path_free(text)
        assert "src=synthetic.py:" in path_free(text)


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({**stamps(), "cells": live_all()}, indent=1, sort_keys=True) + "\n"
    )
    print(f"wrote {GOLDEN}")
