"""Golden replay digest: what every scheduler backend answers on a fixed grid.

``test_golden_predictions.py`` pins ten Solaris speed-ups.  This file
pins whole replays under every backend: for each cell of a fixed grid
(workload x CPUs x binding x scheduler, plus RT, pinned, LWP-limited,
comm-delay and no-slicing cells per backend) it stores the makespan,
the engine event count and a sha256 over the segments, placed events,
thread summaries and per-CPU busy time.  Source locations are left out
of the hash, so the digest is the same from any checkout path.

Six more sets of cells reach what the grid does not:

* ``xos/...``: every workload at 5-7 CPUs, unbound and bound, under
  every backend: 8 threads partly oversubscribe those machines, so CPUs
  differ in how many queued contenders may run on them, and the
  tickless backends slice some CPUs while others run untimed;
* ``rt/...``: RT threads under ``cfs`` and ``clutch``, on water, ocean
  and fft at 1-3 CPUs with and without an LWP limit: two RT priorities
  unbound, and those two beside an RT and a time-sharing thread pinned
  to CPU 0.  They pin the RT class's victim search and its place above
  the fair and timeshare LWPs on real replays;
* ``lwp/...``: water and ocean at 1, 2 and 4 CPUs under every backend
  with a kernel context-switch cost (``CostModel(lwp_switch_us=50)``,
  the §6 extension).  Every LWP change on a processor charges it, so
  every time-slice rotation does;
* ``pin/...``: water and ocean with two workers pinned to CPU 1, at 2
  and 3 CPUs under ``cfs`` and ``clutch``: quantum expiries whose queue
  head may not run on the CPU the expiry frees;
* ``fixture/...``: the small test programs (prodcons, barrier, mutex,
  fig. 2, SPLASH-2 models at 2-4 threads) across every configuration
  knob and backend, clock-skewed and stalled plans, and runs that end
  early (lost wake-ups, a recorded deadlock, event and simulated-time
  watchdog budgets);
* ``stress/...``: the fixtures of :mod:`repro.sched.stress_parity` at
  its tier-1 scale, on 2 CPUs under every backend.

Every cell replays with ``strict=False``; a run that ends early also
pins its :class:`~repro.core.result.Incompleteness` (status, reason,
blocked threads, blocking cycle, divergence thread and time).

The file is stamped with ``ENGINE_VERSION`` and every backend's
``version``, the constants that key the result cache.  A cell that
moves while the stamps match is a behaviour change without a version
bump, which would serve stale cached answers; a moved stamp means the
digest must be regenerated.

Regenerate with:  PYTHONPATH=src:. python tests/test_replay_digest.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro import SimConfig, record_program
from repro.core.config import ThreadPolicy
from repro.core.engine import Watchdog
from repro.core.predictor import ReplayPlan, compile_trace
from repro.core.simulator import Simulator
from repro.faultinject import drop_wakeups, skew_clock, stall_threads
from repro.jobs.fingerprint import ENGINE_VERSION
from repro.recorder import logfile
from repro.sched import available_backends, backend_version
from repro.sched.stress_parity import _fixtures as stress_fixtures
from repro.solaris.costs import CostModel
from repro.workloads import get_workload

from tests.conftest import (
    make_barrier_program,
    make_fig2_program,
    make_mutex_program,
    make_prodcons_program,
)
from tests.test_watchdog import DEADLOCK_LOG

GOLDEN = Path(__file__).parent / "golden" / "replay_digest.json"

WORKLOADS = ("prodcons", "fft", "lu", "ocean", "radix", "water")
THREADS = 8
SCALE = 0.05
SEED = 0
CPUS = (1, 2, 3, 4, 8)
#: partly oversubscribed CPU counts the ``xos/...`` cells replay
XOS_CPUS = (5, 6, 7)
#: workload the per-backend policy cells replay
POLICY_WORKLOAD = "water"
#: SPLASH-2 models the fixture cells replay at few threads and small scales
FIXTURE_MODELS = (
    ("prodcons", 4, 0.05),
    ("fft", 4, 0.05),
    ("lu", 2, 0.02),
    ("radix", 4, 0.05),
    ("water", 2, 0.02),
    ("ocean", 2, 0.02),
)
#: workloads the ``rt/...`` cells replay, and their CPU counts
RT_WORKLOADS = ("water", "ocean", "fft")
RT_CPUS = (1, 2, 3)
#: workloads the ``lwp/...`` and ``pin/...`` cells replay, and their CPU counts
ROTATION_WORKLOADS = ("ocean", "water")
LWP_SWITCH_CPUS = (1, 2, 4)
PIN_CPUS = (2, 3)
#: scale and CPU count of the stress harness's tier-1 run
STRESS_SCALE = 0.15
STRESS_CPUS = 2

Cell = Tuple[str, ReplayPlan, SimConfig, Optional[Watchdog]]


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


def _grid(trace, cpu_counts) -> List[Tuple[str, SimConfig]]:
    """``cpu_counts`` x unbound/bound configurations of *trace*."""
    tids = sorted(int(t) for t in trace.thread_ids())
    bound = {t: ThreadPolicy(bound=True) for t in tids}
    return [
        (f"{cpus}cpu/{binding}", SimConfig(
            cpus=cpus, thread_policies=bound if binding == "bound" else {}
        ))
        for cpus in cpu_counts
        for binding in ("unbound", "bound")
    ]


def workload_cells(name: str, trace) -> List[Tuple[str, SimConfig]]:
    """Workload *name*'s ``(label, config)`` cells, in a fixed order."""
    tids = sorted(int(t) for t in trace.thread_ids())
    configs = _grid(trace, CPUS)
    if name == POLICY_WORKLOAD:
        configs += _policy_cells(tids)
    return [
        (f"{name}/{label}/{scheduler}", config.with_scheduler(scheduler))
        for scheduler in available_backends()
        for label, config in configs
    ]


def xos_cells(name: str, trace) -> List[Tuple[str, SimConfig]]:
    """Workload *name* on the partly oversubscribed machines."""
    return [
        (f"xos/{name}/{label}/{scheduler}", config.with_scheduler(scheduler))
        for scheduler in available_backends()
        for label, config in _grid(trace, XOS_CPUS)
    ]


def rt_cells(name: str, trace) -> List[Tuple[str, SimConfig]]:
    """Workload *name*'s RT cells under the fair and timeshare backends."""
    workers = [t for t in sorted(int(t) for t in trace.thread_ids()) if t != 1]
    rt = {workers[0]: ThreadPolicy(rt_priority=10), workers[1]: ThreadPolicy(rt_priority=20)}
    pinned = {**rt, workers[2]: ThreadPolicy(rt_priority=5, cpu=0),
              workers[3]: ThreadPolicy(cpu=0)}
    return [
        (f"rt/{name}/{label}/{cpus}cpu{limit}/{scheduler}",
         SimConfig(cpus=cpus, lwps=lwps, scheduler=scheduler, thread_policies=policies))
        for scheduler in ("cfs", "clutch")
        for label, policies in (("rt10+rt20", rt), ("rt10+rt20+pinned", pinned))
        for cpus in RT_CPUS
        for lwps, limit in ((None, ""), (2, "/lwps=2"))
    ]


def rotation_cells(name: str, trace) -> List[Tuple[str, SimConfig]]:
    """Workload *name* with a kernel context-switch cost, and with two
    workers pinned to CPU 1."""
    workers = [t for t in sorted(int(t) for t in trace.thread_ids()) if t != 1]
    switch = CostModel(lwp_switch_us=50)
    pinned = {t: ThreadPolicy(cpu=1) for t in workers[:2]}
    return [
        (f"lwp/{name}/{cpus}cpu/{scheduler}",
         SimConfig(cpus=cpus, costs=switch, scheduler=scheduler))
        for scheduler in available_backends()
        for cpus in LWP_SWITCH_CPUS
    ] + [
        (f"pin/{name}/{cpus}cpu/{scheduler}",
         SimConfig(cpus=cpus, scheduler=scheduler, thread_policies=pinned))
        for scheduler in ("cfs", "clutch")
        for cpus in PIN_CPUS
    ]


def _plan(program) -> ReplayPlan:
    return compile_trace(record_program(program).trace)


def fixture_cells() -> List[Cell]:
    """The small test programs across every knob, perturbed plans and
    runs that end early, in a fixed order."""
    prodcons_trace = record_program(make_prodcons_program()).trace
    prodcons = compile_trace(prodcons_trace)
    barrier = _plan(make_barrier_program())
    mutex = _plan(make_mutex_program())
    rt_t5 = {5: ThreadPolicy(rt_priority=10)}
    cells = [(f"prodcons/{c}cpu", prodcons, SimConfig(cpus=c)) for c in (1, 2, 4)]
    cells += [(f"barrier/{c}cpu", barrier, SimConfig(cpus=c)) for c in (1, 2, 4)]
    cells += [(f"mutex/{c}cpu", mutex, SimConfig(cpus=c)) for c in (1, 3)]
    cells.append(("fig2/2cpu", _plan(make_fig2_program()), SimConfig(cpus=2)))
    for name, nthreads, scale in FIXTURE_MODELS:
        plan = _plan(get_workload(name).make_program(nthreads, scale))
        cells += [
            (f"{name}-{nthreads}t/{c}cpu", plan, SimConfig(cpus=c)) for c in (1, 4)
        ]
    cells += [
        (f"prodcons/{c}cpu/comm={d}us", prodcons, SimConfig(cpus=c, comm_delay_us=d))
        for c in (1, 2)
        for d in (0, 40)
    ]
    cells += [
        ("prodcons/2cpu/bound-T4", prodcons,
         SimConfig(cpus=2, thread_policies={4: ThreadPolicy(bound=True)})),
        ("barrier/2cpu/pinned-T4", barrier,
         SimConfig(cpus=2, thread_policies={4: ThreadPolicy(cpu=1)})),
        ("barrier/2cpu/rt-T5", barrier, SimConfig(cpus=2, thread_policies=rt_t5)),
        ("prodcons/2cpu/lwps=1", prodcons, SimConfig(cpus=2, lwps=1)),
        ("mutex/2cpu/no-slicing", mutex, SimConfig(cpus=2, time_slicing=False)),
    ]
    cells += [
        (f"prodcons/{c}cpu/{s}", prodcons, SimConfig(cpus=c, scheduler=s))
        for s in ("solaris", "clutch", "cfs")
        for c in (1, 2, 4)
    ]
    for s in ("clutch", "cfs"):
        cells += [
            (f"barrier/2cpu/rt-T5/{s}", barrier,
             SimConfig(cpus=2, scheduler=s, thread_policies=rt_t5)),
            (f"prodcons/2cpu/lwps=2,comm=40us/{s}", prodcons,
             SimConfig(cpus=2, lwps=2, comm_delay_us=40, scheduler=s)),
        ]
    cells += [
        ("prodcons-skew/2cpu", skew_clock(prodcons, seed=7, max_skew=0.2),
         SimConfig(cpus=2)),
        ("barrier-stall/2cpu", stall_threads(barrier, seed=3, stall_us=20_000),
         SimConfig(cpus=2)),
        ("prodcons-dropped/2cpu",
         compile_trace(drop_wakeups(prodcons_trace, seed=1, fraction=1.0).trace),
         SimConfig(cpus=2)),
        ("deadlock-log/2cpu", compile_trace(logfile.loads(DEADLOCK_LOG)),
         SimConfig(cpus=2)),
    ]
    out: List[Cell] = [
        (f"fixture/{label}", plan, config, None) for label, plan, config in cells
    ]
    full = Simulator(SimConfig(cpus=2)).run_replay(prodcons).engine_events
    out += [
        (f"fixture/prodcons/2cpu/max-events={f:.0%}", prodcons, SimConfig(cpus=2),
         Watchdog(max_events=int(full * f)))
        for f in (0.25, 0.5, 0.9)
    ]
    out.append(("fixture/barrier/2cpu/max-time=5000us", barrier, SimConfig(cpus=2),
                Watchdog(max_time_us=5_000)))
    return out


def stress_cells() -> List[Cell]:
    """The stress harness's tier-1 run: its fixtures under every backend."""
    return [
        (f"stress/{name}/{STRESS_CPUS}cpu/{backend}", plan,
         SimConfig(cpus=STRESS_CPUS, scheduler=backend), None)
        for name, plan, _ in stress_fixtures(STRESS_SCALE)
        for backend in available_backends()
    ]


def cells() -> List[Cell]:
    """Every ``(label, plan, config, watchdog)``, in a fixed order."""
    out: List[Cell] = []
    for name in WORKLOADS:
        trace = record(name)
        plan = compile_trace(trace)
        configs = workload_cells(name, trace) + xos_cells(name, trace)
        if name in RT_WORKLOADS:
            configs += rt_cells(name, trace)
        if name in ROTATION_WORKLOADS:
            configs += rotation_cells(name, trace)
        out += [(label, plan, config, None) for label, config in configs]
    return out + fixture_cells() + stress_cells()


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


def replay(cell: Cell):
    """Replay one cell, partial results allowed."""
    _, plan, config, watchdog = cell
    return Simulator(config, watchdog=watchdog, strict=False).run_replay(plan)


def answer(result) -> Dict[str, object]:
    """A replay's golden entry."""
    out: Dict[str, object] = {
        "makespan_us": result.makespan_us,
        "engine_events": result.engine_events,
        "sha256": digest(result),
    }
    inc = result.incompleteness
    if inc is not None:
        out["incompleteness"] = {
            "status": inc.status.value,
            "reason": inc.reason,
            "blocked": list(inc.blocked),
            "cycle": list(inc.cycle),
            "divergence_tid": inc.divergence_tid,
            "divergence_us": inc.divergence_us,
        }
    return out


def replay_all() -> Dict[str, Dict[str, object]]:
    return {cell[0]: answer(replay(cell)) for cell in cells()}


class TestReplayDigest:
    def test_every_cell_matches_the_golden_digest(self):
        golden = json.loads(GOLDEN.read_text())
        now = stamps()
        stamped = {key: golden[key] for key in now}
        assert stamped == now, (
            f"version stamps moved ({stamped} -> {now}): regenerate the "
            "digest with `PYTHONPATH=src:. python tests/test_replay_digest.py`"
        )
        answers = replay_all()
        assert sorted(answers) == sorted(golden["cells"]), (
            "the grid changed: regenerate with "
            "`PYTHONPATH=src:. python tests/test_replay_digest.py`"
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
