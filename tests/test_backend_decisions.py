"""Backend decisions, pinned as timelines on hand-built LWPs.

These tests drive the scheduler mechanism directly with hand-built LWPs
of chosen ``rt``, ``kernel_priority`` and ``bound_cpu`` and pin what the
backends decide: which LWP lands on which CPU after a dispatch pass,
which running LWP is preempted, the slice each placement is granted, and
whether an LWP yields on expiry.  The scenarios set up states a replay
reaches only by chance: a pinned candidate behind a busy CPU while
another CPU idles, a fair sleeper returning with bounded credit, RT LWPs
of several priorities arriving while timeshare LWPs round-robin.

As in every replay, a time-sharing LWP under ``cfs`` and ``clutch``
stays at the dispatch table's initial level, 29: those backends run
every fair LWP at one weight and every timeshare LWP in one bucket
(``tests/test_sched_backends.py::TestTimeshareLevel`` checks that
premise on replays).  Only the Solaris scenario sets a TS priority.

Each scenario is recorded as a timeline: one entry per instant at which
the occupancy of the CPUs or an armed quantum expiry changed, written
``"<time>: <cpu0> <cpu1> ..."``.  A CPU shows ``-`` when idle, else
``<lwp>@<expiry>`` with the absolute time its quantum timer fires, or
``<lwp>@~`` while the tick is parked (an uncontended tickless slice).
"""

from __future__ import annotations

import contextlib
from typing import Dict, List, Optional

import pytest

from repro import SimConfig
from repro.core.engine import Engine
from repro.core.ids import LwpId, ThreadId
from repro.core.result import ResultBuilder
from repro.sched.base import TICKLESS_SLICE_US
from repro.solaris.lwp import LwpState, SimLwp
from repro.solaris.scheduler import Scheduler
from repro.solaris.thread_model import SimThread

#: every burst outlasts the scenarios, so LWPs leave CPUs only by
#: preemption, expiry or an explicit block
WORK_US = 10**9


class Rig:
    """A scheduler with hand-built bound LWPs and a timeline recorder."""

    def __init__(self, scheduler: str, cpus: int, **config):
        self.engine = Engine()
        self.config = SimConfig(cpus=cpus, scheduler=scheduler, **config)
        self.sched = Scheduler(self.engine, self.config, ResultBuilder(self.config), self)
        self.threads: Dict[str, SimThread] = {}
        self.names: Dict[int, str] = {}
        self.timeline: List[str] = []
        self._last: Optional[str] = None

    # -- SchedulerListener, and every thread's burst_action -----------

    def need_step(self, thread: SimThread) -> None:
        self.sched.begin_burst(thread, WORK_US)

    @staticmethod
    def burst_complete() -> None:  # pragma: no cover
        raise AssertionError("bursts outlast every scenario")

    # -- driving -------------------------------------------------------

    def add(self, name: str, *, priority: int = 29, rt: bool = False,
            cpu: Optional[int] = None) -> None:
        """A new LWP (with its bound thread) enters the run queue now."""
        tid = len(self.threads) + 2
        thread = SimThread(tid=ThreadId(tid), func_name=name, bound=True, bound_cpu=cpu)
        thread.burst_action = self.burst_complete
        lwp = SimLwp(lwp_id=LwpId(tid), dedicated=True, kernel_priority=priority,
                     rt=rt, bound_cpu=cpu)
        lwp.thread, thread.lwp = thread, lwp
        lwp.state = LwpState.SLEEPING
        self.sched.lwps.append(lwp)
        self.threads[name] = thread
        self.names[tid] = name
        self.sched.make_runnable(thread)
        self._record()

    def block(self, name: str) -> None:
        """The LWP's running thread blocks now (its burst is kept)."""
        thread = self.threads[name]
        self.sched._save_burst_remainder(thread)
        self.sched.block_current(thread)
        self._record()

    def block_on(self, cpu: int) -> str:
        """Block whichever LWP runs on *cpu*; returns its name."""
        name = self.names[int(self.sched.cpus[cpu].lwp.lwp_id)]
        self.block(name)
        return name

    @contextlib.contextmanager
    def atomic(self):
        """Apply several changes as one operation: one dispatch after."""
        self.sched.begin_atomic()
        yield
        self.sched.end_atomic()
        self._record()

    def wake(self, name: str) -> None:
        self.sched.make_runnable(self.threads[name], boost=True)
        self._record()

    def run_until(self, time_us: int) -> None:
        queue = self.engine.queue
        while True:
            nxt = queue.peek_time()
            if nxt is None or nxt > time_us:
                break
            self.engine.step()
            self._record()
        self.engine.now_us = time_us

    # -- observing -----------------------------------------------------

    def snapshot(self) -> str:
        cells = []
        for cpu in self.sched.cpus:
            lwp = cpu.lwp
            if lwp is None:
                cells.append("-")
                continue
            ev = lwp.quantum_event
            if ev is None or not ev.armed:
                expiry = "none"
            elif ev.time_us - self.engine.now_us >= TICKLESS_SLICE_US // 2:
                expiry = "~"
            else:
                expiry = str(ev.time_us)
            cells.append(f"{self.names[int(lwp.lwp_id)]}@{expiry}")
        return " ".join(cells)

    def _record(self) -> None:
        snap = self.snapshot()
        if snap != self._last:
            self._last = snap
            self.timeline.append(f"{self.engine.now_us}: {snap}")


# ---------------------------------------------------------------------------
# CFS: the RT class above fair LWPs, and a returning sleeper
# ---------------------------------------------------------------------------


def cfs_rt_and_sleeper() -> Rig:
    """Two fair LWPs run; a third arrives and their slices shrink; an
    RT LWP then displaces a fair one and runs until it blocks; a fair
    sleeper returns with bounded credit and wake-preempts."""
    rig = Rig("cfs", 2)
    rig.add("A")
    rig.add("B")
    rig.run_until(3_000)
    rig.add("C")
    rig.run_until(3_500)
    rig.add("R", rt=True, priority=10)
    rig.run_until(9_000)
    rig.block("R")
    rig.run_until(12_000)
    sleeper = rig.block_on(1)
    rig.run_until(30_000)
    rig.wake(sleeper)
    rig.run_until(45_000)
    return rig


CFS_RT_AND_SLEEPER = [
    "0: A@~ -",
    "0: A@~ B@~",
    "3000: A@3750 B@3750",
    "3500: R@103500 B@3750",
    "3750: R@103500 C@5750",
    "5750: R@103500 A@7750",
    "7750: R@103500 B@9750",
    "9000: C@12000 B@9750",
    "9750: C@12000 A@12750",
    "12000: B@15000 A@12750",
    "12000: B@15000 C@~",
    "15000: B@~ C@~",
    "30000: B@30750 A@33000",
    "30750: B@33750 A@33000",
    "33000: B@33750 A@36000",
    "33750: C@36750 A@36000",
    "36000: C@36750 A@39000",
    "36750: B@39750 A@39000",
    "39000: B@39750 C@42000",
    "39750: A@42750 C@42000",
    "42000: A@42750 B@45000",
    "42750: C@45750 B@45000",
    "45000: C@45750 A@48000",
]


# ---------------------------------------------------------------------------
# a pinned candidate whose CPU is busy while another CPU is idle
# ---------------------------------------------------------------------------


def pinned_behind_busy_cpu(scheduler: str) -> Rig:
    """X runs pinned to CPU 0.  A higher-class Y pinned to CPU 0 arrives
    while CPU 1 idles: Y may only displace X.  An unbound U then takes
    the idle CPU, and a second fair Z pinned to CPU 0 queues behind."""
    high = dict(priority=59) if scheduler == "solaris" else dict(rt=True, priority=5)
    rig = Rig(scheduler, 2)
    rig.add("X", cpu=0)
    rig.run_until(5_000)
    rig.add("Y", cpu=0, **high)
    rig.run_until(5_000)
    rig.add("Z", cpu=0)
    rig.add("U")
    rig.run_until(100_000)
    return rig


PINNED_BEHIND_BUSY_CPU = {
    "solaris": [
        "0: X@120000 -",
        "5000: Y@25000 -",
        "5000: Y@25000 U@125000",
        "25000: Y@65000 U@125000",
        "65000: Y@145000 U@125000",
    ],
    "cfs": [
        "0: X@~ -",
        "5000: Y@105000 -",
        "5000: Y@105000 U@~",
    ],
    "clutch": [
        "0: X@~ -",
        "5000: Y@105000 -",
        "5000: Y@105000 U@~",
        ],
}


def cfs_pinned_sleeper() -> Rig:
    """A fair pinned sleeper wakes with credit and wake-preempts the
    LWP on its CPU, although the other CPU is idle."""
    rig = Rig("cfs", 2)
    rig.add("Y", cpu=0)
    rig.run_until(2_000)
    rig.block("Y")
    rig.add("X", cpu=0)
    rig.run_until(9_000)
    rig.wake("Y")
    rig.run_until(20_000)
    return rig


CFS_PINNED_SLEEPER = [
    "0: Y@~ -",
    "2000: - -",
    "2000: X@~ -",
    "9000: Y@12000 -",
    "12000: X@15000 -",
    "15000: Y@18000 -",
    "18000: X@21000 -",
]


def cfs_pinned_slices() -> Rig:
    """Slices count only the contenders that may run on the CPU: two
    queued LWPs pinned to CPU 0 shorten its slice and leave CPU 1's
    tick parked, until an unbound contender reaches both."""
    rig = Rig("cfs", 2)
    rig.add("P0", cpu=0)
    rig.add("P1", cpu=1)
    rig.run_until(1_000)
    rig.add("Q0", cpu=0)
    rig.add("R0", cpu=0)
    rig.run_until(8_000)
    rig.add("U")
    rig.run_until(20_000)
    return rig


CFS_PINNED_SLICES = [
    "0: P0@~ -",
    "0: P0@~ P1@~",
    "1000: P0@3000 P1@~",
    "1000: P0@2000 P1@~",
    "2000: Q0@4000 P1@~",
    "4000: R0@6000 P1@~",
    "6000: P0@8000 P1@~",
    "8000: Q0@10000 P1@~",
    "8000: Q0@10000 U@11000",
    "10000: R0@12000 U@11000",
    "11000: R0@12000 U@14000",
    "12000: P0@14000 U@14000",
    "14000: P0@14000 P1@17000",
    "14000: Q0@15500 P1@17000",
    "15500: R0@17000 P1@17000",
    "17000: R0@17000 U@20000",
    "17000: P0@19000 U@20000",
    "19000: Q0@21000 U@20000",
    "20000: Q0@20750 P1@23000",
]


# ---------------------------------------------------------------------------
# Clutch: FIXPRI above the timeshare bucket
# ---------------------------------------------------------------------------


def clutch_fixpri_over_timeshare() -> Rig:
    """Three timeshare LWPs round-robin on two CPUs.  RT 10 displaces
    one of them and RT 20 the other; RT 5 waits until RT 20 blocks, and
    round-robin resumes once both RT LWPs have blocked."""
    rig = Rig("clutch", 2)
    rig.add("T1")
    rig.add("T2")
    rig.add("T3")
    rig.run_until(20_000)
    rig.add("R10", rt=True, priority=10)
    rig.run_until(25_000)
    rig.add("R20", rt=True, priority=20)
    rig.run_until(30_000)
    rig.add("R5", rt=True, priority=5)
    rig.run_until(40_000)
    rig.block("R20")
    rig.run_until(60_000)
    rig.block("R10")
    rig.run_until(70_000)
    rig.block("R5")
    rig.run_until(90_000)
    return rig


CLUTCH_FIXPRI_OVER_TIMESHARE = [
    "0: T1@~ -",
    "0: T1@~ T2@~",
    "0: T1@6000 T2@6000",
    "6000: T3@12000 T2@6000",
    "6000: T3@12000 T1@12000",
    "12000: T2@18000 T1@12000",
    "12000: T2@18000 T3@18000",
    "18000: T1@24000 T3@18000",
    "18000: T1@24000 T2@24000",
    "20000: R10@120000 T2@24000",
    "24000: R10@120000 T3@30000",
    "25000: R10@120000 R20@125000",
    "40000: R10@120000 R5@140000",
    "60000: T1@66000 R5@140000",
    "66000: T3@72000 R5@140000",
    "70000: T3@72000 T2@76000",
    "72000: T1@78000 T2@76000",
    "76000: T1@78000 T3@82000",
    "78000: T2@84000 T3@82000",
    "82000: T2@84000 T1@88000",
    "84000: T3@90000 T1@88000",
    "88000: T3@90000 T2@94000",
    "90000: T1@96000 T2@94000",
]


# ---------------------------------------------------------------------------


class TestCfsDecisions:
    def test_rt_displaces_fair_then_sleeper_returns(self):
        assert cfs_rt_and_sleeper().timeline == CFS_RT_AND_SLEEPER

    def test_pinned_sleeper_preempts_while_other_cpu_idles(self):
        assert cfs_pinned_sleeper().timeline == CFS_PINNED_SLEEPER

    def test_slices_count_compatible_contenders(self):
        assert cfs_pinned_slices().timeline == CFS_PINNED_SLICES


class TestPinnedCandidates:
    @pytest.mark.parametrize("scheduler", sorted(PINNED_BEHIND_BUSY_CPU))
    def test_pinned_candidate_behind_busy_cpu(self, scheduler):
        assert pinned_behind_busy_cpu(scheduler).timeline == PINNED_BEHIND_BUSY_CPU[scheduler]


class TestClutchDecisions:
    def test_fixpri_over_timeshare_on_two_cpus(self):
        assert clutch_fixpri_over_timeshare().timeline == CLUTCH_FIXPRI_OVER_TIMESHARE


if __name__ == "__main__":
    # print every scenario's timeline (to re-pin after a deliberate change)
    for fn in (cfs_rt_and_sleeper, cfs_pinned_sleeper, cfs_pinned_slices,
               clutch_fixpri_over_timeshare):
        print(fn.__name__, fn().timeline)
    for s in sorted(PINNED_BEHIND_BUSY_CPU):
        print("pinned", s, pinned_behind_busy_cpu(s).timeline)
