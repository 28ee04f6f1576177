"""Backend decisions on paths no recorded trace reaches.

Under ``cfs`` and ``clutch`` a recorded time-sharing LWP never leaves
kernel priority 29: only the Solaris backend ages priorities.  So every
replayed fair CFS LWP weighs 1024 and every Clutch TS LWP sits in the DF
bucket, and no recorded trace exercises mixed CFS weights, the other
Clutch buckets or warp.  These tests drive the scheduler mechanism
directly with hand-built LWPs of chosen ``kernel_priority``, ``rt`` and
``bound_cpu`` and pin what the backends decide: which LWP lands on which
CPU after a dispatch pass, which running LWP is preempted, the slice
each placement is granted, and whether an LWP yields on expiry.

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

    # -- SchedulerListener ---------------------------------------------

    def need_step(self, thread: SimThread) -> None:
        self.sched.begin_burst(thread, WORK_US)

    def burst_complete(self, thread: SimThread) -> None:  # pragma: no cover
        raise AssertionError("bursts outlast every scenario")

    # -- driving -------------------------------------------------------

    def add(self, name: str, *, priority: int = 29, rt: bool = False,
            cpu: Optional[int] = None) -> None:
        """A new LWP (with its bound thread) enters the run queue now."""
        tid = len(self.threads) + 2
        thread = SimThread(tid=ThreadId(tid), func_name=name, bound=True, bound_cpu=cpu)
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
            armed = self.sched._quantum_events.get(int(lwp.lwp_id))
            if armed is None:
                expiry = "none"
            elif armed[1] - self.engine.now_us >= TICKLESS_SLICE_US // 2:
                expiry = "~"
            else:
                expiry = str(armed[1])
            cells.append(f"{self.names[int(lwp.lwp_id)]}@{expiry}")
        return " ".join(cells)

    def _record(self) -> None:
        snap = self.snapshot()
        if snap != self._last:
            self._last = snap
            self.timeline.append(f"{self.engine.now_us}: {snap}")


# ---------------------------------------------------------------------------
# CFS: mixed weights and the RT class
# ---------------------------------------------------------------------------


def cfs_mixed_weights() -> Rig:
    """Priorities 29 and 0 run; 59 arrives and wake-preempts the
    light LWP; an RT LWP then displaces a fair one; a sleeper returns
    with bounded credit."""
    rig = Rig("cfs", 2)
    rig.add("A", priority=29)
    rig.add("B", priority=0)
    rig.run_until(3_000)
    rig.add("C", priority=59)
    rig.run_until(3_500)
    rig.add("R", rt=True, priority=10)
    rig.run_until(9_000)
    rig.block("R")
    rig.run_until(12_000)
    rig.block("C")
    rig.run_until(30_000)
    rig.wake("C")
    rig.run_until(45_000)
    return rig


CFS_MIXED_WEIGHTS = [
    "0: A@~ -",
    "0: A@~ B@~",
    "3000: A@3750 C@6000",
    "3500: R@103500 C@5000",
    "5000: R@103500 C@7000",
    "7000: R@103500 C@9000",
    "9000: R@103500 C@11000",
    "9000: A@12000 C@11000",
    "11000: A@12000 C@14000",
    "12000: A@15000 C@14000",
    "12000: A@15000 B@~",
    "15000: A@~ B@~",
    "30000: A@30750 C@33000",
    "30750: A@33750 C@33000",
    "33000: A@33750 C@36000",
    "33750: A@36750 C@36000",
    "36000: A@36750 C@39000",
    "36750: A@39750 C@39000",
    "39000: A@39750 C@42000",
    "39750: A@42750 C@42000",
    "42000: A@42750 C@45000",
    "42750: A@45750 C@45000",
    "45000: A@45750 C@48000",
]


def cfs_heavy_behind_light() -> Rig:
    """A light sleeper K queues ahead of a heavy newcomer J (lower
    vruntime), and K's wide wakeup granularity keeps it from
    preempting; J's narrow one lets it displace the LWP furthest
    ahead, although K, searched first, could not."""
    rig = Rig("cfs", 2)
    rig.add("A")
    rig.add("K", priority=10)
    rig.run_until(100)
    rig.block("K")
    rig.run_until(500)
    rig.add("B", priority=30)
    rig.run_until(3_000)
    with rig.atomic():
        rig.wake("K")
        rig.add("J", priority=50)
    rig.run_until(8_000)
    return rig


CFS_HEAVY_BEHIND_LIGHT = [
    "0: A@~ -",
    "0: A@~ K@~",
    "100: A@~ -",
    "500: A@~ B@~",
    "3000: J@5000 B@3750",
    "3750: J@5000 K@5750",
    "5000: J@7000 A@7000",
    "7000: J@9000 B@9000",
]


# ---------------------------------------------------------------------------
# a pinned candidate whose CPU is busy while another CPU is idle
# ---------------------------------------------------------------------------


def pinned_behind_busy_cpu(scheduler: str) -> Rig:
    """X runs pinned to CPU 0.  A higher-class Y pinned to CPU 0 arrives
    while CPU 1 idles: Y may only displace X.  An unbound U then takes
    the idle CPU, and a second fair Z pinned to CPU 0 queues behind."""
    high = {"solaris": dict(priority=59), "cfs": dict(rt=True, priority=5),
            "clutch": dict(priority=50)}[scheduler]
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
        "5000: Y@15000 -",
        "5000: Y@15000 U@~",
        "15000: Y@25000 U@~",
        "25000: Y@35000 U@~",
        "35000: Y@45000 U@~",
        "45000: Y@55000 U@~",
        "55000: Y@65000 U@~",
        "65000: Y@75000 U@~",
        "75000: Y@85000 U@~",
        "85000: X@91000 U@~",
        "91000: Z@97000 U@~",
        "97000: X@103000 U@~",
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
# Clutch: buckets, warp and timeshare decay over several selections
# ---------------------------------------------------------------------------


def clutch_warp() -> Rig:
    """Two DF LWPs round-robin on one CPU.  After the DF deadline has
    passed, an FG LWP arrives in the same operation that frees the CPU:
    it warps ahead of the earlier DF deadline and runs.  With its budget
    spent it no longer warps when it next returns; an IN LWP still can."""
    rig = Rig("clutch", 1)
    rig.add("D1")
    rig.add("D2")
    rig.run_until(80_000)
    with rig.atomic():
        first = rig.block_on(0)
        rig.add("F", priority=50)
    rig.run_until(95_000)
    with rig.atomic():
        rig.block_on(0)
        rig.wake(first)
    rig.run_until(120_000)
    with rig.atomic():
        rig.block_on(0)
        rig.wake("F")
        rig.add("I", priority=40)
    rig.run_until(150_000)
    return rig


CLUTCH_WARP = [
    "0: D1@~",
    "0: D1@6000",
    "6000: D2@12000",
    "12000: D1@18000",
    "18000: D2@24000",
    "24000: D1@30000",
    "30000: D2@36000",
    "36000: D1@42000",
    "42000: D2@48000",
    "48000: D1@54000",
    "54000: D2@60000",
    "60000: D1@66000",
    "66000: D2@72000",
    "72000: D1@78000",
    "78000: D2@84000",
    "80000: -",
    "80000: F@90000",
    "90000: F@100000",
    "95000: -",
    "95000: D1@101000",
    "101000: D2@107000",
    "107000: D1@113000",
    "113000: D2@119000",
    "119000: D1@125000",
    "120000: -",
    "120000: F@130000",
    "130000: F@140000",
    "140000: F@150000",
    "150000: F@160000",
]


def clutch_buckets_two_cpus() -> Rig:
    """Every share bucket plus FIXPRI on two CPUs."""
    rig = Rig("clutch", 2)
    rig.add("B", priority=5)
    rig.add("U", priority=15)
    rig.run_until(10_000)
    rig.add("D", priority=29)
    rig.add("I", priority=40)
    rig.run_until(50_000)
    rig.add("F", priority=55)
    rig.add("R", rt=True, priority=20)
    rig.run_until(120_000)
    return rig


CLUTCH_BUCKETS_TWO_CPUS = [
    "0: B@~ -",
    "0: B@~ U@~",
    "10000: D@16000 U@11000",
    "10000: D@16000 I@18000",
    "16000: D@22000 I@18000",
    "18000: D@22000 I@26000",
    "22000: D@28000 I@26000",
    "26000: D@28000 I@34000",
    "28000: D@34000 I@34000",
    "34000: D@34000 I@42000",
    "34000: D@40000 I@42000",
    "40000: D@46000 I@42000",
    "42000: D@46000 I@50000",
    "46000: D@52000 I@50000",
    "50000: D@52000 I@58000",
    "50000: F@60000 I@58000",
    "50000: F@60000 R@150000",
    "60000: F@70000 R@150000",
    "70000: F@80000 R@150000",
    "80000: F@90000 R@150000",
    "90000: F@100000 R@150000",
    "100000: F@110000 R@150000",
    "110000: F@120000 R@150000",
    "120000: F@130000 R@150000",
]


# ---------------------------------------------------------------------------


class TestCfsDecisions:
    def test_mixed_weights_and_rt(self):
        assert cfs_mixed_weights().timeline == CFS_MIXED_WEIGHTS

    def test_heavy_candidate_behind_a_light_one(self):
        assert cfs_heavy_behind_light().timeline == CFS_HEAVY_BEHIND_LIGHT

    def test_pinned_sleeper_preempts_while_other_cpu_idles(self):
        assert cfs_pinned_sleeper().timeline == CFS_PINNED_SLEEPER

    def test_slices_count_compatible_contenders(self):
        assert cfs_pinned_slices().timeline == CFS_PINNED_SLICES


class TestPinnedCandidates:
    @pytest.mark.parametrize("scheduler", sorted(PINNED_BEHIND_BUSY_CPU))
    def test_pinned_candidate_behind_busy_cpu(self, scheduler):
        assert pinned_behind_busy_cpu(scheduler).timeline == PINNED_BEHIND_BUSY_CPU[scheduler]


class TestClutchDecisions:
    def test_warp_over_several_selections(self):
        assert clutch_warp().timeline == CLUTCH_WARP

    def test_every_bucket_on_two_cpus(self):
        assert clutch_buckets_two_cpus().timeline == CLUTCH_BUCKETS_TWO_CPUS


if __name__ == "__main__":
    # print every scenario's timeline (to re-pin after a deliberate change)
    for fn in (cfs_mixed_weights, cfs_heavy_behind_light, cfs_pinned_sleeper,
               cfs_pinned_slices, clutch_warp, clutch_buckets_two_cpus):
        print(fn.__name__, fn().timeline)
    for s in sorted(PINNED_BEHIND_BUSY_CPU):
        print("pinned", s, pinned_behind_busy_cpu(s).timeline)
