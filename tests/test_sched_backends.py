"""Backend-conformance suite: every pluggable kernel, same contract.

The policies differ — Solaris dispatch tables, Clutch's decay-ordered
timeshare bucket under FIXPRI, CFS vruntime — but the scheduling
*contract* does not.  Each test here runs under every registered
backend: runnable work gets dispatched, RT outranks timeshare, quanta
are accounted, user-level priority hand-off works, and deadlock
detection still fires.  ``TestTimeshareLevel`` checks the premise that
lets CFS keep one fair weight and Clutch one timeshare bucket, and
``TestVictimSearch`` that one victim search per dispatch pass picks
what a search per candidate would.
"""

import pytest

from repro import Program, SimConfig, ThreadPolicy, record_program, simulate_program
from repro.core.errors import ConfigError, DeadlockError
from repro.core.predictor import compile_trace
from repro.core.result import SegmentKind
from repro.core.simulator import Simulator
from repro.program import ops as op
from repro.sched import (
    SchedulerBackend,
    available_backends,
    backend_version,
    create_backend,
    register_backend,
)
from repro.solaris import costs as costs_mod
from repro.solaris.dispatch import DispatchTable
from tests.conftest import make_barrier_program, make_mutex_program, make_prodcons_program

FREE = costs_mod.free()
BACKENDS = available_backends()


def spawn_n_workers(n, body, join=True, **create_kw):
    def main(ctx):
        tids = []
        for i in range(n):
            tids.append((yield op.ThrCreate(body, **create_kw)))
        if join:
            for t in tids:
                yield op.ThrJoin(t)

    return main


def running_time(result, tid):
    return sum(
        s.duration_us
        for s in result.segments.get(tid, [])
        if s.kind is SegmentKind.RUNNING
    )


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_all_three_backends_registered(self):
        assert {"solaris", "clutch", "cfs"} <= set(BACKENDS)

    def test_listing_is_sorted(self):
        assert BACKENDS == sorted(BACKENDS)

    def test_create_unknown_name(self):
        with pytest.raises(ValueError, match="solaris"):
            create_backend("vms")

    def test_versions_are_positive_ints(self):
        for name in BACKENDS:
            assert isinstance(backend_version(name), int)
            assert backend_version(name) >= 1

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError, match="already registered"):

            @register_backend
            class Impostor(SchedulerBackend):  # pragma: no cover
                name = "solaris"
                version = 99


class TestConfig:
    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ConfigError, match="unknown scheduler"):
            SimConfig(scheduler="vms")

    def test_with_scheduler_copy(self):
        base = SimConfig(cpus=4)
        other = base.with_scheduler("cfs")
        assert other.scheduler == "cfs" and other.cpus == 4
        assert base.scheduler == "solaris"

    def test_describe_mentions_non_default_backend(self):
        assert "sched=cfs" in SimConfig(scheduler="cfs").describe()
        assert "sched" not in SimConfig().describe()


# ---------------------------------------------------------------------------
# conformance: the contract every backend must honour
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scheduler", BACKENDS)
class TestConformance:
    def test_parallel_work_scales(self, scheduler):
        """Runnable work reaches idle processors under any policy."""

        def w(ctx):
            yield op.Compute(1000)

        res = simulate_program(
            Program("p", spawn_n_workers(4, w)),
            SimConfig(cpus=4, costs=FREE, scheduler=scheduler),
        )
        assert res.makespan_us == 1000

    def test_single_lwp_serialises(self, scheduler):
        """User-level multiplexing is mechanism, not policy: one LWP
        still runs threads one at a time under every backend."""

        def w(ctx):
            yield op.Compute(1000)

        res = simulate_program(
            Program("p", spawn_n_workers(4, w)),
            SimConfig(cpus=4, lwps=1, costs=FREE, scheduler=scheduler),
        )
        assert res.makespan_us == 4000

    def test_quantum_accounting(self, scheduler):
        """Two CPU hogs on one processor: quanta expire and are counted,
        and both hogs still run to completion."""
        from repro.core.simulator import Simulator

        def hog(ctx):
            yield op.Compute(400_000)

        prog = Program("hogs", spawn_n_workers(2, hog, bound=True))
        sim = Simulator(SimConfig(cpus=1, costs=FREE, scheduler=scheduler))
        res = sim.run_program(prog)
        assert res.makespan_us >= 800_000
        all_lwps = list(sim.scheduler.lwps) + list(sim.scheduler.retired_lwps)
        assert sum(l.quantum_expiries for l in all_lwps) > 0
        # both hogs ran to completion on the single CPU
        for tid in (4, 5):
            assert running_time(res, tid) >= 400_000

    def test_no_time_slicing_disables_quanta(self, scheduler):
        """time_slicing=False is a mechanism switch: no backend may arm
        quantum timers when it is off."""
        from repro.core.simulator import Simulator

        def hog(ctx):
            yield op.Compute(200_000)

        prog = Program("hogs", spawn_n_workers(2, hog, bound=True))
        sim = Simulator(
            SimConfig(
                cpus=1, costs=FREE, time_slicing=False, scheduler=scheduler
            )
        )
        res = sim.run_program(prog)
        assert res.makespan_us >= 400_000
        all_lwps = list(sim.scheduler.lwps) + list(sim.scheduler.retired_lwps)
        assert sum(l.quantum_expiries for l in all_lwps) == 0

    def test_priority_handoff(self, scheduler):
        """One LWP, a high- and a low-priority thread runnable: the
        user-level scheduler hands the LWP to the higher priority first,
        whatever kernel backend runs below it."""

        def w(ctx):
            yield op.Compute(1000)

        def main(ctx):
            lo = yield op.ThrCreate(w, priority=1)
            hi = yield op.ThrCreate(w, priority=10)
            yield op.ThrJoin(lo)
            yield op.ThrJoin(hi)

        res = simulate_program(
            Program("p", main),
            SimConfig(cpus=1, lwps=1, costs=FREE, scheduler=scheduler),
        )
        lo_first = next(
            s for s in res.segments[4] if s.kind is SegmentKind.RUNNING
        )
        hi_first = next(
            s for s in res.segments[5] if s.kind is SegmentKind.RUNNING
        )
        assert hi_first.start_us < lo_first.start_us

    def test_rt_thread_runs_before_ts(self, scheduler):
        """The RT class outranks timeshare under every backend (Clutch
        FIXPRI, the CFS RT class, the Solaris RT class)."""

        def w(ctx):
            yield op.SemaWait("start")
            yield op.Compute(50_000)

        def main(ctx):
            a = yield op.ThrCreate(w)
            b = yield op.ThrCreate(w)
            yield op.SemaPost("start")
            yield op.SemaPost("start")
            yield op.ThrJoin(a)
            yield op.ThrJoin(b)

        config = SimConfig(
            cpus=1,
            costs=FREE,
            scheduler=scheduler,
            thread_policies={5: ThreadPolicy(rt_priority=30)},
        )
        res = simulate_program(Program("p", main), config)
        ts_run = next(
            s for s in res.segments[4] if s.kind is SegmentKind.RUNNING
        )
        rt_run = next(
            s for s in res.segments[5] if s.kind is SegmentKind.RUNNING
        )
        assert rt_run.start_us <= ts_run.start_us

    def test_deadlock_detection_fires(self, scheduler):
        """The watchdog's deadlock diagnosis is backend-independent."""

        def t1(ctx):
            yield op.MutexLock("a")
            yield op.Compute(100)
            yield op.MutexLock("b")

        def t2(ctx):
            yield op.MutexLock("b")
            yield op.Compute(100)
            yield op.MutexLock("a")

        def main(ctx):
            x = yield op.ThrCreate(t1)
            y = yield op.ThrCreate(t2)
            yield op.ThrJoin(x)
            yield op.ThrJoin(y)

        with pytest.raises(DeadlockError):
            simulate_program(
                Program("dl", main),
                SimConfig(cpus=2, costs=FREE, scheduler=scheduler),
            )

    def test_deterministic(self, scheduler):
        def w(ctx):
            for _ in range(5):
                yield op.MutexLock("m")
                yield op.Compute(500)
                yield op.MutexUnlock("m")

        prog = Program("p", spawn_n_workers(4, w))
        config = SimConfig(cpus=2, scheduler=scheduler)
        first = simulate_program(prog, config)
        second = simulate_program(prog, config)
        assert first.makespan_us == second.makespan_us
        assert first.events == second.events


# ---------------------------------------------------------------------------
# the premise of one fair weight and one timeshare bucket
# ---------------------------------------------------------------------------


def _setprio_program():
    """Workers created at user priorities 1 and 10 that re-prioritise
    themselves with thr_setprio while sharing a mutex."""

    def w(ctx):
        for prio in (3, 40):
            yield op.ThrSetPrio(priority=prio)
            yield op.MutexLock("m")
            yield op.Compute(2_000)
            yield op.MutexUnlock("m")

    def main(ctx):
        tids = []
        for prio in (1, 10, 1, 10):
            tids.append((yield op.ThrCreate(w, priority=prio)))
        for t in tids:
            yield op.ThrJoin(t)

    return Program("setprio", main)


class TestTimeshareLevel:
    """No trace carries a time-sharing priority into ``cfs`` or ``clutch``.

    A ``thr_setprio`` in a log is a user-level priority, and the
    ``ThreadPolicy`` knobs set user priorities, RT priorities and
    bindings; none of them sets the kernel priority of a time-sharing
    LWP.  Only the Solaris backend ages it.  So under ``cfs`` and
    ``clutch`` every time-sharing LWP ends a replay at
    ``DispatchTable.initial_level()``, which is why CFS keeps one fair
    weight and Clutch one timeshare bucket.  If this test fails, a trace
    can carry a TS priority into those backends, and they need weights
    or buckets again to honour it.
    """

    @pytest.mark.parametrize("scheduler", ["cfs", "clutch"])
    def test_ts_lwps_stay_at_the_initial_level(self, scheduler):
        level = DispatchTable.initial_level()
        programs = (
            _setprio_program(),
            make_prodcons_program(),
            make_barrier_program(),
            make_mutex_program(),
        )
        rt_seen = 0
        for program in programs:
            trace = record_program(program).trace
            plan = compile_trace(trace)
            tids = sorted(int(t) for t in trace.thread_ids() if t != 1)
            a, b, c = tids[:3]
            policies = (
                {},
                {a: ThreadPolicy(priority=50), b: ThreadPolicy(priority=0)},
                {a: ThreadPolicy(bound=True), b: ThreadPolicy(bound=False)},
                {a: ThreadPolicy(cpu=1), b: ThreadPolicy(cpu=0, priority=5)},
                {a: ThreadPolicy(rt_priority=10), b: ThreadPolicy(rt_priority=20, cpu=0),
                 c: ThreadPolicy(cpu=1)},
            )
            for thread_policies in policies:
                for lwps in (None, 1, 2):
                    sim = Simulator(SimConfig(
                        cpus=2, lwps=lwps, scheduler=scheduler,
                        thread_policies=thread_policies,
                    ))
                    sim.run_replay(plan)
                    lwp_set = sim.scheduler.lwps + sim.scheduler.retired_lwps
                    assert {
                        l.kernel_priority for l in lwp_set if not l.rt
                    } == {level}, (program.name, thread_policies, lwps)
                    rt_seen += sum(l.rt for l in lwp_set)
        assert rt_seen  # the RT policies did reach the backends


# ---------------------------------------------------------------------------
# fingerprints (cache keys must not collide across backends)
# ---------------------------------------------------------------------------


class TestFingerprints:
    def test_canonical_config_carries_backend_and_version(self):
        from repro.jobs.fingerprint import canonical_config

        canon = canonical_config(SimConfig(scheduler="clutch"))
        assert canon["scheduler"] == {
            "name": "clutch",
            "version": backend_version("clutch"),
        }

    def test_job_fingerprints_distinct_per_backend(self):
        from repro.jobs.fingerprint import job_fingerprint, lint_job_fingerprint

        trace_fp = "f" * 64
        sim_fps = {
            job_fingerprint(trace_fp, SimConfig(cpus=4, scheduler=s))
            for s in BACKENDS
        }
        lint_fps = {
            lint_job_fingerprint(trace_fp, SimConfig(cpus=4, scheduler=s))
            for s in BACKENDS
        }
        assert len(sim_fps) == len(BACKENDS)
        assert len(lint_fps) == len(BACKENDS)


# ---------------------------------------------------------------------------
# the pass-level victim search
# ---------------------------------------------------------------------------


def _mid_pass(scheduler: str, seed: int):
    """A scheduler stopped at the top of a dispatch pass, on random
    hand-built LWPs (mixed priorities, RT, pinning, sleepers), with the
    pass's candidates that can place only by preemption."""
    import random

    from repro.solaris.lwp import LwpState
    from tests.test_backend_decisions import Rig

    rng = random.Random(seed)
    cpus = rng.randint(1, 4)
    rig = Rig(scheduler, cpus)

    def add(k):
        pin = rng.randrange(cpus) if rng.random() < 0.3 else None
        rig.add(f"L{k}", priority=rng.randint(0, 59), rt=rng.random() < 0.15, cpu=pin)

    now = 0
    for k in range(rng.randint(1, cpus + 4)):
        add(k)
        now += rng.choice((0, 0, 700, 2_500, 9_000))
        rig.run_until(now)
        busy = [cpu for cpu in rig.sched.cpus if cpu.lwp is not None]
        if busy and rng.random() < 0.2:
            rig.block_on(rng.choice(busy).index)
    sched = rig.sched
    sched.begin_atomic()  # the arrivals below wait for one pass
    for k in range(100, 100 + rng.randint(1, 3)):
        add(k)
    for name, thread in rig.threads.items():
        if thread.lwp.state is LwpState.SLEEPING and rng.random() < 0.5:
            rig.wake(name)
    runnable = list(sched._runnable.values())
    sched._sched_tick(runnable, sched.engine.now_us)
    order = sched._select(runnable)
    idle = [cpu for cpu in sched.cpus if cpu.lwp is None]
    stop = len(order)
    for i, lwp in enumerate(order):
        if (lwp.bound_cpu is None and idle) or (
            lwp.bound_cpu is not None and sched.cpus[lwp.bound_cpu].lwp is None
        ):
            stop = i
            break
    return sched.backend, order[:stop]


class TestVictimSearch:
    @pytest.mark.parametrize("scheduler", BACKENDS)
    def test_one_search_equals_a_search_per_candidate(self, scheduler):
        """Searching a pass's candidates at once (with early stops)
        picks what searching them one at a time, in order, picks."""
        searched = won = 0
        for seed in range(300):
            backend, candidates = _mid_pass(scheduler, seed)
            if not candidates:
                continue
            one_by_one = next(
                (hit for lwp in candidates
                 if (hit := backend.pick_victim([lwp])) is not None),
                None,
            )
            assert backend.pick_victim(candidates) == one_by_one, seed
            searched += 1
            won += one_by_one is not None
        # the random states reach both outcomes
        assert searched > 100 and 0 < won < searched
