"""The scheduler-backend contract: kernel policy behind a fixed interface.

The simulator's :class:`~repro.solaris.scheduler.Scheduler` is pure
*mechanism*: CPUs, the LWP pool, user-level multiplexing of unbound
threads, burst/quantum event arming, block/wake delivery and the
communication delay.  Everything that makes those decisions *Solaris*
decisions — which LWP runs next, who gets preempted, how long a time
slice is, how priorities age — lives in a :class:`SchedulerBackend`.

Swapping the backend answers the cross-OS what-if question: replay the
same recorded trace under a different kernel's dispatch policy.  The
contract (see ``docs/schedulers.md`` for the full semantics):

``thread_setrun(lwp, boost)``
    An LWP is entering the kernel run queue because its thread woke (or
    was just created).  ``boost`` is True for sleep/block returns.  The
    backend adjusts placement state (Solaris: *slpret* priority lift;
    CFS: sleeper-fairness vruntime placement).  Default: nothing.
``sched_tick(runnable, now)``
    Run-queue maintenance, called at the top of every dispatch pass
    over the runnable LWPs (Solaris: starvation lifts).  Default:
    nothing, and the mechanism then skips the call.
``thread_select(runnable)``
    Order the runnable LWPs (a read-only view of the run queue) into
    dispatch preference, best first, as a list: a new one, or one the
    backend keeps (CFS, Clutch), which the mechanism only reads and
    only until the pass places or preempts.  It must be a total,
    deterministic order (ties by ``enqueue_seq`` — never by id() or
    wall clock).
``quantum_for(lwp)``
    The time slice to grant the LWP, which is on a CPU: at dispatch,
    at expiry, or when it picks up a new thread with no slice left.
``quantum_expire(lwp)``
    The LWP used up its slice while ONPROC: apply accounting (Solaris:
    *tqexp* demotion; CFS: vruntime charge).
``quantum_yield(lwp)``
    After expiry accounting: must the LWP surrender its CPU to a queued
    contender, or may it run another slice?
``pick_victim(candidates)``
    The dispatch pass's one victim search.  *candidates* is a prefix of
    this pass's ``thread_select`` order in which every CPU each
    candidate may run on (its ``bound_cpu``, else all) is busy.  Return
    ``(lwp, cpu)`` for the first candidate that preempts the LWP running
    on ``cpu``, or None to keep them all queued.  CFS and Clutch put an
    RT class above their fair/timeshare LWPs and share its search,
    :func:`rt_victim`.

Backends may additionally define ``on_dispatch(lwp)`` /
``on_deschedule(lwp)`` hooks (not present on the base class): the
mechanism calls them when an LWP goes on / comes off a processor, which
is where usage-driven policies (CFS vruntime, Clutch timeshare decay)
account CPU time.  ``on_enqueue(lwp)`` / ``on_dequeue(lwp)`` fire when
an LWP joins / leaves the run queue (``enqueue_seq`` is already final),
for a backend that keeps its own ordered queue (CFS, Clutch).
``rotate_out(lwp)`` / ``rotate_in(lwp) -> slice`` stand in for those
hooks on the two sides of a yielding quantum expiry, for a backend
with no ``sched_tick`` whose ``quantum_yield`` reads no expiry
accounting: the first does ``quantum_expire``, ``on_deschedule`` and
``on_enqueue`` for the expiring LWP, the second ``on_dequeue`` and
``on_dispatch`` for the head of ``thread_select``'s order, placed on
the CPU just freed, and returns its fresh ``quantum_for``.  The
mechanism itself counts the queued contenders by class and affinity
(``queued_rt``, ``queued_free``, ``queued_pinned``) and answers
:meth:`Scheduler.has_contender` from them.
``on_contention(runnable)`` fires when a dispatch pass ends with
runnable LWPs still queued (no idle CPU, no preemption): tickless
backends use it to re-arm the tick via :meth:`Scheduler.retick` — the
NO_HZ re-arm — both collapsing a parked uncontended slice back to a
real one and shortening a running slice when contention has grown since
it was granted.  The Solaris backend defines none of these hooks, so
the stock model pays nothing for them.

Ticking every short CFS/Clutch quantum on an *uncontended* processor
would flood the discrete-event queue with no-op expiries (charge,
re-arm, nothing to yield to).  Real kernels stopped doing this years
ago (Linux ``NO_HZ``, XNU's timer coalescing); backends model it by
returning :data:`TICKLESS_SLICE_US` from ``quantum_for`` when no
compatible contender is queued, and re-ticking from ``on_contention``
when one appears.

Determinism is part of the contract: a backend must be a pure function
of simulation state (integer arithmetic, insertion-ordered containers,
stable sorts).  The engine's replay determinism — and the content-
addressed result cache keyed on ``(trace, config, backend name+version)``
— depend on it.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.solaris.lwp import SimLwp
    from repro.solaris.scheduler import Scheduler, SimCpu

__all__ = [
    "SchedulerBackend",
    "TICKLESS_SLICE_US",
    "register_backend",
    "create_backend",
    "available_backends",
    "backend_version",
    "rt_victim",
]

#: the "slice" granted by a tickless backend when no compatible
#: contender is queued (~18 simulated minutes — far beyond any burst,
#: so the timer is effectively parked).  ``on_contention`` re-ticks the
#: running LWP down to a real slice the moment a contender fails to
#: place, so the parked timer never delays a runnable thread.
TICKLESS_SLICE_US = 1 << 30


class SchedulerBackend:
    """Base class for kernel scheduling policies (see module docstring).

    Subclasses set ``name`` (the ``SimConfig.scheduler`` value) and
    ``version`` (bumped on any semantic change — it is baked into job
    fingerprints, so cached results under the old semantics stop being
    served).
    """

    #: registry key and the value of ``SimConfig.scheduler``
    name: str = ""
    #: semantic version, part of every job fingerprint
    version: int = 0

    sched: "Scheduler"

    def bind(self, sched: "Scheduler") -> None:
        """Attach to the mechanism before the first dispatch."""
        self.sched = sched
        self.config = sched.config
        self.dispatch_table = sched.dispatch_table

    # -- policy hooks ---------------------------------------------------

    def thread_setrun(self, lwp: "SimLwp", boost: bool) -> None:
        """Placement state for an LWP entering the run queue; default:
        none."""

    def sched_tick(self, runnable: "Iterable[SimLwp]", now: int) -> None:
        """Run-queue maintenance; default: none."""

    def thread_select(self, runnable: "Iterable[SimLwp]") -> "List[SimLwp]":
        raise NotImplementedError

    def quantum_for(self, lwp: "SimLwp") -> int:
        raise NotImplementedError

    def quantum_expire(self, lwp: "SimLwp") -> None:
        """Expiry accounting; default: none."""

    def quantum_yield(self, lwp: "SimLwp") -> bool:
        raise NotImplementedError

    def pick_victim(
        self, candidates: "List[SimLwp]"
    ) -> "Optional[Tuple[SimLwp, SimCpu]]":
        raise NotImplementedError


def rt_victim(lwp: "SimLwp", cpus: "Sequence[SimCpu]") -> "Optional[SimCpu]":
    """The CPU an RT candidate preempts when an RT class sits above a
    fair or timeshare class (CFS, Clutch's FIXPRI): the first CPU, in
    CPU order, running a non-RT LWP, else the first one running the
    lowest RT priority strictly below the candidate's, else None.  A
    pinned candidate searches only its own CPU.  Every CPU searched is
    busy (the dispatch pass hands over only such candidates)."""
    pin = lwp.bound_cpu
    victim = None
    victim_pri = lwp.kernel_priority
    for cpu in cpus if pin is None else (cpus[pin],):
        running = cpu.lwp
        assert running is not None
        if not running.rt:
            return cpu
        if running.kernel_priority < victim_pri:
            victim_pri = running.kernel_priority
            victim = cpu
    return victim


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_REGISTRY: Dict[str, Type[SchedulerBackend]] = {}


def register_backend(cls: Type[SchedulerBackend]) -> Type[SchedulerBackend]:
    """Class decorator adding a backend to the name registry."""
    if not cls.name:
        raise ValueError(f"backend {cls!r} has no name")
    if cls.name in _REGISTRY and _REGISTRY[cls.name] is not cls:
        raise ValueError(f"scheduler backend {cls.name!r} already registered")
    _REGISTRY[cls.name] = cls
    return cls


def available_backends() -> List[str]:
    """Registered backend names, sorted."""
    return sorted(_REGISTRY)


def backend_version(name: str) -> int:
    """The fingerprint version of backend *name*."""
    return _lookup(name).version


def create_backend(name: str) -> SchedulerBackend:
    """Instantiate the backend registered under *name*."""
    return _lookup(name)()


def _lookup(name: str) -> Type[SchedulerBackend]:
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(available_backends()) or "none registered"
        raise ValueError(
            f"unknown scheduler backend {name!r} (known: {known})"
        ) from None
