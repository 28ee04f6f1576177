"""Pluggable kernel scheduler backends.

One recorded trace, several kernels: ``SimConfig(scheduler=...)``
selects which dispatch policy the simulated machine runs, turning a
prediction sweep into a cross-OS study.  Backends:

* ``"solaris"`` — the paper's two-level Solaris 2.5 TS/RT model (the
  default; bit-identical to the original hard-wired scheduler);
* ``"clutch"`` — XNU-Clutch-style: RT LWPs in FIXPRI above one
  timeshare bucket ordered by decayed CPU use;
* ``"cfs"`` — Linux-CFS-style vruntime fairness at nice 0 with
  latency-window slicing, sleeper fairness and wake-preemption, below
  an RT class.

See :mod:`repro.sched.base` for the backend contract and
``docs/schedulers.md`` for each model's semantics.  The stress/parity
harness in :mod:`repro.sched.stress_parity` differentially tests every
registered backend on the same trace.
"""

from repro.sched.base import (
    SchedulerBackend,
    available_backends,
    backend_version,
    create_backend,
    register_backend,
)
from repro.sched.cfs import CfsBackend
from repro.sched.clutch import ClutchBackend
from repro.sched.solaris import SolarisBackend

__all__ = [
    "SchedulerBackend",
    "SolarisBackend",
    "ClutchBackend",
    "CfsBackend",
    "available_backends",
    "backend_version",
    "create_backend",
    "register_backend",
]
