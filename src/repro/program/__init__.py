"""Virtual-program substrate: DSL, behaviours, executors.

Only the machine-independent pieces (ops, Program, behaviours) are
exported here; the executors live in :mod:`repro.program.uniexec` and
:mod:`repro.program.mpexec` (imported directly — they depend on the
simulator core, which itself consumes this package's op vocabulary).
"""

from repro.program.behavior import LiveBehavior, Step, ThreadBehavior
from repro.program.program import Program, ThreadCtx, barrier

__all__ = [
    "LiveBehavior",
    "Step",
    "ThreadBehavior",
    "Program",
    "ThreadCtx",
    "barrier",
]
