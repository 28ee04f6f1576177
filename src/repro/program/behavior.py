"""Thread behaviours: where the Simulator gets each thread's next step.

The Simulator executes threads as a sequence of *steps*: a CPU burst
followed by one thread-library operation.  Two sources of steps exist, and
they are the crux of the reproduction (see DESIGN.md §5):

* :class:`LiveBehavior`, the :class:`ThreadBehavior` of a live program,
  drives a program generator.  It folds consecutive
  :class:`~repro.program.ops.Compute` yields into the step's work and
  captures the generator's current source line for each op — the analogue
  of the Recorder saving the ``%i7`` return address.  Live behaviour is
  schedule-dependent: the generator reads shared state when resumed.

* a recorded trace, compiled by :mod:`repro.core.predictor` into a
  :class:`~repro.core.simulator.ReplayPlan` of fixed step lists, which the
  Simulator's replay interpreter runs: the paper's deterministic replay
  (§3.2).

The protocol: ``next_step(result)`` receives the outcome of the previous
operation (e.g. a trylock's success, a created thread's id) and returns the
next :class:`Step`, or ``None`` when the thread body has ended without an
explicit ``thr_exit`` (the caller then synthesises one).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Protocol

from repro.core.errors import ProgramError
from repro.core.events import SourceLocation
from repro.program.ops import Compute, Op, Resched, ThrExit
from repro.program.program import ThreadGen

__all__ = ["Step", "ThreadBehavior", "LiveBehavior"]


@dataclass(slots=True)
class Step:
    """One schedulable unit: ``work_us`` of CPU time, then ``op``."""

    work_us: int
    op: Op

    def __post_init__(self) -> None:
        if self.work_us < 0:
            raise ProgramError(f"negative work {self.work_us}")
        if isinstance(self.op, Compute):
            raise ProgramError("a Step's op cannot be Compute (fold it into work)")


class ThreadBehavior(Protocol):
    """Source of a thread's steps."""

    def next_step(self, result: object) -> Optional[Step]:
        """Advance past the previous op (whose outcome is *result*) and
        return the next step; ``None`` signals the body ended."""


class LiveBehavior:
    """Drives a program-thread generator (ground-truth execution).

    ``perturb`` optionally maps each Compute duration to a jittered one —
    the hook :class:`~repro.program.mpexec.PerturbationModel` uses to model
    OS noise on the real machine.
    """

    #: Maximum consecutive Compute yields folded into one step.  Past it
    #: the driver emits an internal scheduling point (:class:`Resched`) so
    #: simulated time advances between polls — a spin loop then behaves
    #: like real hardware: it burns its own processor (and on the
    #: monitored one-LWP machine starves everyone else, the §6 livelock
    #: the engine's event guard converts into an error).
    MAX_COMPUTE_FOLD = 64

    def __init__(self, gen: ThreadGen, *, perturb=None):
        self._gen = gen
        self._started = False
        self._finished = False
        self._perturb = perturb

    def next_step(self, result: object) -> Optional[Step]:
        if self._finished:
            raise ProgramError("next_step called after the thread body ended")
        work = 0
        folded = 0
        while True:
            try:
                if not self._started:
                    self._started = True
                    op = next(self._gen)
                else:
                    op = self._gen.send(result)
            except StopIteration:
                self._finished = True
                if work:
                    # trailing compute with no following call: attach the
                    # work to the synthesized thr_exit
                    return Step(work, ThrExit())
                return None
            if not isinstance(op, Op):
                raise ProgramError(
                    f"thread body yielded {type(op).__name__}, expected an Op"
                )
            if isinstance(op, Compute):
                folded += 1
                duration = op.duration_us
                if self._perturb is not None:
                    duration = self._perturb(duration)
                work += duration
                result = None
                if folded >= self.MAX_COMPUTE_FOLD:
                    # spin/polling loop: hand back a scheduling point so
                    # simulated time advances between polls
                    return Step(work, Resched())
                continue
            if op.source is None:
                op.source = self._current_source()
            return Step(work, op)

    def _current_source(self) -> Optional[SourceLocation]:
        """Source line of the yield that produced the current op.

        ``gi_frame`` points at the suspended frame, whose ``f_lineno`` is
        the yield statement — the same information the real Recorder
        digs out of the ``%i7`` register plus the debugger (§3.1).
        """
        frame = self._gen.gi_frame
        if frame is None:
            return None
        code = frame.f_code
        return SourceLocation(
            file=code.co_filename, line=frame.f_lineno, function=code.co_name
        )
