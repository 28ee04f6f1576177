"""Unit tests for thread behaviours (Step, LiveBehavior)."""

import pytest

from repro.core.errors import ProgramError
from repro.program import ops as op
from repro.program.behavior import LiveBehavior, Step


class TestStep:
    def test_negative_work_rejected(self):
        with pytest.raises(ProgramError):
            Step(-1, op.ThrExit())

    def test_compute_op_rejected(self):
        with pytest.raises(ProgramError):
            Step(10, op.Compute(5))


class TestLiveBehavior:
    def test_folds_consecutive_computes(self):
        def body():
            yield op.Compute(100)
            yield op.Compute(200)
            yield op.MutexLock("m")

        b = LiveBehavior(body())
        step = b.next_step(None)
        assert step.work_us == 300
        assert isinstance(step.op, op.MutexLock)

    def test_end_of_body_returns_none(self):
        def body():
            yield op.MutexLock("m")

        b = LiveBehavior(body())
        assert b.next_step(None) is not None
        assert b.next_step(None) is None

    def test_trailing_compute_attached_to_exit(self):
        def body():
            yield op.SemaPost("s")
            yield op.Compute(500)

        b = LiveBehavior(body())
        b.next_step(None)
        last = b.next_step(None)
        assert last.work_us == 500
        assert isinstance(last.op, op.ThrExit)

    def test_next_step_after_end_rejected(self):
        def body():
            yield op.SemaPost("s")

        b = LiveBehavior(body())
        b.next_step(None)
        assert b.next_step(None) is None
        with pytest.raises(ProgramError):
            b.next_step(None)

    def test_result_delivered_to_generator(self):
        got = []

        def body():
            got.append((yield op.MutexTrylock("m")))

        b = LiveBehavior(body())
        b.next_step(None)
        b.next_step(True)
        assert got == [True]

    def test_non_op_yield_rejected(self):
        def body():
            yield "not an op"

        b = LiveBehavior(body())
        with pytest.raises(ProgramError):
            b.next_step(None)

    def test_source_captured_from_frame(self):
        def body():
            yield op.MutexLock("m")  # <- this line

        b = LiveBehavior(body())
        step = b.next_step(None)
        assert step.op.source is not None
        assert step.op.source.function == "body"
        assert step.op.source.file.endswith("test_behavior.py")

    def test_explicit_source_not_overwritten(self):
        from repro.core.events import SourceLocation

        marked = SourceLocation("hand.c", 7, "fn")

        def body():
            yield op.MutexLock("m", source=marked)

        b = LiveBehavior(body())
        assert b.next_step(None).op.source is marked

    def test_perturb_applies_to_compute_only(self):
        def body():
            yield op.Compute(1000)
            yield op.SemaPost("s")

        b = LiveBehavior(body(), perturb=lambda us: us * 2)
        step = b.next_step(None)
        assert step.work_us == 2000

    def test_spin_loop_yields_resched_points(self):
        # a polling loop gets chopped into bounded steps ending in an
        # internal scheduling point, so simulated time advances between
        # polls (and the engine's guards catch a true 1-LWP livelock)
        def body():
            while True:
                yield op.Compute(1)

        b = LiveBehavior(body())
        step = b.next_step(None)
        assert isinstance(step.op, op.Resched)
        assert step.work_us == LiveBehavior.MAX_COMPUTE_FOLD
        again = b.next_step(None)
        assert isinstance(again.op, op.Resched)
