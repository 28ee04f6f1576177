"""Unit tests for the discrete-event core."""

import pytest

from repro.core.engine import Engine, EventQueue
from repro.core.errors import LivelockError, SimulationError


class TestEventQueue:
    def test_pop_order(self):
        q = EventQueue()
        order = []
        q.push(20, lambda: order.append("b"))
        q.push(10, lambda: order.append("a"))
        q.push(30, lambda: order.append("c"))
        while (ev := q.pop()) is not None:
            ev.action()
        assert order == ["a", "b", "c"]

    def test_ties_keep_insertion_order(self):
        q = EventQueue()
        q.push(5, lambda: None, "first")
        q.push(5, lambda: None, "second")
        assert q.pop().label == "first"
        assert q.pop().label == "second"

    def test_cancelled_events_skipped(self):
        q = EventQueue()
        ev = q.push(1, lambda: None, "dead")
        q.push(2, lambda: None, "live")
        ev.cancel()
        assert q.pop().label == "live"

    def test_len_excludes_cancelled(self):
        q = EventQueue()
        ev = q.push(1, lambda: None)
        q.push(2, lambda: None)
        assert len(q) == 2
        ev.cancel()
        assert len(q) == 1

    def test_peek_time(self):
        q = EventQueue()
        assert q.peek_time() is None
        ev = q.push(7, lambda: None)
        assert q.peek_time() == 7
        ev.cancel()
        assert q.peek_time() is None

    def test_bool(self):
        q = EventQueue()
        assert not q
        q.push(1, lambda: None)
        assert q


class TestEngine:
    def test_clock_advances(self):
        eng = Engine()
        seen = []
        eng.schedule_at(100, lambda: seen.append(eng.now_us))
        eng.schedule_at(50, lambda: seen.append(eng.now_us))
        final = eng.run()
        assert seen == [50, 100]
        assert final == 100

    def test_schedule_in_relative(self):
        eng = Engine()
        seen = []
        eng.schedule_in(10, lambda: eng.schedule_in(5, lambda: seen.append(eng.now_us)))
        eng.run()
        assert seen == [15]

    def test_schedule_in_past_rejected(self):
        eng = Engine()
        eng.schedule_at(100, lambda: None)
        eng.run()
        with pytest.raises(SimulationError):
            eng.schedule_at(50, lambda: None)

    def test_negative_delay_rejected(self):
        eng = Engine()
        with pytest.raises(SimulationError):
            eng.schedule_in(-1, lambda: None)

    def test_livelock_guard(self):
        eng = Engine(max_events=100)

        def rearm():
            eng.schedule_in(0, rearm)

        eng.schedule_in(0, rearm)
        with pytest.raises(LivelockError):
            eng.run()

    def test_step(self):
        eng = Engine()
        seen = []
        eng.schedule_at(5, lambda: seen.append(1))
        assert eng.step() is True
        assert eng.step() is False
        assert seen == [1]

    def test_events_executed_counter(self):
        eng = Engine()
        for t in range(5):
            eng.schedule_at(t, lambda: None)
        eng.run()
        assert eng.events_executed == 5

    def test_cancel_during_run(self):
        eng = Engine()
        seen = []
        later = eng.schedule_at(10, lambda: seen.append("late"))
        eng.schedule_at(5, later.cancel)
        eng.run()
        assert seen == []

    def test_same_time_cascade(self):
        """Events scheduled for 'now' during an event run in order."""
        eng = Engine()
        seen = []
        def first():
            seen.append("first")
            eng.schedule_in(0, lambda: seen.append("nested"))
        eng.schedule_at(1, first)
        eng.schedule_at(1, lambda: seen.append("second"))
        eng.run()
        assert seen == ["first", "second", "nested"]


class TestArmedContract:
    """An event is its own record of being in flight: ``armed`` holds
    exactly while it is queued to run.  The scheduler reads a thread's
    burst event and an LWP's quantum event through this instead of
    keeping a map of them, so both ways of running an event keep it."""

    @pytest.mark.parametrize("drive", ["run", "step"])
    def test_armed_while_queued_only(self, drive):
        eng = Engine()
        inside = []
        ev = eng.schedule_at(5, lambda: inside.append(ev.armed))
        assert ev.armed
        getattr(eng, drive)()
        assert inside == [False]
        assert not ev.armed

    @pytest.mark.parametrize("drive", ["run", "step"])
    def test_rearmed_inside_its_action_stays_armed(self, drive):
        eng = Engine()
        fired = []

        def action():
            fired.append(eng.now_us)
            if len(fired) == 1:
                eng.queue.repush(eng.now_us + 10, ev)

        ev = eng.schedule_at(5, action)
        getattr(eng, drive)()
        if drive == "step":
            assert fired == [5]
            assert ev.armed and ev.time_us == 15
            assert eng.step()
        assert fired == [5, 15]
        assert not ev.armed

    def test_cancel_after_it_ran_is_harmless(self):
        eng = Engine()
        seen = []
        ev = eng.schedule_at(5, lambda: seen.append("a"))
        eng.schedule_at(10, lambda: seen.append("b"))
        assert eng.step()
        ev.cancel()
        assert not ev.armed
        assert len(eng.queue) == 1
        eng.run()
        assert seen == ["a", "b"]
        # the late cancel leaves the event free to be re-armed
        eng.queue.repush(20, ev)
        assert ev.armed
        eng.run()
        assert seen == ["a", "b", "a"]

    def test_cancel_disarms_a_queued_event(self):
        eng = Engine()
        seen = []
        ev = eng.schedule_at(5, lambda: seen.append("a"))
        ev.cancel()
        assert not ev.armed
        eng.run()
        assert seen == [] and eng.events_executed == 0
