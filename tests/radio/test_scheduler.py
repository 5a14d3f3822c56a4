"""Tests for the discrete-event scheduler."""

import pytest

from repro.radio.scheduler import Scheduler


class TestScheduling:
    def test_events_run_in_time_order(self):
        sched = Scheduler()
        order = []
        sched.schedule(0.2, lambda: order.append("b"))
        sched.schedule(0.1, lambda: order.append("a"))
        sched.schedule(0.3, lambda: order.append("c"))
        sched.run(1.0)
        assert order == ["a", "b", "c"]

    def test_ties_broken_by_insertion(self):
        sched = Scheduler()
        order = []
        sched.schedule(0.1, lambda: order.append(1))
        sched.schedule(0.1, lambda: order.append(2))
        sched.run(1.0)
        assert order == [1, 2]

    def test_clock_advances_to_event_time(self):
        sched = Scheduler()
        times = []
        sched.schedule(0.5, lambda: times.append(sched.now))
        sched.run(1.0)
        assert times == [0.5]
        assert sched.now == 1.0

    def test_run_until_excludes_later_events(self):
        sched = Scheduler()
        fired = []
        sched.schedule(2.0, lambda: fired.append(True))
        sched.run_until(1.0)
        assert fired == []
        sched.run_until(3.0)
        assert fired == [True]

    def test_nested_scheduling(self):
        sched = Scheduler()
        order = []

        def outer():
            order.append("outer")
            sched.schedule(0.1, lambda: order.append("inner"))

        sched.schedule(0.1, outer)
        sched.run(1.0)
        assert order == ["outer", "inner"]

    def test_cancellation(self):
        sched = Scheduler()
        fired = []
        handle = sched.schedule(0.1, lambda: fired.append(True))
        handle.cancel()
        assert sched.run(1.0) == 0
        assert fired == []
        assert not sched.step()  # nothing is left to run

    def test_negative_delay_rejected(self):
        sched = Scheduler()
        with pytest.raises(ValueError):
            sched.schedule(-0.1, lambda: None)

    def test_past_absolute_time_rejected(self):
        sched = Scheduler()
        sched.schedule(0.5, lambda: None)
        sched.run(1.0)
        with pytest.raises(ValueError):
            sched.schedule_at(0.2, lambda: None)

    def test_step_returns_false_when_empty(self):
        assert Scheduler().step() is False

