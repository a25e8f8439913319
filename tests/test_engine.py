"""Tests for the discrete-event engine."""

from __future__ import annotations

import math

import pytest

from repro.simulation import Simulator
from repro.simulation.engine import SimulationError


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_clock_custom_start():
    assert Simulator(start_time=5.0).now == 5.0


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.at(3.0, fired.append, "c")
    sim.at(1.0, fired.append, "a")
    sim.at(2.0, fired.append, "b")
    sim.run()
    assert fired == ["a", "b", "c"]


def test_equal_time_events_fire_fifo():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.at(1.0, fired.append, i)
    sim.run()
    assert fired == list(range(10))


def test_priority_orders_equal_time_events():
    sim = Simulator()
    fired = []
    sim.at(1.0, fired.append, "late", priority=1)
    sim.at(1.0, fired.append, "early", priority=-1)
    sim.run()
    assert fired == ["early", "late"]


def test_after_schedules_relative():
    sim = Simulator()
    times = []
    sim.after(2.0, lambda: times.append(sim.now))
    sim.run()
    assert times == [2.0]


def test_cannot_schedule_in_past():
    sim = Simulator()
    sim.at(5.0, lambda: sim.at(1.0, lambda: None))
    with pytest.raises(SimulationError):
        sim.run()


def test_negative_delay_rejected():
    with pytest.raises(SimulationError):
        Simulator().after(-1.0, lambda: None)


def test_nan_time_rejected():
    with pytest.raises(SimulationError):
        Simulator().at(float("nan"), lambda: None)


def test_run_until_advances_clock_exactly():
    sim = Simulator()
    sim.at(1.0, lambda: None)
    end = sim.run(until=10.0)
    assert end == 10.0
    assert sim.now == 10.0


def test_run_until_does_not_fire_later_events():
    sim = Simulator()
    fired = []
    sim.at(1.0, fired.append, "in")
    sim.at(20.0, fired.append, "out")
    sim.run(until=10.0)
    assert fired == ["in"]
    # A later run picks the event up.
    sim.run()
    assert fired == ["in", "out"]


def test_event_scheduled_at_now_fires_in_same_run():
    sim = Simulator()
    fired = []
    sim.at(1.0, lambda: sim.at(sim.now, fired.append, "nested"))
    sim.run()
    assert fired == ["nested"]


def test_cancelled_event_skipped():
    sim = Simulator()
    fired = []
    event = sim.at(1.0, fired.append, "x")
    sim.at(0.5, event.cancel)
    sim.run()
    assert fired == []
    assert not event.pending


def test_cancel_after_fire_is_noop():
    sim = Simulator()
    event = sim.at(1.0, lambda: None)
    sim.run()
    event.cancel()  # must not raise
    assert event.fired


def test_stop_halts_loop():
    sim = Simulator()
    fired = []
    sim.at(1.0, fired.append, 1)
    sim.at(2.0, sim.stop)
    sim.at(3.0, fired.append, 3)
    sim.run()
    assert fired == [1]


def test_step_fires_single_event():
    sim = Simulator()
    fired = []
    sim.at(1.0, fired.append, 1)
    sim.at(2.0, fired.append, 2)
    assert sim.step()
    assert fired == [1]
    assert sim.step()
    assert fired == [1, 2]
    assert not sim.step()


def test_peek_returns_next_time():
    sim = Simulator()
    assert sim.peek() is None
    sim.at(4.0, lambda: None)
    sim.at(2.0, lambda: None)
    assert sim.peek() == 2.0


def test_max_events_limits_run():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.at(float(i), fired.append, i)
    sim.run(max_events=3)
    assert fired == [0, 1, 2]


def test_truncated_flag_set_when_work_remains():
    sim = Simulator()
    for i in range(10):
        sim.at(float(i), lambda: None)
    sim.run(max_events=3)
    assert sim.truncated


def test_truncated_flag_clear_on_complete_run():
    sim = Simulator()
    sim.at(1.0, lambda: None)
    sim.run()
    assert not sim.truncated


def test_truncated_flag_clear_when_remaining_events_beyond_until():
    sim = Simulator()
    sim.at(1.0, lambda: None)
    sim.at(50.0, lambda: None)
    sim.run(until=10.0, max_events=1)
    # The only pending event lies past the horizon; the run within
    # [0, until] is complete, not truncated.
    assert not sim.truncated


def test_truncated_flag_reset_by_next_run():
    sim = Simulator()
    for i in range(5):
        sim.at(float(i), lambda: None)
    sim.run(max_events=2)
    assert sim.truncated
    sim.run()
    assert not sim.truncated


def test_peek_skips_cancelled_events():
    sim = Simulator()
    first = sim.at(1.0, lambda: None)
    sim.at(2.0, lambda: None)
    first.cancel()
    assert sim.peek() == 2.0


def test_step_skips_cancelled_events():
    sim = Simulator()
    fired = []
    victim = sim.at(1.0, fired.append, "cancelled")
    sim.at(2.0, fired.append, "kept")
    victim.cancel()
    assert sim.step()
    assert fired == ["kept"]
    assert sim.now == 2.0
    assert not sim.step()


def test_equal_time_insertion_order_is_deterministic():
    # Same schedule built twice fires identically: ties broken by
    # insertion sequence, independent of callback identity.
    def build_and_run():
        sim = Simulator()
        fired = []
        for i in (3, 1, 4, 1, 5, 9, 2, 6):
            sim.at(1.0, fired.append, i)
        sim.at(1.0, lambda: fired.append("tail"))
        sim.run()
        return fired

    assert build_and_run() == build_and_run() == [3, 1, 4, 1, 5, 9, 2, 6, "tail"]


def test_not_reentrant():
    sim = Simulator()

    def recurse():
        with pytest.raises(SimulationError):
            sim.run()

    sim.at(1.0, recurse)
    sim.run()


def test_step_refused_inside_run():
    # A step() from a firing callback would run past the run's horizon.
    sim = Simulator()
    fired = []

    def step_from_callback():
        with pytest.raises(SimulationError, match="running"):
            sim.step()

    sim.call_at(1.0, step_from_callback)
    sim.call_at(2.0, fired.append, "late")
    assert sim.run(until=1.5) == 1.5
    assert fired == []
    assert sim.step()
    assert fired == ["late"]


def test_events_processed_counter():
    sim = Simulator()
    for i in range(5):
        sim.at(float(i), lambda: None)
    sim.run()
    assert sim.events_processed == 5


def test_run_for_runs_relative_duration():
    sim = Simulator()
    fired = []
    sim.at(1.0, fired.append, 1)
    sim.at(5.0, fired.append, 5)
    sim.run_for(2.0)
    assert fired == [1]
    assert sim.now == 2.0
    sim.run_for(3.0)
    assert fired == [1, 5]


# ----------------------------------------------------------------------
# Arrival streams (the loop in Simulator._run_generic)
# ----------------------------------------------------------------------
class ListStream:
    """An arrival stream over a fixed list of times; logs each firing."""

    def __init__(self, name, times, log, on_fire=None):
        self.name = name
        self._times = list(times)
        self._log = log
        self._on_fire = on_fire
        self.next_time = self._times[0] if self._times else math.inf

    def fire(self):
        t = self._times.pop(0)
        self.next_time = self._times[0] if self._times else math.inf
        self._log.append((self.name, t))
        if self._on_fire is not None:
            self._on_fire(t)


def test_tied_streams_fire_in_attach_order():
    sim = Simulator()
    log = []
    sim.attach_stream(ListStream("a", [1.0, 2.0], log))
    sim.attach_stream(ListStream("b", [1.0, 1.5, 2.0], log))
    sim.run()
    assert log == [("a", 1.0), ("b", 1.0), ("b", 1.5), ("a", 2.0), ("b", 2.0)]
    assert sim.events_processed == 5


def test_stream_wins_tie_with_timer():
    sim = Simulator()
    log = []
    sim.call_at(1.0, log.append, ("timer", 1.0))
    sim.at(2.0, log.append, ("event", 2.0))
    sim.attach_stream(ListStream("s", [1.0, 2.0], log))
    sim.run()
    assert log == [("s", 1.0), ("timer", 1.0), ("s", 2.0), ("event", 2.0)]
    assert sim.events_processed == 4


def test_exhausted_stream_is_detached():
    # Once a stream reports next_time == inf the loop drops it: a later
    # re-arm of the same object is never seen, with one stream attached
    # or several.
    for extra in ((), ([5.0],)):
        sim = Simulator()
        log = []
        stream = ListStream("s", [1.0], log)
        sim.attach_stream(stream)
        for times in extra:
            sim.attach_stream(ListStream("t", times, log))

        def rearm():
            stream._times = [3.0]
            stream.next_time = 3.0

        sim.call_at(2.0, rearm)
        sim.run()
        assert ("s", 3.0) not in log
        assert log[0] == ("s", 1.0)
        assert sim.peek() is None


def test_stop_inside_stream_fire():
    sim = Simulator()
    log = []
    stream = ListStream(
        "s", [1.0, 2.0, 3.0], log,
        on_fire=lambda t: sim.stop() if t == 2.0 else None,
    )
    sim.attach_stream(stream)
    assert sim.run(until=10.0) == 2.0
    assert log == [("s", 1.0), ("s", 2.0)]
    assert sim.events_processed == 2
    assert sim.run() == 3.0
    assert log[-1] == ("s", 3.0)
    assert sim.events_processed == 3


def test_until_between_stream_arrivals():
    sim = Simulator()
    log = []
    sim.attach_stream(ListStream("s", [1.0, 3.0], log))
    assert sim.run(until=2.0) == 2.0
    assert log == [("s", 1.0)]
    assert sim.peek() == 3.0
    sim.run()
    assert log == [("s", 1.0), ("s", 3.0)]
    assert sim.events_processed == 2


def test_reserve_inline_refused_by_tied_stream_arrival():
    sim = Simulator()
    log = []
    sim.attach_stream(ListStream("s", [0.5, 2.0], log))
    answers = []

    def probe():
        answers.append(sim.reserve_inline(2.0))  # ties the arrival: refused
        answers.append(sim.now)
        answers.append(sim.reserve_inline(1.5))  # strictly earlier: granted
        answers.append(sim.now)

    sim.call_at(1.0, probe)
    sim.run()
    assert answers == [False, 1.0, True, 1.5]
    assert log == [("s", 0.5), ("s", 2.0)]
    # The granted reservation counts as one processed event.
    assert sim.events_processed == 4
