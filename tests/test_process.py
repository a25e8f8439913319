"""Tests for the generator-process layer."""

from __future__ import annotations

import pytest

from repro.simulation import Simulator, Until, Waiter, spawn
from repro.simulation.engine import SimulationError


def test_sleep_yields_advance_time():
    sim = Simulator()
    log = []

    def proc():
        log.append(sim.now)
        yield 1.5
        log.append(sim.now)
        yield 0.5
        log.append(sim.now)

    spawn(sim, proc())
    sim.run()
    assert log == [0.0, 1.5, 2.0]


def test_until_absolute_time():
    sim = Simulator()
    log = []

    def proc():
        yield Until(5.0)
        log.append(sim.now)
        yield Until(1.0)  # already past: resumes immediately
        log.append(sim.now)

    spawn(sim, proc())
    sim.run()
    assert log == [5.0, 5.0]


def test_spawn_delay():
    sim = Simulator()
    log = []

    def proc():
        log.append(sim.now)
        yield 0.0

    spawn(sim, proc(), delay=3.0)
    sim.run()
    assert log == [3.0]


def test_waiter_delivers_value():
    sim = Simulator()
    got = []

    def consumer(waiter):
        value = yield waiter
        got.append((sim.now, value))

    waiter = Waiter()
    spawn(sim, consumer(waiter))
    sim.at(2.0, waiter.fire, "payload")
    sim.run()
    assert got == [(2.0, "payload")]


def test_waiter_fired_before_wait_latches():
    sim = Simulator()
    got = []

    def late_consumer(waiter):
        yield 5.0
        value = yield waiter
        got.append(value)

    waiter = Waiter()
    waiter.fire(42)
    spawn(sim, late_consumer(waiter))
    sim.run()
    assert got == [42]


def test_waiter_wakes_multiple_processes():
    sim = Simulator()
    got = []
    waiter = Waiter()

    def consumer(tag):
        value = yield waiter
        got.append((tag, value))

    spawn(sim, consumer("a"))
    spawn(sim, consumer("b"))
    sim.at(1.0, waiter.fire, "x")
    sim.run()
    assert sorted(got) == [("a", "x"), ("b", "x")]


def test_waiter_double_fire_rejected():
    waiter = Waiter()
    waiter.fire()
    with pytest.raises(SimulationError):
        waiter.fire()


def test_process_completes_and_marks_finished():
    sim = Simulator()

    def proc():
        yield 1.0

    process = spawn(sim, proc())
    sim.run()
    assert process.finished
    assert process.error is None


def test_bad_yield_target_raises():
    sim = Simulator()

    def proc():
        yield "nonsense"

    spawn(sim, proc())
    with pytest.raises(SimulationError):
        sim.run()


def test_exception_in_process_propagates():
    sim = Simulator()

    def proc():
        yield 1.0
        raise RuntimeError("boom")

    process = spawn(sim, proc())
    with pytest.raises(RuntimeError):
        sim.run()
    assert process.finished
    assert isinstance(process.error, RuntimeError)


def test_processes_interleave_with_events():
    sim = Simulator()
    log = []

    def proc():
        for _ in range(3):
            log.append(("proc", sim.now))
            yield 2.0

    spawn(sim, proc())
    sim.at(1.0, lambda: log.append(("event", 1.0)))
    sim.at(3.0, lambda: log.append(("event", 3.0)))
    sim.run()
    assert log == [
        ("proc", 0.0),
        ("event", 1.0),
        ("proc", 2.0),
        ("event", 3.0),
        ("proc", 4.0),
    ]


def test_process_driving_a_link():
    """Processes compose with the packet machinery."""
    from repro.core import Packet, make_scheduler
    from repro.servers import ConstantCapacity, Link

    sim = Simulator()
    sched = make_scheduler("SFQ")
    link = Link(sim, sched, ConstantCapacity(1000.0))

    def talker():
        for seq in range(5):
            link.send(Packet("p", 100, seqno=seq))
            yield 0.05

    spawn(sim, talker())
    sim.run()
    assert len(link.tracer.departed("p")) == 5
