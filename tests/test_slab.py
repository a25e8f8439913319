"""Tests for the per-flow state lifecycle on the scheduler engine.

Flows register, leave and re-register (churn) through ``add_flow`` and
``remove_flow``: registration is validated, a backlogged or unknown flow
cannot be removed, a re-added id starts from fresh ``FlowState``, and a
churned population leaves no per-flow state behind.
"""

from __future__ import annotations

import pytest

from repro.core import Packet, SchedulerError, make_scheduler
from repro.faults.injectors import FlowChurn
from repro.servers import ConstantCapacity, Link
from repro.simulation import NullTracer, RandomStreams, Simulator
from repro.traffic import CBRSource


def test_recycled_slot_state_is_reset():
    # VirtualClock advances the flow's EAT chain (eq. 37) on arrival.
    sched = make_scheduler("VirtualClock", auto_register=False)
    state = sched.add_flow("a", 1.0)
    sched.enqueue(Packet("a", 100), 0.0)
    assert state.eat_on_arrival(0.0, 100, 1.0) == 100.0  # chained, not 0
    sched.on_service_complete(sched.dequeue(0.0), 1.0)
    assert state.packets_served == 1 and state.bits_served == 100
    sched.remove_flow("a")
    fresh = sched.add_flow("a", 2.0)
    assert fresh is not state
    assert fresh.last_finish == 0.0
    assert fresh.bits_enqueued == 0 and fresh.bits_served == 0
    assert fresh.packets_served == 0
    assert fresh.heap_entry is None and not fresh.backlogged
    # The EAT chain restarts too: the first arrival is eligible at once.
    assert fresh.eat_on_arrival(5.0, 100, 2.0) == 5.0


def test_alloc_validation():
    sched = make_scheduler("SFQ", auto_register=False)
    sched.add_flow("a", 1.0)
    with pytest.raises(SchedulerError):
        sched.add_flow("a", 1.0)  # duplicate registration
    with pytest.raises(ValueError):
        sched.add_flow("b", 0.0)  # non-positive weight
    with pytest.raises(ValueError):
        sched.add_flow("c", -1.0)
    assert set(sched.flows) == {"a"}


def test_release_rejects_backlogged_and_unknown():
    sched = make_scheduler("SFQ", auto_register=False)
    sched.add_flow("a", 1.0)
    sched.enqueue(Packet("a", 100), 0.0)
    with pytest.raises(SchedulerError):
        sched.remove_flow("a")
    sched.on_service_complete(sched.dequeue(0.0), 1.0)
    sched.remove_flow("a")
    with pytest.raises(SchedulerError):
        sched.remove_flow("a")  # already removed


def test_flowchurn_injector_bounds_slab_on_array_backend():
    """The real ``repro.faults.FlowChurn`` injector against an SFQ link:
    every leave unregisters its flow, so the scheduler never holds more
    than the anchor plus the churn pool, however many cycles occur."""
    sim = Simulator()
    streams = RandomStreams(7)
    sched = make_scheduler("SFQ", auto_register=False)
    sched.add_flow("anchor", 1.0)
    link = Link(sim, sched, ConstantCapacity(64_000.0), tracer=NullTracer())
    CBRSource(sim, "anchor", link.send, rate=16_000.0, packet_length=800).start()

    pool = [f"c{i}" for i in range(5)]
    peak = [0]

    def make_source(fid, start, stop):
        peak[0] = max(peak[0], len(sched.flows))
        return CBRSource(
            sim, fid, link.send, rate=8_000.0, packet_length=400,
            start_time=start, stop_time=stop,
        )

    churn = FlowChurn(
        sim, link, make_source, streams=streams, flow_ids=pool,
        mean_on=0.4, mean_off=0.2, stop_time=60.0,
    )
    churn.start()
    sim.run(until=80.0)
    assert churn.joins >= 20  # the run actually churned
    assert churn.leaves == churn.joins  # every join fully unwound
    assert peak[0] <= 1 + len(pool)
    assert set(sched.flows) == {"anchor"}
