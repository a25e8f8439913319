"""Failure injection and protocol-misuse tests.

A library gets adopted when it fails loudly and precisely; these tests
pin the error behaviour on bad inputs, mid-run perturbations, and
adversarial (malicious-source) conditions the paper's isolation
property is supposed to withstand.
"""

from __future__ import annotations

import pytest

from repro.core import FIFO, Packet, make_scheduler
from repro.core.priority import PriorityBands
from repro.servers import ConstantCapacity, Link, PiecewiseCapacity
from repro.servers.base import CapacityError
from repro.simulation import Simulator
from repro.simulation.engine import SimulationError


# ----------------------------------------------------------------------
# Malicious / misbehaving sources: the isolation property
# ----------------------------------------------------------------------
def test_flooding_flow_cannot_degrade_a_conforming_flow():
    """Section 2.3: the delay guarantee 'is independent of the behavior
    of other sources at the server' — flood one flow 20x its rate, the
    conforming flow's bound must be untouched."""
    from repro.analysis.delay_bounds import expected_arrival_times, sfq_delay_bound

    for flood_factor in (1, 20):
        sim = Simulator()
        sfq = make_scheduler("SFQ", auto_register=False)
        sfq.add_flow("good", 400.0)
        sfq.add_flow("evil", 600.0)
        link = Link(sim, sfq, ConstantCapacity(1000.0))
        # Conforming CBR at its reserved rate.
        for i in range(100):
            sim.at(i * 0.25, lambda s: link.send(Packet("good", 100, seqno=s)), i)
        # Misbehaving flow floods at flood_factor x its reservation.
        n_evil = int(100 * flood_factor * 0.25 * 600 / 100)
        sim.at(0.0, lambda n=n_evil: [
            link.send(Packet("evil", 100, seqno=i)) for i in range(n)
        ])
        sim.run(until=60.0)
        records = sorted(link.tracer.departed("good"), key=lambda r: r.seqno)
        eats = expected_arrival_times(
            [r.arrival for r in records], [r.length for r in records],
            [400.0] * len(records),
        )
        for record, eat in zip(records, eats):
            bound = sfq_delay_bound(eat, 100, record.length, 1000.0, 0.0)
            assert record.departure <= bound + 1e-9, flood_factor


def test_zero_length_packet_rejected_at_creation():
    with pytest.raises(ValueError):
        Packet("f", 0)


def test_duplicate_service_complete_is_harmless():
    sfq = make_scheduler("SFQ")
    sfq.add_flow("f", 1.0)
    sfq.enqueue(Packet("f", 100), 0.0)
    p = sfq.dequeue(0.0)
    sfq.on_service_complete(p, 1.0)
    sfq.on_service_complete(p, 1.0)  # double notify: no crash, no drift
    assert sfq.backlog_packets == 0


# ----------------------------------------------------------------------
# Capacity process failure modes
# ----------------------------------------------------------------------
def test_link_surfaces_stalled_capacity():
    """A capacity that goes dark forever must raise, not hang."""
    sim = Simulator()
    capacity = PiecewiseCapacity.from_list([(0.0, 100.0), (1.0, 0.0)])
    link = Link(sim, FIFO(), capacity)
    sim.at(0.0, lambda: link.send(Packet("f", 500, seqno=0)))
    with pytest.raises(CapacityError):
        sim.run()


def test_capacity_rejects_queries_before_time_zero():
    cap = PiecewiseCapacity.from_list([(0.0, 100.0)])
    with pytest.raises(CapacityError):
        cap.rate_at(-1.0)
    with pytest.raises(CapacityError):
        cap.work(2.0, 1.0)


# ----------------------------------------------------------------------
# Engine misuse
# ----------------------------------------------------------------------
def test_callback_exception_stops_loop_cleanly():
    sim = Simulator()
    fired = []

    def bad():
        raise RuntimeError("injected")

    sim.at(1.0, bad)
    sim.at(2.0, fired.append, "later")
    with pytest.raises(RuntimeError):
        sim.run()
    # The loop is reusable after the failure; pending events survive.
    sim.run()
    assert fired == ["later"]


def test_cancelling_event_from_another_event_same_time():
    sim = Simulator()
    fired = []
    victim = sim.at(1.0, fired.append, "victim", priority=1)
    sim.at(1.0, victim.cancel, priority=0)
    sim.run()
    assert fired == []


def test_massive_cancellation_does_not_leak_heap():
    sim = Simulator()
    events = [sim.at(float(i % 7) + 1.0, lambda: None) for i in range(5000)]
    for event in events[:4999]:
        event.cancel()
    sim.run()
    assert sim.events_processed == 1


# ----------------------------------------------------------------------
# Composite scheduler misuse
# ----------------------------------------------------------------------
def test_priority_bands_empty_list_rejected():
    from repro.core.base import SchedulerError

    with pytest.raises(SchedulerError):
        PriorityBands([])


def test_link_drop_hooks_do_not_fire_for_accepted_packets():
    sim = Simulator()
    link = Link(sim, FIFO(), ConstantCapacity(1000.0), buffer_packets=1)
    dropped = []
    link.drop_hooks.append(lambda p, t: dropped.append(p.seqno))
    sim.at(0.0, lambda: [link.send(Packet("f", 100, seqno=i)) for i in range(3)])
    sim.run()
    assert dropped == [2]
    assert link.packets_transmitted == 2
