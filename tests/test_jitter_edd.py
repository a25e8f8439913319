"""Tests for Jitter EDD and the non-work-conserving Link wake-up path."""

from __future__ import annotations

import pytest

from repro.core import JitterEDD, Packet
from repro.core.base import SchedulerError
from repro.servers import ConstantCapacity, Link
from repro.simulation import Simulator


def make():
    jedd = JitterEDD()
    jedd.add_flow_with_deadline("f", rate=100.0, deadline=0.5)
    jedd.add_flow_with_deadline("g", rate=100.0, deadline=2.0)
    return jedd


def test_packet_held_until_eat():
    jedd = make()
    # Two back-to-back packets: the second's EAT is 1s later.
    jedd.enqueue(Packet("f", 100, seqno=0), 0.0)
    jedd.enqueue(Packet("f", 100, seqno=1), 0.0)
    assert jedd.dequeue(0.0).seqno == 0
    # Second packet's EAT = 1.0: not eligible yet.
    assert jedd.dequeue(0.5) is None
    assert jedd.backlog_packets == 1
    assert jedd.dequeue(1.0).seqno == 1


def test_next_eligible_time_reports_held_packet():
    jedd = make()
    jedd.enqueue(Packet("f", 100, seqno=0), 0.0)
    jedd.enqueue(Packet("f", 100, seqno=1), 0.0)
    jedd.dequeue(0.0)
    assert jedd.next_eligible_time(0.2) == pytest.approx(1.0)
    assert jedd.next_eligible_time(1.5) == 1.5  # already eligible: now
    jedd.dequeue(1.5)
    assert jedd.next_eligible_time(2.0) is None


def test_eligible_packets_served_edf():
    jedd = make()
    # Both eligible immediately; f has the tighter deadline.
    jedd.enqueue(Packet("g", 100, seqno=0), 0.0)
    jedd.enqueue(Packet("f", 100, seqno=0), 0.0)
    assert jedd.dequeue(0.0).flow == "f"
    assert jedd.dequeue(0.0).flow == "g"


def test_non_work_conserving_on_link():
    """The link must sleep through ineligibility and wake itself."""
    sim = Simulator()
    jedd = make()
    link = Link(sim, jedd, ConstantCapacity(1000.0))
    sim.at(0.0, lambda: [link.send(Packet("f", 100, seqno=i)) for i in range(3)])
    sim.run()
    departures = [r.departure for r in sorted(
        link.tracer.departed("f"), key=lambda r: r.seqno)]
    # EATs are 0, 1, 2; service 0.1s each: departures 0.1, 2.1... wait:
    # EAT spacing is l/r = 1s, so packets start at 0, 1, 2.
    assert departures == [
        pytest.approx(0.1),
        pytest.approx(1.1),
        pytest.approx(2.1),
    ]
    # The link idled between services although work was queued — the
    # defining non-work-conserving trait (SFQ would finish by 0.3s).
    assert link.busy_periods[0][1] < 0.2


def test_jitter_removal_restores_spacing():
    """Bursty arrivals leave the regulator at declared spacing."""
    sim = Simulator()
    jedd = JitterEDD()
    jedd.add_flow_with_deadline("f", rate=1000.0, deadline=0.05)
    link = Link(sim, jedd, ConstantCapacity(100_000.0))
    # Jittered arrivals: 5 packets all at once (upstream burst).
    sim.at(0.0, lambda: [link.send(Packet("f", 100, seqno=i)) for i in range(5)])
    sim.run()
    starts = [r.start_service for r in sorted(
        link.tracer.departed("f"), key=lambda r: r.seqno)]
    gaps = [b - a for a, b in zip(starts, starts[1:])]
    assert all(g == pytest.approx(0.1, abs=1e-6) for g in gaps)


def test_requires_deadline_registration():
    jedd = JitterEDD()
    jedd.add_flow("f", 1.0)
    with pytest.raises(SchedulerError):
        jedd.enqueue(Packet("f", 100), 0.0)
    with pytest.raises(SchedulerError):
        jedd.add_flow_with_deadline("g", 1.0, 0.0)


def test_work_conserving_scheduler_next_eligible_is_none():
    from repro.core import make_scheduler

    sfq = make_scheduler("SFQ")
    sfq.add_flow("f", 1.0)
    sfq.enqueue(Packet("f", 100), 0.0)
    assert sfq.next_eligible_time(0.0) is None
