"""Conservation and protocol tests for the deadline-based schedulers
(DelayEDD and JitterEDD), which the generic matrix skips because they
need per-flow deadline registration."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import JitterEDD, Packet, make_scheduler
from repro.servers import ConstantCapacity, Link
from repro.simulation import Simulator

arrivals = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        st.sampled_from(["u", "v"]),
        st.sampled_from([100, 200]),
    ),
    min_size=1,
    max_size=40,
)


def _registered(make):
    sched = make()
    sched.add_flow_with_deadline("u", rate=300.0, deadline=0.5)
    sched.add_flow_with_deadline("v", rate=600.0, deadline=1.5)
    return sched


@settings(max_examples=25, deadline=None)
@given(schedule=arrivals, which=st.sampled_from(["DelayEDD", "JitterEDD"]))
def test_edd_variants_conserve_packets(schedule, which):
    sim = Simulator()
    sched = _registered(lambda: make_scheduler(which, auto_register=False))
    link = Link(sim, sched, ConstantCapacity(1000.0))
    counters = {"u": 0, "v": 0}
    for t, flow, length in sorted(schedule):
        seq = counters[flow]
        counters[flow] += 1
        sim.at(t, lambda fl, s, lb: link.send(Packet(fl, lb, seqno=s)), flow, seq, length)
    sim.run()
    for flow, count in counters.items():
        records = link.tracer.departed(flow)
        assert len(records) == count
        by_start = sorted(records, key=lambda r: r.start_service)
        assert [r.seqno for r in by_start] == sorted(r.seqno for r in records)
    assert sched.backlog_packets == 0


@settings(max_examples=20, deadline=None)
@given(schedule=arrivals)
def test_jitter_edd_never_serves_before_eat(schedule):
    """The regulator's whole point: service start >= the packet's EAT."""
    sim = Simulator()
    sched = _registered(JitterEDD)
    link = Link(sim, sched, ConstantCapacity(1000.0))
    counters = {"u": 0, "v": 0}
    for t, flow, length in sorted(schedule):
        seq = counters[flow]
        counters[flow] += 1
        sim.at(t, lambda fl, s, lb: link.send(Packet(fl, lb, seqno=s)), flow, seq, length)
    sim.run()
    from repro.analysis.delay_bounds import expected_arrival_times

    rates = {"u": 300.0, "v": 600.0}
    for flow in ("u", "v"):
        records = sorted(link.tracer.departed(flow), key=lambda r: r.seqno)
        eats = expected_arrival_times(
            [r.arrival for r in records],
            [r.length for r in records],
            [rates[flow]] * len(records),
        )
        for record, eat in zip(records, eats):
            assert record.start_service >= eat - 1e-9
