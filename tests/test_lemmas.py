"""Direct verification of the paper's Lemmas 1 and 2.

Theorem 1 is proved from two virtual-time window bounds:

* **Lemma 1**: if flow f is backlogged through [t1, t2], then
  ``W_f(t1,t2) >= r_f (v2 - v1) - l_f^max``;
* **Lemma 2**: for *any* interval, ``W_f(t1,t2) <= r_f (v2 - v1) + l_f^max``

with v1 = v(t1), v2 = v(t2). These tests sample (t1, t2) pairs during
live runs, reading the scheduler's v directly — a deeper check than the
fairness bound, which only sees the lemmas' difference.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Packet, make_scheduler
from repro.servers import ConstantCapacity, Link, PiecewiseCapacity, TwoRateSquareWave
from repro.simulation import Simulator

FLOWS = {"f": 500.0, "m": 250.0}
LMAX = {"f": 400, "m": 250}


def run_with_v_samples(capacity, schedule, sample_times):
    """Run SFQ and record v(t) at each sample time."""
    sim = Simulator()
    sfq = make_scheduler("SFQ", auto_register=False)
    for flow, rate in FLOWS.items():
        sfq.add_flow(flow, rate)
    link = Link(sim, sfq, capacity)
    v_samples: Dict[float, float] = {}
    for t in sample_times:
        # priority=1: sample after same-instant arrivals/departures.
        sim.at(t, lambda t=t: v_samples.__setitem__(t, sfq.virtual_time), priority=1)
    counters = {flow: 0 for flow in FLOWS}
    for t, flow, length in schedule:
        seq = counters[flow]
        counters[flow] += 1
        sim.at(t, lambda fl, s, lb: link.send(Packet(fl, lb, seqno=s)), flow, seq, length)
    sim.run()
    return link, v_samples


def backlogged_through(link, flow, t1, t2) -> bool:
    spans = [
        (r.arrival, r.departure)
        for r in link.tracer.for_flow(flow)
        if r.departure is not None
    ]
    t = t1
    for arrival, departure in sorted(spans):
        if arrival > t + 1e-12:
            return False
        t = max(t, departure)
        if t >= t2:
            return True
    return t >= t2


def _greedy_schedule() -> List[Tuple[float, str, int]]:
    schedule = []
    for flow, lmax in LMAX.items():
        for i in range(150):
            schedule.append((0.0, flow, lmax if i % 3 else lmax // 2))
    return schedule


@pytest.mark.parametrize(
    "capacity",
    [
        ConstantCapacity(1000.0),
        TwoRateSquareWave(2000.0, 0.5, 0.0, 0.5),
    ],
    ids=["constant", "square-wave"],
)
def test_lemma1_and_lemma2_on_greedy_run(capacity):
    sample_times = [i * 2.0 for i in range(0, 30)]
    link, v_samples = run_with_v_samples(capacity, _greedy_schedule(), sample_times)
    checked_l1 = 0
    for i, t1 in enumerate(sample_times):
        for t2 in sample_times[i + 1 :]:
            if t1 not in v_samples or t2 not in v_samples:
                continue
            v1, v2 = v_samples[t1], v_samples[t2]
            for flow, rate in FLOWS.items():
                work = link.tracer.work_in_interval(flow, t1, t2)
                # Lemma 2: upper bound holds unconditionally.
                assert work <= rate * (v2 - v1) + LMAX[flow] + 1e-6
                # Lemma 1: lower bound needs continuous backlog.
                if backlogged_through(link, flow, t1, t2):
                    checked_l1 += 1
                    assert work >= rate * (v2 - v1) - LMAX[flow] - 1e-6
    assert checked_l1 > 20  # the lower bound was genuinely exercised


@settings(max_examples=20, deadline=None)
@given(
    data=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
            st.sampled_from(["f", "m"]),
            st.integers(min_value=50, max_value=400),
        ),
        min_size=5,
        max_size=40,
    )
)
def test_lemma2_upper_bound_random_workloads(data):
    """Lemma 2 holds for ANY interval on any workload."""
    sample_times = [0.0, 2.5, 5.0, 7.5, 10.0, 15.0, 25.0]
    link, v_samples = run_with_v_samples(
        ConstantCapacity(1000.0), sorted(data), sample_times
    )
    for i, t1 in enumerate(sample_times):
        for t2 in sample_times[i + 1 :]:
            if t1 not in v_samples or t2 not in v_samples:
                continue
            v1, v2 = v_samples[t1], v_samples[t2]
            for flow, rate in FLOWS.items():
                work = link.tracer.work_in_interval(flow, t1, t2)
                assert work <= rate * (v2 - v1) + 400 + 1e-6
