"""Bench: per-packet scheduling cost vs number of flows.

The paper's complexity claims: SFQ and SCFQ are O(log Q) per packet
(tag computation is O(1), the priority queue costs the log); DRR is
O(1); WFQ pays the fluid GPS simulation on top of its O(log Q) heap.
These are real pytest-benchmark micro-benchmarks: each measures one
enqueue+dequeue+complete cycle over a standing population of Q
backlogged flows.

``test_cost_flat_in_backlog_depth`` is the hard gate for the flow-head
heap rewrite: with the flow count pinned, deepening every flow's
backlog 10x must leave per-packet cost within 20% — the cost is
O(log F) in backlogged *flows*, not O(log N) in queued *packets* (the
seed core's global packet heap). Skipped under ``--benchmark-disable``
(CI smoke mode).
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.core import Packet, make_scheduler
from repro.experiments.bench import _per_packet_seconds

FLOW_COUNTS = [16, 256]

MAKERS = {
    "SFQ": lambda: make_scheduler("SFQ", auto_register=False),
    "SCFQ": lambda: make_scheduler("SCFQ", auto_register=False),
    "WFQ": lambda: make_scheduler("WFQ", capacity=1e6, auto_register=False),
    "VirtualClock": lambda: make_scheduler("VirtualClock", auto_register=False),
    "DRR": lambda: make_scheduler("DRR", quantum_scale=1000.0, auto_register=False),
    "FIFO": lambda: make_scheduler("FIFO", auto_register=False),
    # Appendix B claims FA's complexity matches dynamic-priority
    # algorithms (O(log Q)); the release heap makes that true here too.
    "FairAirport": lambda: make_scheduler("FairAirport", auto_register=False),
}


def build_loaded_scheduler(name: str, n_flows: int):
    """Scheduler with n_flows registered and 4 packets queued each."""
    rng = random.Random(17)
    sched = MAKERS[name]()
    for i in range(n_flows):
        sched.add_flow(f"f{i}", 1000.0 + i)
    uid = itertools.count()
    for i in range(n_flows):
        for j in range(4):
            sched.enqueue(Packet(f"f{i}", rng.choice((400, 800)), seqno=j), 0.0)
    return sched


@pytest.mark.parametrize("n_flows", FLOW_COUNTS)
@pytest.mark.parametrize("algorithm", sorted(MAKERS))
def test_per_packet_cost(benchmark, algorithm, n_flows):
    sched = build_loaded_scheduler(algorithm, n_flows)
    clock = itertools.count()
    seq = itertools.count(1000)
    rng = random.Random(23)
    flow_ids = [f"f{i}" for i in range(n_flows)]

    def cycle():
        now = float(next(clock)) * 1e-3
        packet = sched.dequeue(now)
        sched.on_service_complete(packet, now)
        # Refill the flow we just drained to keep the population stable.
        sched.enqueue(
            Packet(rng.choice(flow_ids), 400, seqno=next(seq)), now
        )

    benchmark.group = f"per-packet cost, Q={n_flows}"
    benchmark(cycle)


# ----------------------------------------------------------------------
# Hard gate: cost is O(log F) in flows, not O(log N) in packets
# ----------------------------------------------------------------------
@pytest.mark.parametrize("algorithm", ["SFQ", "SCFQ", "VirtualClock"])
def test_cost_flat_in_backlog_depth(request, algorithm):
    """16 flows; growing per-flow backlog 4 -> 40 (total packets 64 ->
    640) changes per-packet cost by <20%.

    The seed core's global packet heap pays log(total backlog) per
    operation plus a stale-uid skim; the flow-head heap compares only
    the 16 flow heads regardless of queue depth.
    """
    if request.config.getoption("benchmark_disable"):
        pytest.skip("timing assertions disabled in smoke mode")
    factory = MAKERS[algorithm]
    cycles = 20_000
    repeats = 5
    # Interleave the two depths repeat by repeat, alternating which goes
    # first, so a drift in host speed lands on both sides of the ratio.
    samples = {4: [], 40: []}
    for r in range(repeats):
        for backlog in (4, 40) if r % 2 == 0 else (40, 4):
            samples[backlog].append(_per_packet_seconds(factory, 16, backlog, cycles))
    costs = {backlog: min(s) / cycles for backlog, s in samples.items()}
    ratio = costs[40] / costs[4]
    assert ratio < 1.2, (
        f"{algorithm}: per-packet cost grew {ratio:.2f}x when per-flow "
        f"backlog grew 10x (must stay <1.2x): "
        f"{costs[4] * 1e9:.0f}ns -> {costs[40] * 1e9:.0f}ns"
    )
