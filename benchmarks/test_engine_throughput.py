"""Bench: raw event-engine throughput, seed vs optimized.

Not a paper artifact, but the number that decides whether laptop-scale
reproduction of the paper's 1000-second simulations is practical: how
many events per second the loop sustains, and how event cost scales
with heap population.

Two kinds of test live here:

* pytest-benchmark microbenchmarks (timing tables for humans);
* hard comparative gates against the frozen seed implementations under
  ``tests/reference/`` — the optimized engine must dispatch >=1.5x
  faster than the seed at 4096 pending events, and the end-to-end SFQ
  pipeline must push >=1.5x the packets/wall-second with tracing
  disabled. The gates are skipped under ``--benchmark-disable`` (CI
  smoke mode: exercise the code, don't trust a shared runner's clock).
"""

from __future__ import annotations

import time

import pytest

from repro.core import Packet, make_scheduler
from repro.experiments.bench import _load_reference
from repro.servers import ConstantCapacity, Link
from repro.simulation import NullTracer, Simulator, Tracer


def _timing_gated(request) -> None:
    if request.config.getoption("benchmark_disable"):
        pytest.skip("timing assertions disabled in smoke mode")


def _noop() -> None:
    return None


def _dispatch_seconds(sim, schedule_next, ops: int, pending: int) -> float:
    """Seconds to schedule+fire ``ops`` chained events over ``pending``
    ballast events.

    Each fired event schedules its successor, so the heap holds exactly
    ``pending + 1`` entries throughout — the steady-state shape of a
    simulation with ``pending`` armed timers.
    """
    for i in range(pending):
        sim.at(1e12 + i, _noop)
    remaining = [ops]

    def tick() -> None:
        n = remaining[0] - 1
        remaining[0] = n
        if n:
            schedule_next(sim.now + 1.0, tick)

    t0 = time.perf_counter()
    schedule_next(1.0, tick)
    sim.run(until=float(ops + 1))
    elapsed = time.perf_counter() - t0
    assert remaining[0] == 0, "dispatch bench did not drain its chain"
    return elapsed


def bench_dispatch(ops: int, repeats: int) -> dict:
    """Seed-vs-optimized event dispatch cost at 16 and 4096 pending."""
    LegacySimulator, _ = _load_reference()
    out = {}
    for pending in (16, 4096):
        def seed_run() -> float:
            sim = LegacySimulator()
            return _dispatch_seconds(sim, sim.at, ops, pending)

        def fast_run() -> float:
            sim = Simulator()
            return _dispatch_seconds(sim, sim.call_at, ops, pending)

        seed = min(seed_run() for _ in range(repeats)) / ops
        fast = min(fast_run() for _ in range(repeats)) / ops
        out[f"pending={pending}"] = {
            "seed_ns_per_event": round(seed * 1e9, 1),
            "optimized_ns_per_event": round(fast * 1e9, 1),
            "speedup": round(seed / fast, 3),
        }
    return out


def _pipeline_seconds(sim_cls, sched_factory, tracer, packets_per_flow: int) -> float:
    """Seconds to push 8 flows x ``packets_per_flow`` packets through a
    saturated SFQ link (the whole stack: engine + scheduler + link)."""
    n_flows = 8
    sim = sim_cls()
    sched = sched_factory()
    for i in range(n_flows):
        sched.add_flow(f"f{i}", 1000.0)
    link = Link(sim, sched, ConstantCapacity(8000.0), tracer=tracer)
    for i in range(n_flows):
        flow = f"f{i}"
        for s in range(packets_per_flow):
            sim.at(s * 0.05, link.send, Packet(flow, 100, seqno=s))
    t0 = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - t0
    assert link.packets_transmitted == n_flows * packets_per_flow
    return elapsed


def bench_pipeline(packets_per_flow: int, repeats: int) -> dict:
    """Seed-vs-optimized end-to-end SFQ link pipeline throughput."""
    LegacySimulator, LegacySFQ = _load_reference()
    total = 8 * packets_per_flow

    def seed_run() -> float:
        # Seed configuration: seed engine, seed SFQ core, and the
        # always-on record-per-packet tracer the seed Link mandated.
        return _pipeline_seconds(
            LegacySimulator,
            lambda: LegacySFQ(auto_register=False),
            Tracer("bench"),
            packets_per_flow,
        )

    def fast_run() -> float:
        # Optimized configuration with tracing disabled (the opt-in
        # zero-cost path): PIFO-engine SFQ + the engine's fast loop
        # with busy-period timer elision.
        return _pipeline_seconds(
            Simulator,
            lambda: make_scheduler("SFQ", auto_register=False),
            NullTracer(),
            packets_per_flow,
        )

    seed = min(seed_run() for _ in range(repeats))
    fast = min(fast_run() for _ in range(repeats))
    return {
        "seed_pkts_per_sec": round(total / seed),
        "optimized_pkts_per_sec": round(total / fast),
        "speedup": round(seed / fast, 3),
    }


@pytest.mark.parametrize("pending", [16, 4096])
def test_event_dispatch_cost(benchmark, pending):
    """Cost of one schedule+fire cycle with `pending` events queued."""
    sim = Simulator()
    clock = [0.0]
    for i in range(pending):
        sim.at(1e12 + i, lambda: None)  # far-future ballast

    def cycle():
        clock[0] += 1.0
        sim.call_at(clock[0], lambda: None)
        sim.run(until=clock[0])

    benchmark.group = "engine: schedule+fire"
    benchmark(cycle)


def test_end_to_end_simulation_rate(benchmark):
    """Packets per wall-second through a full SFQ link pipeline."""

    def run_chunk():
        sim = Simulator()
        sched = make_scheduler("SFQ", auto_register=False)
        for i in range(8):
            sched.add_flow(f"f{i}", 1000.0)
        link = Link(sim, sched, ConstantCapacity(8000.0), tracer=NullTracer())
        for i in range(8):
            for s in range(125):
                sim.call_at(0.0, link.send, Packet(f"f{i}", 100, seqno=s))
        sim.run()
        assert link.packets_transmitted == 1000

    benchmark.group = "engine: full pipeline"
    benchmark(run_chunk)


# ----------------------------------------------------------------------
# Comparative gates vs the frozen seed engine/core
# ----------------------------------------------------------------------
def test_dispatch_speedup_vs_seed(request):
    """Optimized dispatch >=1.5x the seed's at 4096 pending events.

    The fire-and-forget tuple path plus the hoisted run loop measure
    ~3x on an idle machine; 1.5x is the acceptance floor with margin
    for noisy runners.
    """
    _timing_gated(request)
    result = bench_dispatch(ops=20_000, repeats=3)
    speedup = result["pending=4096"]["speedup"]
    assert speedup >= 1.5, (
        f"engine dispatch at 4096 pending is only {speedup:.2f}x the seed "
        f"(floor 1.5x): {result}"
    )


def test_pipeline_speedup_vs_seed(request):
    """End-to-end SFQ link pipeline >=1.5x packets/wall-second with
    tracing disabled, against the seed engine + seed SFQ + seed
    always-on tracer."""
    _timing_gated(request)
    result = bench_pipeline(packets_per_flow=500, repeats=3)
    assert result["speedup"] >= 1.5, (
        f"SFQ pipeline is only {result['speedup']:.2f}x the seed "
        f"(floor 1.5x): {result}"
    )
