"""The §2.5 scheduling-cost curve: ``python -m repro bench``.

The paper's efficiency argument is O(1) tag work plus one priority-queue
operation per packet. The engine keeps one heap entry per backlogged
flow (O(log F)); the frozen seed core under ``tests/reference/`` keeps
one per queued packet (O(log N)). This module measures SFQ's per-packet
cost for both as the per-flow backlog deepens with the flow count
pinned, and writes the curve to ``BENCH_schedulers.json``, which
``repro.analysis.report`` renders into REPORT.md.

Each repeat times the seed and the engine back to back, alternating
which goes first, so both see the same machine state; each point
reports the two medians and their ratio. Nanoseconds are
machine-dependent: read the ratio and the shape of the curve.

This is not a regression gate. Speed is measured and gated against the
seed by ``perfbench/`` (see ``BENCHMARK.json``).
"""

from __future__ import annotations

import json
import platform
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.core import Packet
from repro.core.registry import make_scheduler

__all__ = ["run_bench"]

#: Flow count held fixed while the per-flow backlog deepens.
CURVE_FLOWS = 16
#: Per-flow backlogs of the curve: N = 32 ... 8192 queued packets.
CURVE_BACKLOGS = (2, 8, 32, 128, 512)


def _load_reference():
    """The frozen seed engine and SFQ core from ``tests/reference/``.

    Loaded lazily so the library never depends on the test tree; the
    seed comparison is the point, so a checkout without it refuses to
    run.
    """
    try:
        from tests.reference import legacy_cores, legacy_engine
    except ImportError:
        root = Path(__file__).resolve().parents[3]
        if not (root / "tests" / "reference").is_dir():
            raise RuntimeError(
                "tests/reference/ (frozen seed implementations) not found; "
                "run the bench from a repo checkout"
            )
        sys.path.insert(0, str(root))
        from tests.reference import legacy_cores, legacy_engine
    return legacy_engine.LegacySimulator, legacy_cores.LegacySFQ


def _per_packet_seconds(factory, n_flows: int, backlog: int, cycles: int) -> float:
    """Seconds per dequeue+complete+enqueue cycle at a standing
    population of ``n_flows`` flows x ``backlog`` packets each."""
    sched = factory()
    for i in range(n_flows):
        sched.add_flow(f"f{i}", 1000.0 + i)
    for i in range(n_flows):
        flow = f"f{i}"
        for j in range(backlog):
            sched.enqueue(Packet(flow, 400 if j % 2 else 800, seqno=j), 0.0)
    seq = backlog
    now = 0.0
    t0 = time.perf_counter()
    for _ in range(cycles):
        now += 1e-3
        packet = sched.dequeue(now)
        sched.on_service_complete(packet, now)
        # Refill the flow just served: the population stays exactly
        # n_flows x backlog, so the heap shape is steady-state.
        sched.enqueue(Packet(packet.flow, 400, seqno=seq), now)
        seq += 1
    return time.perf_counter() - t0


def run_bench(
    output_dir: Optional[str] = None,
    backlogs: Sequence[int] = CURVE_BACKLOGS,
    cycles: int = 20_000,
    repeats: int = 9,
) -> dict:
    """Measure the SFQ backlog curve; write ``BENCH_schedulers.json``.

    For each per-flow backlog, ``repeats`` rounds each time ``cycles``
    cycles of the seed core and of the engine, alternating the order.
    """
    _, legacy_sfq = _load_reference()
    factories = {
        "seed": lambda: legacy_sfq(auto_register=False),
        "engine": lambda: make_scheduler("SFQ", auto_register=False),
    }
    curve = []
    for backlog in backlogs:
        samples: Dict[str, List[float]] = {side: [] for side in factories}
        for r in range(repeats):
            order = ("seed", "engine") if r % 2 == 0 else ("engine", "seed")
            for side in order:
                seconds = _per_packet_seconds(
                    factories[side], CURVE_FLOWS, backlog, cycles
                )
                samples[side].append(seconds / cycles)
        seed = statistics.median(samples["seed"])
        engine = statistics.median(samples["engine"])
        curve.append(
            {
                "per_flow_backlog": backlog,
                "total_packets": CURVE_FLOWS * backlog,
                "seed_ns_per_packet": round(seed * 1e9, 1),
                "engine_ns_per_packet": round(engine * 1e9, 1),
                "seed_over_engine": round(seed / engine, 3),
            }
        )
    payload = {
        "python": platform.python_version(),
        "flows": CURVE_FLOWS,
        "cycles": cycles,
        "repeats": repeats,
        "sfq_backlog_curve": curve,
    }
    out_dir = Path(output_dir) if output_dir is not None else Path.cwd()
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "BENCH_schedulers.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {path}")
    return payload
