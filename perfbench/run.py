"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload link_sfq_mix --seed 3 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: each
repeat builds the frozen seed and the current code on the same arrivals
and runs the two in lockstep, slice by slice, until ``--seconds`` have
passed; a swing in the host's speed then falls on both alike. Times are
this process's CPU time, calibrated by :func:`speed_probe` to a
reference host (see ``README.md``). ``--trace 1``
alternates untraced and traced repeats of the current code and reports
the per-layer ledger. Either way a warm-up at the default seed comes
first (its departure digest must match the pin in ``pins.json``), and
every repeat checks its own output. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 1 when any check failed and 2 when the repository's
``src/`` and ``tests/reference/`` are not beside this directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import sys
import traceback
import tracemalloc
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent

#: Repeats made even when ``--seconds`` runs out first.
MIN_REPEATS = 2
#: Largest tolerated share of a traced run's host time that neither a
#: span nor the engine's gaps account for.
LEDGER_TOLERANCE = 0.01

#: The host the end-to-end times are calibrated to: one on which
#: :func:`speed_probe` takes this long.
REFERENCE_PROBE_S = 0.003


def speed_probe():
    """Host seconds for a fixed piece of pure-Python work.

    It runs between the slices of every timed repeat. Shared hosts
    change speed by more than half within seconds (a busy hyperthread
    sibling, say), and this work slows down with the simulator, so the
    ratio of the two cancels the swing.
    """
    start = process_time()
    table = {}
    acc = 0
    for i in range(20_000):
        table[i & 1023] = acc
        acc += i * i % 7
    return process_time() - start

UNITS = {
    "pkts_per_s": "1/s",
    "events_per_s": "1/s",
    "ns_per_pkt_p50": "ns",
    "ns_per_pkt_p99": "ns",
    "setup_s": "s",
    "wall_s": "s",
    "peak_mem_per_flow_b": "B",
    "speedup_vs_seed": "ratio",
}


def quartiles(values):
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def fingerprint():
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


class Session:
    """Executes workload repeats and counts them as operations."""

    def __init__(self, name):
        from perfbench import workloads

        self.name = name
        self.build = workloads.WORKLOADS[name]
        self.workloads = workloads
        self.attempted = 0
        self.failed = 0

    def execute(self, seed, impl="current", probe=None, expect=None):
        """One repeat of ``impl`` alone; see :meth:`lockstep`."""
        return self.lockstep(seed, (impl,), probe, expect)[0]

    def lockstep(self, seed, impls, probe=None, expect=None):
        """One repeat of each of ``impls``, their runs interleaved.

        A repeat fails if a check fails, it raises, or its departure
        digest differs from ``expect`` (or from the first repeat's).
        Interleaved repeats record the median :func:`speed_probe` time
        between their slices as ``probe_s``.
        """
        probes = []
        gc.collect()
        self.attempted += len(impls)
        try:
            scenarios = [
                self.build(seed, impl) if probe is None
                else self.build(seed, impl, probe)
                for impl in impls
            ]
            # Set-up objects sit out the runs' garbage collections, so a
            # full collection in one simulation's slice does not walk
            # the other simulation's flows.
            gc.freeze()
            try:
                if len(scenarios) == 1:
                    self.workloads.run_alone(scenarios[0])
                else:
                    self.workloads.run_lockstep(
                        scenarios, lambda: probes.append(speed_probe())
                    )
            finally:
                gc.unfreeze()
            outcomes = [scenario.finish() for scenario in scenarios]
            for outcome in outcomes:
                outcome.probe_s = statistics.median(probes) if probes else 0.0
        except Exception:
            self.failed += len(impls)
            print(f"CHECK FAILED [{self.name} seed={seed}]: raised", file=sys.stderr)
            traceback.print_exc()
            return [None] * len(impls)
        for impl, outcome in zip(impls, outcomes):
            failures = list(outcome.failures)
            if expect is not None and outcome.digest != expect:
                failures.append(f"departure digest {outcome.digest} != {expect}")
            expect = expect or outcome.digest
            if failures:
                self.failed += 1
                for failure in failures:
                    print(
                        f"CHECK FAILED [{self.name} {impl} seed={seed}]: {failure}",
                        file=sys.stderr,
                    )
        return outcomes

    def fail(self, message):
        self.attempted += 1
        self.failed += 1
        print(f"CHECK FAILED [{self.name}]: {message}", file=sys.stderr)


def warm_up(session, pins, impls):
    """One repeat at the default seed, checked against its pinned digest."""
    session.lockstep(
        pins["default_seed"], impls, expect=pins["digests"][session.name]
    )


def end_to_end(session, seed, seconds):
    """Timed repeats: seed and current in lockstep on the same arrivals."""
    current, ratios = [], []
    digest = None  # every repeat of either code must depart identically
    start = perf_counter()
    k = 0
    while k < MIN_REPEATS or perf_counter() - start < seconds:
        k += 1
        cur, ref = session.lockstep(seed, ("current", "seed"), expect=digest)
        if cur is not None and ref is not None:
            digest = digest or cur.digest
            current.append(cur)
            ratios.append(ref.run_s / cur.run_s)
    if not current:
        return {}, {}, {}
    # Host times, calibrated to the reference host: each repeat's
    # figures are scaled by how fast the speed probe ran beside it.
    scale = [REFERENCE_PROBE_S / o.probe_s for o in current]
    samples = {
        "pkts_per_s": [o.departures / o.run_s / f for o, f in zip(current, scale)],
        "events_per_s": [o.events / o.run_s / f for o, f in zip(current, scale)],
        "setup_s": [o.setup_s * f for o, f in zip(current, scale)],
        "wall_s": [o.wall_s * f for o, f in zip(current, scale)],
        "speedup_vs_seed": ratios,
    }
    for o, f in zip(current, scale):
        if len(o.chunk_ns) < 1000:
            session.fail(f"only {len(o.chunk_ns)} timing chunks; p99 needs 1000")
        chunks = [ns * f for ns in o.chunk_ns]
        for name, q in (("ns_per_pkt_p50", 0.50), ("ns_per_pkt_p99", 0.99)):
            samples.setdefault(name, []).append(percentile(chunks, q))
    values = {name: statistics.median(v) for name, v in samples.items()}
    gc.collect()
    tracemalloc.start()
    try:
        outcome = session.execute(seed, expect=digest)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if outcome is not None:
        values["peak_mem_per_flow_b"] = peak / outcome.flows
        samples["peak_mem_per_flow_b"] = [values["peak_mem_per_flow_b"]]
    host = {
        "timing_chunks_per_repeat": min(len(o.chunk_ns) for o in current),
        "speed_probe_s": statistics.median(o.probe_s for o in current),
        "pkts_per_s": statistics.median(o.departures / o.run_s for o in current),
        "setup_s": statistics.median(o.setup_s for o in current),
        "wall_s": statistics.median(o.wall_s for o in current),
    }
    return values, samples, host


def layers(ledger, outcome):
    """The per-layer metrics of one traced repeat."""
    get = ledger.get
    run_s = ledger.run_s
    sample = ledger.samples
    core_run = sum(
        get(f"{prefix}.{op}")
        for prefix in ("core", "core.hierarchical")
        for op in ("enqueue", "dequeue", "on_service_complete")
    )
    engine = ledger.engine_gap_s + get("simulation.engine.schedule")
    return {
        "simulation.engine.self_s": engine,
        "simulation.engine.events": outcome.events,
        "simulation.engine.ns_per_event": engine / outcome.events * 1e9,
        "core.enqueue.calls": get("core.enqueue", 0),
        "core.enqueue.self_s": get("core.enqueue"),
        "core.enqueue.ns_p50": statistics.median(sample["core.enqueue"]) * 1e9,
        "core.dequeue.calls": get("core.dequeue", 0),
        "core.dequeue.self_s": get("core.dequeue"),
        "core.dequeue.ns_p50": statistics.median(sample["core.dequeue"]) * 1e9,
        "core.on_service_complete.self_s": get("core.on_service_complete"),
        "core.share": core_run / run_s,
        "core.add_flow.self_s": get("core.add_flow"),
        "core.hierarchical.attach_flow.self_s": get("core.hierarchical.attach_flow"),
        "core.hierarchical.detach_flow.self_s": get("core.hierarchical.detach_flow"),
        "core.hierarchical.self_s": sum(
            get(f"core.hierarchical.{op}")
            for op in ("enqueue", "dequeue", "on_service_complete")
        ),
        "servers.link.send.self_s": get("servers.link.send"),
        "servers.link.complete.self_s": get("servers.link.complete"),
        "servers.link.drops": outcome.counts.get("drops", 0),
        "traffic.fire.self_s": get("traffic.fire"),
        "traffic.generate_s": get("traffic.generate"),
        "network.forward.self_s": get("network.forward"),
        "transport.tcp.on_ack.self_s": get("transport.tcp.on_ack"),
        "transport.tcp.on_packet.self_s": get("transport.tcp.on_packet"),
        "transport.tcp.timer.self_s": get("transport.tcp.timer"),
        "transport.tcp.timeouts": outcome.counts.get("timeouts", 0),
        "transport.tcp.retransmissions": outcome.counts.get("retransmissions", 0),
        "simulation.tracing.record.self_s": get("simulation.tracing.record"),
        "metrics.hub.update.self_s": get("metrics.hub.update"),
        "metrics.snapshot_s": get("metrics.snapshot"),
        "faults.monitor.self_s": get("faults.monitor"),
        "analysis.fairness_s": get("analysis.fairness"),
        "analysis.delay_bounds_s": get("analysis.delay_bounds"),
        "ledger.unattributed_frac": ledger.reconcile(outcome.run_wall_s),
    }


LAYER_UNITS = {
    "calls": "count", "events": "count", "drops": "count",
    "timeouts": "count", "retransmissions": "count",
    "ns_p50": "ns", "ns_per_event": "ns",
    "share": "frac", "unattributed_frac": "frac", "trace_overhead_pct": "%",
}


def layer_unit(name):
    return LAYER_UNITS.get(name.rsplit(".", 1)[-1], "s")


def per_layer(session, seed, seconds, spans_path):
    """Untraced and traced repeats, alternating; the ledger of the traced."""
    from perfbench.ledger import Ledger, Probe

    plain, traced = [], []
    last = digest = None  # tracing must not change a single departure
    start = perf_counter()
    k = 0
    while k < MIN_REPEATS or perf_counter() - start < seconds:
        k += 1
        outcome = session.execute(seed, expect=digest)
        if outcome is not None:
            plain.append(outcome)
            digest = digest or outcome.digest
        ledger = Ledger()
        outcome = session.execute(seed, "current", Probe(ledger), expect=digest)
        if outcome is None:
            continue
        frac = ledger.reconcile(outcome.run_wall_s)
        if frac > LEDGER_TOLERANCE:
            session.fail(
                f"ledger does not reconcile: {frac:.2%} of the traced run "
                f"unattributed (tolerance {LEDGER_TOLERANCE:.0%})"
            )
        traced.append((outcome, layers(ledger, outcome)))
        last = ledger
    if not traced or not plain:
        return {}, {}, {}
    samples = {name: [m[name] for _, m in traced] for name in traced[0][1]}
    samples["ledger.trace_overhead_pct"] = [
        (o.wall_s / statistics.median(p.wall_s for p in plain) - 1.0) * 100.0
        for o, _ in traced
    ]
    values = {name: statistics.median(v) for name, v in samples.items()}
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    spans_path.write_text(json.dumps(last.to_json()))
    return values, samples, {}


def report(name, seed, values, samples, units, host):
    """Human-readable metrics, then the noise report as one JSON line.

    ``host`` holds uncalibrated medians, for reading beside the metrics.
    """
    noise = {}
    for metric in sorted(values):
        q1, median, q3 = quartiles(samples.get(metric, [values[metric]]))
        noise[metric] = {
            "value": values[metric], "median": median, "q1": q1, "q3": q3,
            "samples": len(samples.get(metric, [])), "unit": units(metric),
        }
        print(
            f"{name:20s} {metric:40s} {values[metric]:16.6g} "
            f"{units(metric):6s} q1={q1:.6g} q3={q3:.6g} "
            f"n={len(samples.get(metric, []))}"
        )
    print("noise-report " + json.dumps({
        "workload": name, "seed": seed, "machine": fingerprint(),
        "metrics": noise, "uncalibrated": host,
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro").is_dir() or not (ROOT / "tests" / "reference").is_dir():
        print(
            f"perfbench: {src / 'repro'} and {ROOT / 'tests' / 'reference'} "
            "are required; run from a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(src), str(ROOT)]

    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    pins = json.loads((Path(__file__).parent / "pins.json").read_text())
    session = Session(args.workload)
    warm_up(session, pins, ("current",) if args.trace else ("current", "seed"))
    if args.trace:
        spans = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-spans.json"
        values, samples, host = per_layer(session, args.seed, args.seconds, spans)
        units = layer_unit
    else:
        values, samples, host = end_to_end(session, args.seed, args.seconds)
        units = UNITS.get
    report(args.workload, args.seed, values, samples, units, host)
    correct = session.failed == 0 and bool(values)
    print(json.dumps({
        "correct": correct,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {
            name: {"value": value, "unit": units(name)}
            for name, value in values.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
