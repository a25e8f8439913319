"""The observation path — tracer, metrics hub and invariant monitors —
must record exactly the same thing however cheaply it runs.

The expected values at the bottom were recorded before the path was
optimised. Any change to what is observed, rather than to how fast it
is observed, shows up here first.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.pifo import PifoScheduler, SfqRank
from repro.core.registry import make_scheduler
from repro.faults import LinkOutage, WeightReconfig, install_monitors
from repro.faults.monitors import VirtualTimeMonitor
from repro.metrics import MetricsSession
from repro.network import Tandem
from repro.servers.base import ConstantCapacity
from repro.servers.link import Link
from repro.simulation import Simulator
from repro.traffic.cbr import CBRSource
from repro.transport import TcpReceiver, TcpSender
from tests.reference.legacy_cores import LegacySFQ

#: Per-hop rates, slowing down the path so every hop builds a backlog.
CAPACITIES = (80_000.0, 64_000.0, 48_000.0)
TCP_FLOWS = ("tcp0", "tcp1")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _observed_tandem():
    """Three observed SFQ hops: two TCP transfers and a CBR flow, run
    until every queue drains. Hop 0 has an outage (drop recovery) and a
    reweight the fairness monitor picks up at the next arrival; hop 1 a
    reweight followed by ``rebase_flow`` (bound off); hop 2 a tightened
    bound, so the fairness monitor records violations."""
    sim = Simulator()
    with MetricsSession() as session:
        schedulers = []
        for _ in range(3):
            sched = make_scheduler("SFQ")
            for flow in TCP_FLOWS:
                sched.add_flow(flow, 30_000.0)
            sched.add_flow("cbr", 20_000.0)
            schedulers.append(sched)
        tandem = Tandem(
            sim, schedulers, [ConstantCapacity(c) for c in CAPACITIES],
            propagation_delays=[0.01, 0.01], name="obs",
        )
    links = tandem.links
    links[0].per_flow_buffer_packets = {flow: 6 for flow in TCP_FLOWS}
    suites = [
        install_monitors(links[0], mode="record"),
        install_monitors(links[1], mode="record", bound_factor=float("inf")),
        install_monitors(links[2], mode="record", bound_factor=0.25),
    ]
    for i, flow in enumerate(TCP_FLOWS):
        receiver = TcpReceiver(sim, flow, ack_path_delay=0.02, delayed_ack=True)
        links[-1].departure_hooks.append(receiver.on_packet)
        TcpSender(
            sim, flow, tandem.ingress, receiver, segment_bytes=125,
            start_time=0.1 * i, max_segments=300,
        ).start()
    CBRSource(
        sim, "cbr", tandem.ingress, rate=20_000.0, packet_length=1000,
        start_time=0.05, stop_time=5.0,
    ).start()
    LinkOutage(sim, links[0], schedule=[(1.0, 1.4)], recovery="drop").start()
    WeightReconfig(sim, links[0], events=[(3.0, "cbr", 10_000.0)]).start()
    fairness = suites[1].fairness
    WeightReconfig(
        sim, links[1], events=[(2.0, "tcp1", 50_000.0)],
        on_reweight=lambda flow, weight, now: fairness.rebase_flow(flow, now),
    ).start()
    sim.run()
    for suite in suites:
        suite.audit()
    return session.snapshot({"test": "observation"}), links, suites


def _trace_digest(links) -> str:
    rows = [
        (r.server, repr(r.flow), r.seqno, r.length, repr(r.arrival),
         repr(r.start_service), repr(r.departure), r.dropped)
        for link in links
        for r in link.tracer.records
    ]
    return _sha256(json.dumps(rows))


@pytest.fixture(scope="module")
def observed():
    return _observed_tandem()


def test_metrics_snapshot_identical(observed):
    snapshot, _, _ = observed
    assert _sha256(snapshot.to_json()) == EXPECTED_SNAPSHOT_SHA256


def test_tracer_records_identical(observed):
    _, links, _ = observed
    assert _trace_digest(links) == EXPECTED_TRACE_SHA256


def test_fairness_gaps_identical(observed):
    _, _, suites = observed
    gaps = [
        (repr(s.fairness.max_gap), s.fairness.max_gap_pair) for s in suites
    ]
    assert gaps == EXPECTED_GAPS


def test_violations_identical(observed):
    _, _, suites = observed
    payloads = [s.violations_payload() for s in suites]
    assert [len(p) for p in payloads] == EXPECTED_VIOLATION_COUNTS
    assert [p[:1] for p in payloads] == EXPECTED_FIRST_VIOLATIONS
    assert _sha256(json.dumps(payloads)) == EXPECTED_VIOLATIONS_SHA256


def test_conservation_counters_identical(observed):
    _, _, suites = observed
    counters = [
        (s.conservation.admitted, s.conservation.departed,
         s.conservation.dropped, s.conservation.outstanding)
        for s in suites
    ]
    assert counters == EXPECTED_CONSERVATION


# ----------------------------------------------------------------------
# VirtualTimeMonitor reads the live v(t) wherever it resolved it from
# ----------------------------------------------------------------------
SAG_AT = 40  # the dequeue after which v(t) sags
SAG = 1e6  # far beyond one packet's tag stride (1000 bits / weight 1)


class _SaggingSfq(SfqRank):
    """SFQ whose v(t) is lowered once, mid-run (a seeded corruption in
    the style of the chaos ``BrokenSFQ`` fixture)."""

    def __init__(self) -> None:
        super().__init__()
        self.dequeues = 0

    def on_dequeue(self, flow, packet):
        super().on_dequeue(flow, packet)
        self.dequeues += 1
        if self.dequeues == SAG_AT:
            self.v -= SAG


class _SaggingLegacySfq(LegacySFQ):
    """The frozen seed's SFQ core (a plain ``virtual_time`` property, no
    rank) with the same corruption."""

    def __init__(self) -> None:
        super().__init__()
        self.dequeues = 0

    def _do_dequeue(self, now):
        packet = super()._do_dequeue(now)
        if packet is not None:
            self.dequeues += 1
            if self.dequeues == SAG_AT:
                self.v -= SAG
        return packet


class _ForwardingProxy:
    """Shaped like the benchmark's timing proxy: a ``virtual_time``
    property plus ``__getattr__`` forwarding for everything else."""

    def __init__(self, inner):
        object.__setattr__(self, "_inner", inner)

    virtual_time = property(lambda self: self._inner.virtual_time)

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def __setattr__(self, name, value):
        setattr(self._inner, name, value)


def _sagging(kind):
    if kind == "legacy":
        return _SaggingLegacySfq()
    sched = PifoScheduler(_SaggingSfq())
    return sched if kind == "pifo" else _ForwardingProxy(sched)


@pytest.mark.parametrize("kind", ["pifo", "proxy", "legacy"])
def test_virtual_time_monitor_catches_sag_at_same_instant(kind):
    sim = Simulator()
    link = Link(sim, _sagging(kind), ConstantCapacity(1000.0), name="sag")
    monitor = VirtualTimeMonitor(link, mode="record")
    for i, flow in enumerate(("a", "b", "c")):
        CBRSource(
            sim, flow, link.send, rate=400.0, packet_length=1000,
            start_time=0.1 * i, stop_time=60.0,
        ).start()
    sim.run(until=80.0)
    assert len(monitor.violations) >= 1
    first = monitor.violations[0]
    assert (first.time, first.window) == EXPECTED_SAG_DETECTION


# ----------------------------------------------------------------------
# Expected values, recorded before the observation path was optimised
# ----------------------------------------------------------------------
EXPECTED_SNAPSHOT_SHA256 = (
    "7ca83e2f862550fbdc9fa61c4728e86139acc6a6df186c6143ab675eb98039ee"
)
EXPECTED_TRACE_SHA256 = (
    "e951a14bc9198cc5fd2f3f509397d1b6733b5f277c32cfdf349ca4336cd441fb"
)
EXPECTED_GAPS = [
    ("0.1", ("cbr", "tcp1")),
    ("0.0666666666666667", ("cbr", "tcp1")),
    ("0.06666666666666679", ("cbr", "tcp0")),
]
EXPECTED_VIOLATION_COUNTS = [0, 0, 836]
EXPECTED_FIRST_VIOLATIONS = [
    [],
    [],
    [
        {
            "invariant": "fairness",
            "time": 0.5412500000000001,
            "window": [0.5152083333333335, 0.5412500000000001],
            "detail": "flows 'cbr'/'tcp0': normalized service gap 0.05 "
            "exceeds Theorem 1 bound 0.0208333343 (SFQ at obs-hop2)",
        }
    ],
]
EXPECTED_VIOLATIONS_SHA256 = (
    "d2fbcbd7a2cf6c6e309133841806e23c7436e46ad5f3c226dce15f69205bfa1b"
)
#: (admitted, departed, dropped, outstanding) per hop.
EXPECTED_CONSERVATION = [(701, 700, 28, 0), (700, 700, 0, 0), (700, 700, 0, 0)]
EXPECTED_SAG_DETECTION = (40.0, (39.0, 40.0))
