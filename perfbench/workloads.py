"""The three benchmark workloads, built only from the library's public API.

Each workload function makes its inputs from a seed, builds the network
through a :class:`~perfbench.ledger.Probe` (identity when untraced,
timing proxies when traced) and returns a :class:`Scenario`: run it with
:func:`run_alone` or :func:`run_lockstep`, then its ``finish()`` checks
the output. ``impl`` selects the code under test: ``"current"`` is
today's library, ``"seed"`` swaps in the frozen seed engine and SFQ core
(``tests/reference``) and leaves everything else as it is, so the two
runs see identical arrivals.

Why these three:

* ``link_sfq_mix`` is almost all scheduler, ``Link`` and event dispatch;
  observation is off, so a change to the observation path should leave it
  unchanged.
* ``hier_churn_1e5`` is dominated by per-flow state, set-up of 10^5 flows
  and the hierarchy's recursion; per-event engine cost is diluted. One
  in ten flows sends, which keeps a repeat short enough to repeat.
* ``tcp_tandem_observed`` is mostly observation (tracer, metrics hub,
  monitors) and transport timers, with a deep and churny pending-event
  set; scheduler cost is small there.
"""

from __future__ import annotations

import itertools
import random
import zlib
from array import array
from dataclasses import dataclass, field
from time import perf_counter, process_time
from typing import Dict, List

from repro import ConstantCapacity, HierarchicalScheduler, Link, MetricsSession
from repro import Packet, Simulator, make_scheduler
from repro.analysis import delay_bounds, fairness
from repro.faults import LinkOutage, install_monitors
from repro.network import Tandem
from repro.simulation import NullTracer
from repro.traffic.batch import (
    ArrivalTimeline,
    FleetTimeline,
    FlowArrivals,
    cbr_fleet_times,
    cbr_times,
)
from repro.transport import TcpReceiver, TcpSender

from perfbench.ledger import Probe
from perfbench.seedref import SeedSimulator, seed_sfq

#: Departures per timing chunk for ``ns_per_pkt_p50``/``_p99``: small
#: enough that every repeat yields over 1000 chunks, so that its 99th
#: percentile has ten samples beyond it.
CHUNK = 32
HIER_CHUNK = 16
TANDEM_CHUNK = 6

NULL_PROBE = Probe()


@dataclass
class Outcome:
    """What one execution of a workload measured and found."""

    flows: int
    departures: int = 0
    events: int = 0
    setup_s: float = 0.0
    run_s: float = 0.0
    check_s: float = 0.0
    digest: str = ""
    chunk_ns: List[float] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    counts: Dict[str, float] = field(default_factory=dict)
    #: Median speed-probe time beside the run (interleaved repeats only).
    probe_s: float = 0.0
    #: Wall-clock time of ``sim.run``, for the ledger's reconciliation.
    run_wall_s: float = 0.0

    @property
    def wall_s(self) -> float:
        return self.setup_s + self.run_s + self.check_s


def _parts(impl):
    """Simulator class and SFQ factory for ``impl``."""
    if impl == "seed":
        return SeedSimulator, seed_sfq
    return Simulator, lambda: make_scheduler("SFQ", auto_register=False)


def digest_of(flows, seqnos, times) -> str:
    """CRC32 over every departure's flow, seqno and exact time."""
    text = "".join(f"{f}:{s}:{t!r};" for f, s, t in zip(flows, seqnos, times))
    return f"{zlib.crc32(text.encode()):08x}"


class Scenario:
    """A workload built and ready to run: :meth:`advance` its simulation
    (alone, or in slices interleaved with another scenario's), then
    :meth:`finish`.

    Host time is this process's CPU time, so that time spent descheduled
    (up to about 10 ms, a few times a second on a shared 2-vCPU host)
    does not land in a chunk and pass for the simulator's tail. Time
    between this scenario's slices belongs to another simulation; it is
    left out of ``run_s`` and of the chunk stamps.
    """

    def __init__(self, out, sim, horizon, until=None, chunk=CHUNK):
        self.out = out
        self.sim = sim
        #: Simulated time by which the arrivals end; slices split it.
        self.horizon = horizon
        #: Where the run ends: None runs until no event is left.
        self.until = until
        self.chunk = chunk
        self.flows = []
        self.seqnos = array("q")
        self.times = array("d")
        self.marks = []
        self.check = None  # called with the outcome by finish()
        self._paused = 0.0
        self._stopped = None

    def recorder(self):
        """A departure hook: the sink that records each departure's
        flow, seqno and time, and stamps own host time every ``chunk``
        departures."""
        # Flat columns rather than a tuple per departure: tuples are
        # containers the garbage collector would walk on every full
        # collection, and the sink would add that to the run's tail.
        flows = self.flows
        add_flow = flows.append
        add_seqno = self.seqnos.append
        add_time = self.times.append
        stamp = self.marks.append
        chunk = self.chunk
        state = [chunk]
        scenario = self

        def record(packet, now):
            add_flow(packet.flow)
            add_seqno(packet.seqno)
            add_time(now)
            if len(flows) == state[0]:
                stamp(process_time() - scenario._paused)
                state[0] += chunk

        return record

    def advance(self, until):
        wall = perf_counter()
        start = process_time()
        if self._stopped is None:
            self.marks.append(start)
        else:
            self._paused += start - self._stopped
        self.sim.run(until)
        self._stopped = process_time()
        self.out.run_s += self._stopped - start
        self.out.run_wall_s += perf_counter() - wall

    def finish(self):
        out = self.out
        t1 = process_time()
        marks = self.marks
        out.events = self.sim.events_processed
        out.chunk_ns = [
            (b - a) * 1e9 / self.chunk for a, b in zip(marks, marks[1:])
        ]
        out.departures = len(self.flows)
        out.digest = digest_of(self.flows, self.seqnos, self.times)
        self.check(out)
        out.check_s = process_time() - t1
        return out


#: Slices per run when two simulations run in lockstep.
SLICES = 40


def run_alone(scenario):
    scenario.advance(scenario.until)


def run_lockstep(scenarios, between, slices=SLICES):
    """Run the scenarios slice by slice, each in turn, so that a change
    in the host's speed falls on all of them alike; call ``between()``
    after each round."""
    for k in range(1, slices):
        for scenario in scenarios:
            scenario.advance(scenario.horizon * k / slices)
        between()
    for scenario in scenarios:
        scenario.advance(scenario.until)


# ----------------------------------------------------------------------
# link_sfq_mix
# ----------------------------------------------------------------------
MIX_CAPACITY = 100e6  # bits/s
MIX_FLOWS = 1024
MIX_CLASSES = 8  # weight class k has weight 2**k
MIX_PACKETS = 60_000
MIX_LOAD = 1.1  # offered load / capacity
MIX_BUFFER = 512  # shared buffer, packets
MIX_SMALL, MIX_LARGE = 64 * 8, 1500 * 8  # bits
MIX_P_SMALL = 0.5


def mix_inputs(seed):
    """Open-loop Poisson arrivals: flow by weight, size bimodal."""
    rng = random.Random(f"link_sfq_mix:{seed}")
    weights = [float(2 ** (i % MIX_CLASSES)) for i in range(MIX_FLOWS)]
    mean_bits = MIX_P_SMALL * MIX_SMALL + (1 - MIX_P_SMALL) * MIX_LARGE
    rate = MIX_LOAD * MIX_CAPACITY / mean_bits  # packets/s
    owners = rng.choices(
        range(MIX_FLOWS), cum_weights=list(itertools.accumulate(weights)),
        k=MIX_PACKETS,
    )
    times = list(itertools.accumulate(
        rng.expovariate(rate) for _ in range(MIX_PACKETS)
    ))
    per_times = [[] for _ in range(MIX_FLOWS)]
    per_lengths = [[] for _ in range(MIX_FLOWS)]
    for t, f in zip(times, owners):
        per_times[f].append(t)
        per_lengths[f].append(MIX_SMALL if rng.random() < MIX_P_SMALL else MIX_LARGE)
    specs = [
        FlowArrivals(f, per_times[f], MIX_LARGE, lengths=per_lengths[f])
        for f in range(MIX_FLOWS)
    ]
    return weights, specs, times, owners


def link_sfq_mix(seed, impl="current", probe=NULL_PROBE):
    out = Outcome(flows=MIX_FLOWS)
    t0 = process_time()
    with probe.span("traffic.generate"):
        weights, specs, times, owners = mix_inputs(seed)
    sim_class, sfq = _parts(impl)
    sim = probe.simulator(sim_class)
    sched = probe.scheduler(sfq())
    for f, w in enumerate(weights):
        sched.add_flow(f, w)
    link = Link(
        sim, sched, ConstantCapacity(MIX_CAPACITY), name="mix",
        buffer_packets=MIX_BUFFER, tracer=NullTracer(),
    )
    scenario = Scenario(out, sim, horizon=times[-1])
    link.departure_hooks.append(scenario.recorder())
    probe.observe(link)
    sim.attach_stream(
        ArrivalTimeline(probe.ingress(link.send), specs, times, owners)
    )

    def check(out):
        out.counts["drops"] = link.packets_dropped
        if link.packets_transmitted + link.packets_dropped != MIX_PACKETS:
            out.failures.append(
                f"conservation: {link.packets_transmitted} sent + "
                f"{link.packets_dropped} dropped != {MIX_PACKETS} offered"
            )
        if not link.packets_dropped:
            out.failures.append("the shared buffer never overflowed")

    scenario.check = check
    out.setup_s = process_time() - t0
    return scenario


# ----------------------------------------------------------------------
# hier_churn_1e5
# ----------------------------------------------------------------------
HIER_CAPACITY = 1e6  # bits/s
HIER_FLOWS = 100_000  # attached to the tree
HIER_ACTIVE = 10_000  # of which send: a CBR fleet, 2 packets each
HIER_PACKETS_PER_FLOW = 2
HIER_LENGTH = 1_000  # bits
HIER_LOAD = 1.2
HIER_CHURN = 400
DEPARTMENTS = 2
GROUPS_PER_DEPT = 4


def _tree(sfq, probe):
    """The ``scale`` experiment's tree: root, 2 departments, 4 groups
    each, plus a churn leaf under the first department."""
    factory = lambda: probe.scheduler(sfq())
    hier = HierarchicalScheduler(
        root_scheduler=factory(), default_node_scheduler=factory
    )
    for d in range(DEPARTMENTS):
        hier.add_class("root", f"dept{d}", weight=1.0 + d)
        for g in range(GROUPS_PER_DEPT):
            hier.add_class(f"dept{d}", f"g{d}.{g}", weight=1.0 + g % 3)
    hier.add_class("dept0", "churn", weight=1.0)
    return probe.scheduler(hier, "core.hierarchical")


def hier_churn_1e5(seed, impl="current", probe=NULL_PROBE):
    out = Outcome(flows=HIER_FLOWS)
    t0 = process_time()
    rng = random.Random(f"hier_churn_1e5:{seed}")
    leaves = [f"g{d}.{g}" for d in range(DEPARTMENTS) for g in range(GROUPS_PER_DEPT)]
    placement = [i % len(leaves) for i in range(HIER_FLOWS)]
    rng.shuffle(placement)
    active = rng.sample(range(HIER_FLOWS), HIER_ACTIVE)
    rate = HIER_LOAD * HIER_CAPACITY / HIER_ACTIVE
    interval = HIER_LENGTH / rate
    with probe.span("traffic.generate"):
        # The default stagger spreads the fleet evenly over one packet
        # interval, so the offered load is exactly HIER_LOAD.
        times, flow_idx = cbr_fleet_times(
            HIER_ACTIVE, rate, HIER_LENGTH, HIER_PACKETS_PER_FLOW,
            start_time=rng.random() * interval,
        )
    span = float(times[-1] - times[0])
    churn_at = sorted(
        float(times[0]) + rng.random() * span for _ in range(HIER_CHURN)
    )
    sim_class, sfq = _parts(impl)
    sim = probe.simulator(sim_class)
    hier = _tree(sfq, probe)
    for i in range(HIER_FLOWS):
        hier.attach_flow(i, leaves[placement[i]], 1.0)
    link = Link(
        sim, hier, ConstantCapacity(HIER_CAPACITY), name="hier",
        tracer=NullTracer(),
    )
    suite = install_monitors(
        link, mode="record", fairness=False, virtual_time=False
    )
    scenario = Scenario(out, sim, horizon=float(times[-1]), chunk=HIER_CHUNK)
    record = scenario.recorder()
    churn = {"joined": 0, "detached": 0}
    send = probe.ingress(link.send)

    def depart(packet, now):
        record(packet, now)
        if type(packet.flow) is tuple:  # a churn flow drained: leave
            hier.detach_flow(packet.flow)
            churn["detached"] += 1

    def join(k):
        flow = ("churn", k)
        hier.attach_flow(flow, "churn", 2.0)
        churn["joined"] += 1
        send(Packet(flow, HIER_LENGTH, seqno=0))

    link.departure_hooks.append(depart)
    probe.observe(link)
    sim.attach_stream(
        FleetTimeline(send, times, flow_idx, HIER_LENGTH, flow_ids=active)
    )
    for k, t in enumerate(churn_at):
        sim.call_at(t, join, k)

    def check(out):
        out.counts["drops"] = link.packets_dropped
        suite.audit()
        for v in suite.violations:
            out.failures.append(f"monitor: {v}")
        offered = HIER_ACTIVE * HIER_PACKETS_PER_FLOW + HIER_CHURN
        if out.departures != offered:
            out.failures.append(f"{out.departures} departures != {offered} offered")
        if churn["joined"] != HIER_CHURN or churn["detached"] != HIER_CHURN:
            out.failures.append(f"churn leak: {churn}")

    scenario.check = check
    out.setup_s = process_time() - t0
    return scenario


# ----------------------------------------------------------------------
# tcp_tandem_observed
# ----------------------------------------------------------------------
TANDEM_HOPS = 4
TANDEM_CAPACITY = 10e6  # bits/s
TANDEM_PROPAGATION = 1e-3  # s per hop
TANDEM_DURATION = 8.0  # simulated s of CBR traffic and outages
TCP_FLOWS = 8
TCP_SEGMENT_BYTES = 1000
#: Segments each TCP flow transfers. Finite transfers fix the amount of
#: work; with open-ended flows an unlucky outage stalls TCP and halves
#: the traffic of a run, and with it its wall time and memory.
TCP_SEGMENTS = 1100
TCP_BUFFER = 8  # packets per TCP flow per hop
CBR_RATE = 0.1 * TANDEM_CAPACITY
CBR_BITS = 200 * 8
OUTAGE_HOP = 1
OUTAGES = 6
OUTAGE_S = 0.4  # simulated s each


def tandem_inputs(seed):
    """TCP start times and ACK delays, CBR phase and outage times."""
    rng = random.Random(f"tcp_tandem_observed:{seed}")
    starts = [rng.uniform(0.0, 0.05) for _ in range(TCP_FLOWS)]
    ack_delays = [rng.uniform(0.002, 0.010) for _ in range(TCP_FLOWS)]
    cbr_phase = rng.uniform(0.0, CBR_BITS / CBR_RATE)
    n_cbr = int((TANDEM_DURATION - cbr_phase) * CBR_RATE / CBR_BITS)
    # One outage at a random point of each of OUTAGES equal windows
    # after warm-up. Each outlasts the retransmission timers; a fixed
    # length keeps the amount of work the same from seed to seed.
    window = (TANDEM_DURATION - 0.4) / OUTAGES
    outages = []
    for k in range(OUTAGES):
        down = 0.4 + k * window + rng.uniform(0.0, window - OUTAGE_S - 0.1)
        outages.append((down, down + OUTAGE_S))
    return starts, ack_delays, cbr_phase, n_cbr, outages


def _cbr_within_theorem4(tracer, delta, out):
    """Every served CBR packet departs by eq. 38's bound at this hop."""
    served = [r for r in tracer.iter_for_flow("cbr") if r.departure is not None]
    if not served:
        out.failures.append(f"{tracer.name}: no CBR departures")
        return
    eats = delay_bounds.expected_arrival_times(
        [r.arrival for r in served], [r.length for r in served],
        [CBR_RATE] * len(served),
    )
    others = TCP_FLOWS * TCP_SEGMENT_BYTES * 8
    worst = float("-inf")
    for r, eat in zip(served, eats):
        bound = delay_bounds.sfq_delay_bound(
            eat, others, r.length, TANDEM_CAPACITY, delta
        )
        worst = max(worst, r.departure - bound)
    if worst > 1e-9:
        out.failures.append(
            f"{tracer.name}: a CBR packet left {worst:.3g}s after its Theorem 4 bound"
        )


def _within_theorem1(tracer, tcp_weight, out):
    """Theorem 1 at one hop, for a TCP pair and for the CBR flow
    against a TCP flow.

    ``empirical_fairness_measure`` counts only packets served wholly
    inside an interval, so a packet of either flow straddling an edge
    drops out of that flow's work; the check allows one more maximum
    packet per flow than Theorem 1's bound. Without that allowance
    this measure has exceeded the bound on runs where the online
    FairnessMonitor, which counts service as it completes, recorded no
    violation.
    """
    lmax = TCP_SEGMENT_BYTES * 8
    for f, m, rf, rm, lf, lm in (
        ("tcp0", "tcp1", tcp_weight, tcp_weight, lmax, lmax),
        ("cbr", "tcp0", CBR_RATE, tcp_weight, CBR_BITS, lmax),
    ):
        gap = fairness.empirical_fairness_measure(
            tracer, f, m, rf, rm, max_epochs=300
        )
        bound = 2 * fairness.sfq_fairness_bound(lf, rf, lm, rm)
        if gap > bound + 1e-9:
            out.failures.append(
                f"Theorem 1: {f}/{m} gap {gap:.4g} > bound {bound:.4g}"
            )


def tcp_tandem_observed(seed, impl="current", probe=NULL_PROBE):
    out = Outcome(flows=TCP_FLOWS + 1)
    t0 = process_time()
    starts, ack_delays, cbr_phase, n_cbr, outages = tandem_inputs(seed)
    tcp_ids = [f"tcp{i}" for i in range(TCP_FLOWS)]
    tcp_weight = (TANDEM_CAPACITY - CBR_RATE) / TCP_FLOWS
    sim_class, sfq = _parts(impl)
    sim = probe.simulator(sim_class)
    with MetricsSession() as session:
        scheds = []
        for _ in range(TANDEM_HOPS):
            sched = probe.scheduler(sfq())
            for fid in tcp_ids:
                sched.add_flow(fid, tcp_weight)
            sched.add_flow("cbr", CBR_RATE)
            scheds.append(sched)
        tandem = Tandem(
            sim, scheds, [ConstantCapacity(TANDEM_CAPACITY)] * TANDEM_HOPS,
            propagation_delays=[TANDEM_PROPAGATION] * (TANDEM_HOPS - 1),
            name="tandem",
        )
    links = tandem.links
    for link in links:
        link.per_flow_buffer_packets = {fid: TCP_BUFFER for fid in tcp_ids}
    suites = [install_monitors(link, mode="record") for link in links]
    ingress = probe.ingress(tandem.ingress)
    senders = []
    for fid, start, ack_delay in zip(tcp_ids, starts, ack_delays):
        receiver = TcpReceiver(sim, fid, ack_path_delay=ack_delay, delayed_ack=True)
        links[-1].departure_hooks.append(receiver.on_packet)
        sender = TcpSender(
            sim, fid, ingress, receiver,
            segment_bytes=TCP_SEGMENT_BYTES, start_time=start,
            max_segments=TCP_SEGMENTS,
        )
        senders.append(sender)
    scenario = Scenario(
        out, sim, horizon=TANDEM_DURATION,
        chunk=TANDEM_CHUNK,
    )
    links[-1].departure_hooks.append(scenario.recorder())
    for link in links:
        probe.observe(link)
    with probe.span("traffic.generate"):
        cbr = cbr_times(CBR_RATE, CBR_BITS, n_cbr, start_time=cbr_phase)
    sim.attach_stream(ArrivalTimeline(
        ingress, [FlowArrivals("cbr", cbr, CBR_BITS)], cbr, [0] * n_cbr
    ))
    LinkOutage(sim, links[OUTAGE_HOP], schedule=outages).start()
    for sender in senders:
        sender.start()

    def check(out):
        out.counts["drops"] = sum(link.packets_dropped for link in links)
        out.counts["timeouts"] = sum(s.timeouts for s in senders)
        out.counts["retransmissions"] = sum(s.retransmissions for s in senders)
        for suite in suites:
            suite.audit()
            for v in suite.violations:
                out.failures.append(f"monitor: {v}")
        with probe.span("metrics.snapshot"):
            snapshot = session.snapshot({"workload": "tcp_tandem_observed"})
            snapshot.to_json()
        last = links[-1]
        metered = snapshot.flow_summary(last.name).get("cbr", {}).get("packets_served")
        traced = sum(1 for _ in last.tracer.iter_departed("cbr"))
        if metered != traced:
            out.failures.append(
                f"metrics count {metered} CBR departures at {last.name}, "
                f"tracer {traced}"
            )
        with probe.span("analysis.fairness"):
            _within_theorem1(links[0].tracer, tcp_weight, out)
        with probe.span("analysis.delay_bounds"):
            outage_work = sum(up - down for down, up in outages) * TANDEM_CAPACITY
            for hop, link in enumerate(links):
                # Each outage removes its length of service plus the
                # interrupted packet, which is sent again from scratch.
                delta = (
                    outage_work + OUTAGES * TCP_SEGMENT_BYTES * 8
                    if hop == OUTAGE_HOP else 0.0
                )
                _cbr_within_theorem4(link.tracer, delta, out)

    scenario.check = check
    out.setup_s = process_time() - t0
    return scenario


WORKLOADS = {
    "link_sfq_mix": link_sfq_mix,
    "hier_churn_1e5": hier_churn_1e5,
    "tcp_tandem_observed": tcp_tandem_observed,
}
