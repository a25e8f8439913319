"""The PIFO rank-function core: one engine for the whole scheduler zoo.

Sivaraman et al. ("Programmable Packet Scheduling at Line Rate") observe
that most scheduling disciplines are one abstraction: *compute a rank on
arrival, push into a PIFO* (a priority queue that serves in rank order).
SFQ's eq. 4 start-tag order, SCFQ/WFQ finish-tag order, Virtual Clock's
eq. 37 stamp and Delay EDD's deadlines are all instances. This module
makes that abstraction the single implementation:

* :class:`RankFn` — the protocol (shipped as a concrete base class) a
  discipline implements: ``rank(flow, packet, now) -> key`` plus
  optional on-dequeue virtual-time advance, busy-period reset, discard
  re-chaining, and an eligibility clock (WF²Q). A rank function is the
  *whole* discipline — typically under ten lines;
* :class:`PifoScheduler` — the one exact engine: a flow-head heap driven
  by a rank function;
* the seven tag disciplines — SFQ, SCFQ, WFQ, FQS, WF²Q, Virtual Clock,
  Delay EDD — as rank functions (:class:`SfqRank` ...), plus
  :class:`LstfRank` (Least Slack Time First, Mittal et al., "Universal
  Packet Scheduling"). Tag math flows through :mod:`repro.core.tagmath`,
  so the engine is byte-identical to the seed's per-discipline cores
  (gated by ``tests/test_trace_equivalence.py``);
* :class:`SpPifoScheduler` — the SP-PIFO approximation (Alcoz et al.,
  "Everything Matters in Programmable Packet Scheduling"): k strict-
  priority FIFO bands with push-up/push-down bound adaptation, trading
  rank fidelity (measurable inversions) for O(k) dequeue.

The flow-head heap
------------------
The paper sells SFQ on complexity — :math:`O(\\log Q)` per packet where
*Q is the number of flows* — but the seed core (preserved under
``tests/reference/``) keeps one global heap of *packets*, so every
operation costs :math:`O(\\log N)` in total backlog and ``discard_tail``
needs a stale-uid set that the dequeue path must skim on every pop.

The structural fact that rescues the paper's bound: **within one flow,
ranks are monotone**. Arrivals are FIFO per flow, and every discipline
here chains its tag off the previous packet's (eq. 4's
``max{v, F(prev)}`` for SFQ/SCFQ/WFQ/FQS, the EAT recursion of eq. 37
for Virtual Clock and Delay EDD), so a flow's earliest-ranked packet is
always its FIFO head. The engine therefore only compares the *head
packet of each backlogged flow*:

* per-flow FIFO queues hold the backlog (``FlowState.queue``);
* one heap holds at most one 5-slot entry ``[key, tie, uid, packet,
  state]`` per backlogged flow, keyed by ``(key, tie, uid)`` — exactly
  the key the seed's packet heap used, so the service order is
  identical. ``uid`` is unique, so comparisons never reach the packet;
* enqueue/dequeue are ``O(log F)`` in *backlogged flows*, independent of
  per-flow backlog depth;
* ``discard_tail`` is ``O(1)``: the victim is the FIFO tail, which is in
  the heap only when it is the flow's sole packet — in that case the
  flow's live entry is invalidated in place (``entry[3] = None``) and
  reaped lazily by the next dequeue/peek.

Invariants (exercised by ``tests/test_trace_equivalence.py``):

1. a flow has a live ``heap_entry`` iff it is backlogged, and that entry
   references its current FIFO head;
2. heap order ``(key, tie, uid)`` equals the seed core's global
   packet-heap order, because per-flow rank monotonicity makes the head
   the flow's minimum;
3. invalidated entries never outnumber the flows that discarded their
   sole packet since the last dequeue.

The seed core checked invariant 1 with an ``assert``, which vanishes
under ``python -O``. Here the hot path performs no check by default; with
``debug_checks=True`` every dequeue re-verifies it and a violation
raises :class:`~repro.core.base.SchedulerError` deterministically.

Exports
-------
A rank function's per-discipline state (virtual time, GPS tracker,
deadline table) lives on the rank object; the engine forwards the names
listed in ``RankFn.exports``: ``scheduler.virtual_time`` reads the SFQ
rank's ``v``, and the fault monitors' ``hasattr(scheduler,
"virtual_time")`` probe stays discipline-dependent (Virtual Clock and
Delay EDD export no virtual time).
"""

from __future__ import annotations

import heapq
from collections import deque
from heapq import heappop as _heappop, heappush as _heappush
from typing import Any, Deque, Dict, Hashable, List, Optional, Protocol, Tuple

from repro.core.base import Scheduler, SchedulerError, TieBreak, TieBreakRule
from repro.core.flow import FlowState
from repro.core.gps import GPSVirtualClock
from repro.core.packet import Packet
from repro.core.tagmath import start_finish

__all__ = [
    "RankFlow",
    "RankFn",
    "PifoScheduler",
    "SpPifoScheduler",
    "SfqRank",
    "ScfqRank",
    "WfqRank",
    "FqsRank",
    "Wf2qRank",
    "VcRank",
    "DelayEddRank",
    "LstfRank",
]

#: A 5-slot mutable heap entry ``[key, tie, uid, packet, state]``
#: (``entry[3] is None`` marks lazy invalidation). Heterogeneous by
#: design — a list so invalidation can happen in place.
HeapEntry = List[Any]


class RankFlow(Protocol):
    """Per-flow state surface a rank function may touch.

    Satisfied by :class:`~repro.core.flow.FlowState`. Reads and writes on
    this surface hit the same floats the seed's per-discipline cores
    used, which is what keeps the PIFO engine byte-identical.
    """

    __slots__ = ()

    last_finish: float

    @property
    def weight(self) -> float: ...

    @property
    def queue(self) -> Deque[Packet]: ...

    def packet_rate(self, packet: Packet) -> float: ...

    def eat_on_arrival(self, arrival: float, length: int, rate: float) -> float: ...


class RankFn:
    """One scheduling discipline, expressed as a rank function.

    Subclasses override :meth:`rank` (arrival: stamp tags, return the
    scheduling key) and :meth:`head_key` (read the key back off an
    already-tagged packet), plus whichever optional hooks the discipline
    needs. Class attributes declare the discipline's contract to the
    engine and the registry:

    ``name``
        The discipline name; the engine reports it as ``algorithm``.
    ``needs_capacity``
        True for rate-proportional disciplines; the registry injects the
        link rate as ``assumed_capacity`` when constructing the rank.
    ``supports_discard``
        True when :meth:`on_discard` re-chains tags so ``discard_tail``
        leaves no virtual-time gap (SFQ/SCFQ).
    ``eligibility``
        True when dequeue must gate on :meth:`advance` (WF²Q's
        ``S(p) <= v(t)`` scan).
    ``exports``
        Attribute names the owning scheduler forwards (read-only) to
        this rank — the discipline's public state surface.
    """

    __slots__ = ()

    name = "rank"
    needs_capacity = False
    supports_discard = False
    eligibility = False
    exports: Tuple[str, ...] = ()

    def bind(self, scheduler: Scheduler) -> None:
        """Called once when a scheduler adopts this rank (default no-op)."""

    def rank(self, flow: RankFlow, packet: Packet, now: float) -> float:
        """Stamp tags on an arriving packet; return its scheduling key."""
        raise NotImplementedError

    def head_key(self, packet: Packet) -> float:
        """Scheduling key of an already-tagged packet."""
        raise NotImplementedError

    def on_dequeue(self, flow: RankFlow, packet: Packet) -> None:
        """Virtual-time bookkeeping once a packet is selected (no-op)."""

    def on_idle(self) -> None:
        """End-of-busy-period bookkeeping (no-op)."""

    def on_discard(self, flow: RankFlow, packet: Packet) -> None:
        """Re-chain tags after ``packet`` was discarded from the tail."""

    def advance(self, now: float) -> float:
        """Eligibility clock (only when ``eligibility`` is True)."""
        raise NotImplementedError(f"{self.name} has no eligibility clock")

    def band_origin(self, now: float) -> float:
        """Origin subtracted from keys before SP-PIFO band mapping.

        Virtual-time and deadline ranks drift upward without bound, so
        raw keys compared against band bounds learned from older packets
        always look "largest ever seen" and sink to the lowest-priority
        band — the quantized scheduler degenerates to a FIFO. Expressing
        the rank *relative to the discipline's clock* (tag minus v(t),
        deadline minus now) makes the distribution quasi-stationary,
        which is the standard trick for running fair queueing on
        fixed-range PIFO hardware. Exact (heap) ordering keeps absolute
        keys; only the band-bound comparison is origin-shifted.
        """
        return 0.0


# ----------------------------------------------------------------------
# The disciplines as rank functions
# ----------------------------------------------------------------------


class _TagPairRank(RankFn):
    """Shared state/hooks of the self-clocked tag pair (SFQ and SCFQ).

    Both stamp eq. 4 start/finish tags off the rank-local virtual time
    ``v`` and differ only in which tag orders service and which tag
    ``v`` tracks. Busy-period rule 2 and the discard re-chaining are
    identical.
    """

    __slots__ = ("v", "_max_served_finish")

    supports_discard = True
    exports = ("v", "virtual_time")

    def __init__(self) -> None:
        self.v = 0.0  # system virtual time v(t)
        self._max_served_finish = 0.0

    @property
    def virtual_time(self) -> float:
        """Current system virtual time ``v(t)``."""
        return self.v

    def on_idle(self) -> None:
        # End of busy period: v is set to the maximum finish tag
        # assigned to any packet serviced by now (rule 2).
        self.v = max(self.v, self._max_served_finish)

    def band_origin(self, now: float) -> float:
        # Tags drift with v(t); band-map on tag - v so the quantizer
        # sees a stationary distribution.
        return self.v

    def on_discard(self, flow: RankFlow, packet: Packet) -> None:
        # Re-chain future arrivals off the new tail so no virtual-time
        # gap is left where the discarded packet sat.
        queue = flow.queue
        tail = queue[-1] if queue else None
        flow.last_finish = (  # type: ignore[assignment]  # tags stamped on enqueue
            tail.finish_tag if tail is not None else packet.start_tag
        )


class SfqRank(_TagPairRank):
    """Start-time Fair Queuing — the paper's algorithm (Section 2).

    1. On arrival, packet :math:`p_f^j` is stamped with start tag

       .. math:: S(p_f^j) = \\max\\{v(A(p_f^j)),\\; F(p_f^{j-1})\\}

       where the finish tag is :math:`F(p_f^j) = S(p_f^j) + l_f^j / r_f^j`
       with :math:`F(p_f^0) = 0`. The generalized algorithm of Section
       2.3 allows a per-packet rate :math:`r_f^j` (eq. 36); by default
       the flow weight is used.
    2. ``v(t)`` is 0 initially; during a busy period it equals the start
       tag of the packet in service; at the end of a busy period it is
       set to the maximum finish tag assigned to any packet serviced by
       then.
    3. Packets are serviced in increasing order of start tags; ties are
       broken by a configurable rule (the engine's ``tie_break``;
       Section 2.3 notes some rules are more desirable than others).

    Properties reproduced by the test/bench suite: Theorem 1 fairness
    :math:`|W_f/r_f - W_m/r_m| \\le l_f^{max}/r_f + l_m^{max}/r_m` on
    *any* server, including variable-rate ones; the throughput guarantee
    on FC/EBF servers (Theorems 2–3); the delay guarantee
    :math:`L(p) \\le EAT(p) + \\sum_{n \\ne f} l_n^{max}/C + l_f^j/C +
    \\delta(C)/C` (Theorems 4–5); and :math:`O(\\log Q)` per-packet cost
    through the engine's flow-head heap.
    """

    __slots__ = ()

    name = "SFQ"

    def rank(self, flow: RankFlow, packet: Packet, now: float) -> float:
        # The exact-float tag recursion lives in repro.core.tagmath.
        start, finish = start_finish(
            self.v, flow.last_finish, packet.length, flow.weight, packet.rate
        )
        packet.start_tag = start
        packet.finish_tag = finish
        flow.last_finish = finish
        return start

    def head_key(self, packet: Packet) -> float:
        return packet.start_tag  # type: ignore[return-value]  # stamped on enqueue

    def on_dequeue(self, flow: RankFlow, packet: Packet) -> None:
        # Rule 2: v(t) is the start tag of the packet in service.
        self.v = packet.start_tag  # type: ignore[assignment]  # stamped on enqueue
        finish = packet.finish_tag
        if finish is not None and finish > self._max_served_finish:
            self._max_served_finish = finish


class ScfqRank(_TagPairRank):
    """Self-Clocked Fair Queuing (Golestani 1994; paper Section 1.2).

    SCFQ computes start/finish tags exactly like SFQ but (a) schedules
    packets in increasing order of **finish** tags, and (b) defines the
    system virtual time ``v(t)`` as the *finish* tag of the packet in
    service. Its fairness measure equals SFQ's, but its maximum delay is
    larger by :math:`l_f^j/r_f^j - l_f^j/C` (paper eq. 56–57) — 24.4 ms
    for a 64 Kb/s flow with 200-byte packets on a 100 Mb/s link.
    """

    __slots__ = ()

    name = "SCFQ"

    def rank(self, flow: RankFlow, packet: Packet, now: float) -> float:
        start, finish = start_finish(
            self.v, flow.last_finish, packet.length, flow.weight, packet.rate
        )
        packet.start_tag = start
        packet.finish_tag = finish
        flow.last_finish = finish
        return finish

    def head_key(self, packet: Packet) -> float:
        return packet.finish_tag  # type: ignore[return-value]  # stamped on enqueue

    def on_dequeue(self, flow: RankFlow, packet: Packet) -> None:
        # Self-clocking: v(t) approximates GPS round number with the
        # finish tag of the packet in service.
        finish: float = packet.finish_tag  # type: ignore[assignment]  # stamped on enqueue
        self.v = finish
        if finish > self._max_served_finish:
            self._max_served_finish = finish


class WfqRank(RankFn):
    """Weighted Fair Queuing / PGPS (Demers et al. 1989, Parekh 1992).

    WFQ emulates fluid GPS: every packet gets a start tag
    :math:`S(p) = \\max\\{v(A(p)), F(p_{prev})\\}` and finish tag
    :math:`F(p) = S(p) + l/r` (paper eq. 1–2) where ``v(t)`` is the fluid
    GPS round number (eq. 3), and packets are transmitted in increasing
    order of **finish** tags.

    The paper's critique, reproduced by the benchmarks: its fairness
    measure is at least :math:`l_f^{max}/r_f + l_m^{max}/r_m` — a factor
    of two off the lower bound (Example 1); it requires the real-time
    fluid simulation (expensive); and it is built on an assumed constant
    capacity, ``assumed_capacity``, so it is unfair on variable-rate
    servers (Example 2, Figure 1(b)).
    """

    __slots__ = ("gps",)

    name = "WFQ"
    needs_capacity = True
    exports = ("gps", "virtual_time")

    def __init__(self, assumed_capacity: float) -> None:
        self.gps = GPSVirtualClock(assumed_capacity)

    @property
    def virtual_time(self) -> float:
        """Fluid GPS virtual time at the last advance."""
        return self.gps.v

    def _stamp(
        self, flow: RankFlow, packet: Packet, now: float
    ) -> Tuple[float, float]:
        """Shared WFQ/FQS/WF²Q arrival work: advance GPS, stamp tags."""
        v = self.gps.advance(now)
        weight = flow.weight
        start, finish = start_finish(
            v, flow.last_finish, packet.length, weight, packet.rate
        )
        packet.start_tag = start
        packet.finish_tag = finish
        flow.last_finish = finish
        self.gps.on_arrival(packet.flow, weight, finish)
        return start, finish

    def rank(self, flow: RankFlow, packet: Packet, now: float) -> float:
        return self._stamp(flow, packet, now)[1]

    def head_key(self, packet: Packet) -> float:
        return packet.finish_tag  # type: ignore[return-value]  # stamped on enqueue

    def band_origin(self, now: float) -> float:
        # Tags drift with the fluid GPS clock; band-map relative to it.
        return self.gps.v


class FqsRank(WfqRank):
    """Fair Queuing based on Start-time (Greenberg & Madras 1992).

    Identical tag computation to WFQ (fluid GPS ``v(t)``), but packets
    are scheduled in increasing order of **start** tags. The paper notes
    FQS shares all of WFQ's disadvantages (GPS cost, unfairness on
    variable-rate servers) with no delay advantage over SFQ.
    """

    __slots__ = ()

    name = "FQS"

    def rank(self, flow: RankFlow, packet: Packet, now: float) -> float:
        return self._stamp(flow, packet, now)[0]

    def head_key(self, packet: Packet) -> float:
        return packet.start_tag  # type: ignore[return-value]  # stamped on enqueue


class Wf2qRank(WfqRank):
    """Worst-case Fair WFQ (Bennett & Zhang, INFOCOM 1996).

    WF²Q fixes WFQ's burstiness by restricting the finish-tag scan to
    *eligible* packets — those whose fluid-GPS service has already
    started, :math:`S(p) \\le v(t)` — and serving the eligible packet
    with the smallest finish tag. Like WFQ it needs the fluid GPS
    simulation and inherits Example 2's assumed-capacity fragility, but
    its worst-case fairness on the *correct* constant-rate server is the
    best known; comparing it against SFQ illustrates the paper's
    trade-off of a little single-server delay tightness for
    self-clocking at O(log Q).

    If no packet is eligible at a dequeue instant (the real server can
    run ahead of the fluid system), the packet with the smallest start
    tag is served — the standard work-conserving fallback — with ties
    broken by packet uid (arrival order).

    Eligibility only ever needs to inspect flow heads: within a flow both
    tags are monotone, so if any queued packet of a flow is eligible its
    head is too, with a smaller finish tag. The engine's eligibility scan
    therefore shelves and restores at most one entry per backlogged flow
    per dequeue.
    """

    __slots__ = ()

    name = "WF2Q"
    eligibility = True

    def advance(self, now: float) -> float:
        return self.gps.advance(now)


class VcRank(RankFn):
    """Virtual Clock (Zhang 1990; paper Sections 1.1 and Appendix B).

    Virtual Clock stamps packet :math:`p_f^j` with
    :math:`EAT(p_f^j, r_f) + l_f^j / r_f` (expected arrival time, eq. 37)
    and transmits packets in increasing stamp order. It provides the same
    delay guarantee as WFQ but is *unfair*: a flow that used idle
    bandwidth is punished later (its clock ran ahead), which is why the
    paper classes it with the real-time-but-unfair algorithms. It
    reappears as the Guaranteed Service Queue of the Fair Airport
    scheduler (Appendix B).
    """

    __slots__ = ()

    name = "VirtualClock"

    def rank(self, flow: RankFlow, packet: Packet, now: float) -> float:
        rate = flow.packet_rate(packet)
        eat = flow.eat_on_arrival(now, packet.length, rate)
        stamp = eat + packet.length / rate
        packet.timestamp = stamp
        # Keep tags populated for uniform trace analysis.
        packet.start_tag = eat
        packet.finish_tag = stamp
        return stamp

    def head_key(self, packet: Packet) -> float:
        return packet.timestamp  # type: ignore[return-value]  # stamped on enqueue

    def band_origin(self, now: float) -> float:
        # EAT stamps are absolute times; band-map relative to now.
        return now


class DelayEddRank(RankFn):
    """Delay Earliest-Due-Date (paper Section 3, Theorem 7).

    Delay EDD assigns packet :math:`p_f^j` the deadline
    :math:`D(p_f^j) = EAT(p_f^j, r_f) + d_f` (eq. 66) and transmits
    packets in increasing deadline order. The paper uses it inside an SFQ
    hierarchy to *separate delay from throughput allocation*: on a
    Fluctuation Constrained server satisfying the schedulability
    condition (eq. 67, :func:`repro.analysis.admission.delay_edd_schedulable`)
    every packet departs by :math:`D(p) + l_{max}/C + \\delta(C)/C` — and
    the virtual server an SFQ hierarchy presents to a class *is* FC
    (eq. 65), so the bound survives hierarchical composition.

    Flows must be registered with ``add_flow_with_deadline`` (forwarded
    by the engine), which gives each flow a deadline :math:`d_f` in
    addition to its rate.
    """

    __slots__ = ("deadlines", "_scheduler")

    name = "DelayEDD"
    exports = ("deadlines", "add_flow_with_deadline")

    def __init__(self) -> None:
        self.deadlines: Dict[Hashable, float] = {}
        self._scheduler: Optional[Scheduler] = None

    def bind(self, scheduler: Scheduler) -> None:
        self._scheduler = scheduler

    def add_flow_with_deadline(
        self, flow_id: Hashable, rate: float, deadline: float
    ) -> Any:
        """Register a flow with rate ``rate`` (bits/s) and per-packet
        deadline offset ``deadline`` (seconds)."""
        if deadline <= 0:
            raise SchedulerError(f"deadline must be positive, got {deadline}")
        scheduler = self._scheduler
        if scheduler is None:
            raise SchedulerError(
                "DelayEddRank is not bound to a scheduler yet"
            )
        state = scheduler.add_flow(flow_id, rate)
        self.deadlines[flow_id] = float(deadline)
        return state

    def rank(self, flow: RankFlow, packet: Packet, now: float) -> float:
        deadline_offset = self.deadlines.get(packet.flow)
        if deadline_offset is None:
            raise SchedulerError(
                f"flow {packet.flow!r} has no deadline; use add_flow_with_deadline"
            )
        rate = flow.packet_rate(packet)
        eat = flow.eat_on_arrival(now, packet.length, rate)
        deadline = eat + deadline_offset
        packet.deadline = deadline
        packet.start_tag = eat
        return deadline

    def head_key(self, packet: Packet) -> float:
        return packet.deadline  # type: ignore[return-value]  # stamped on enqueue

    def band_origin(self, now: float) -> float:
        # Deadlines are absolute times; band-map relative to now.
        return now


class LstfRank(RankFn):
    """Least Slack Time First (Mittal et al., "Universal Packet
    Scheduling").

    Each packet's priority is its arrival time plus the flow's slack
    budget (``default_slack`` seconds unless :meth:`set_slack` assigned
    one): the packet that can least afford to wait is served first.
    Seed for the ROADMAP's replay-harness item — slack-initialized
    headers are what lets LSTF replay other disciplines' schedules.

    A flow's slack may change only while it is idle: the flow-head heap
    relies on within-flow rank monotonicity, and a smaller slack on a
    backlogged flow would rank its next packet below its queued head.
    :meth:`set_slack` raises :class:`~repro.core.base.SchedulerError`
    for a backlogged flow.
    """

    __slots__ = ("slacks", "default_slack", "_scheduler")

    name = "LSTF"
    exports = ("slacks", "set_slack")

    def __init__(self, default_slack: float = 0.01) -> None:
        if default_slack <= 0:
            raise SchedulerError(
                f"default_slack must be positive, got {default_slack}"
            )
        self.slacks: Dict[Hashable, float] = {}
        self.default_slack = float(default_slack)
        self._scheduler: Optional[Scheduler] = None

    def bind(self, scheduler: Scheduler) -> None:
        self._scheduler = scheduler

    def set_slack(self, flow_id: Hashable, slack: float) -> None:
        """Assign idle flow ``flow_id`` a slack budget in seconds."""
        if slack <= 0:
            raise SchedulerError(f"slack must be positive, got {slack}")
        scheduler = self._scheduler
        if scheduler is not None and scheduler.flow_backlog(flow_id):
            raise SchedulerError(
                f"cannot change the slack of backlogged flow {flow_id!r}; "
                "LSTF ranks must stay monotone within a flow"
            )
        self.slacks[flow_id] = float(slack)

    def rank(self, flow: RankFlow, packet: Packet, now: float) -> float:
        deadline = now + self.slacks.get(packet.flow, self.default_slack)
        packet.deadline = deadline
        return deadline

    def head_key(self, packet: Packet) -> float:
        return packet.deadline  # type: ignore[return-value]  # stamped on enqueue

    def band_origin(self, now: float) -> float:
        # Slack deadlines are absolute times; band-map relative to now.
        return now


# ----------------------------------------------------------------------
# The exact engine: a flow-head heap driven by a rank function
# ----------------------------------------------------------------------


class PifoScheduler(Scheduler):
    """Flow-head-heap PIFO engine driven by a :class:`RankFn`.

    Every tag discipline runs on this engine; the discipline itself is
    the ``rank_fn`` argument, and ``algorithm`` is its ``name``.
    ``enqueue``, ``dequeue`` and ``on_service_complete`` each run in a
    single frame (the base class's template hooks are not used), and the
    served counters are charged through the heap entry's
    :class:`~repro.core.flow.FlowState` rather than a flow-id lookup.

    Parameters
    ----------
    tie_break:
        Secondary sort key for packets with equal keys; one of the rules
        in :class:`repro.core.base.TieBreak` or any callable
        ``(FlowState, Packet) -> tuple``.
    debug_checks:
        When True, re-verify the flow-head-heap invariant on every
        dequeue, raising :class:`~repro.core.base.SchedulerError` on
        corruption. Off by default.
    """

    __slots__ = (
        "algorithm",
        "_rank",
        "_eligibility",
        "_tie_break",
        "_fifo_ties",
        "_head_heap",
        "debug_checks",
    )

    def __init__(
        self,
        rank_fn: RankFn,
        *,
        tie_break: TieBreakRule = TieBreak.fifo,
        auto_register: bool = True,
        default_weight: float = 1.0,
        debug_checks: bool = False,
    ) -> None:
        super().__init__(auto_register=auto_register, default_weight=default_weight)
        self.algorithm = rank_fn.name
        self._rank = rank_fn
        self._eligibility = bool(rank_fn.eligibility)
        self._tie_break = tie_break
        self._fifo_ties = tie_break is TieBreak.fifo
        #: Heap of live flow-head entries (at most one per backlogged flow).
        self._head_heap: List[HeapEntry] = []
        self.debug_checks = bool(debug_checks)
        rank_fn.bind(self)

    @property
    def rank_fn(self) -> RankFn:
        """The rank function driving this engine."""
        return self._rank

    def __getattr__(self, name: str) -> Any:
        # Forward the rank's exported state (scheduler.virtual_time,
        # .gps, .deadlines, ...). hasattr() therefore stays
        # discipline-dependent, which the fault monitors rely on.
        try:
            rank = object.__getattribute__(self, "_rank")
        except AttributeError:
            raise AttributeError(name) from None
        if name in rank.exports:
            return getattr(rank, name)
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    # ------------------------------------------------------------------
    # Scheduler protocol
    # ------------------------------------------------------------------
    def enqueue(self, packet: Packet, now: float) -> None:  # lint: hot
        """Rank ``packet`` (arriving at ``now``) and queue it."""
        state = self.flows.get(packet.flow)
        if state is None:
            state = self._flow(packet.flow)
        packet.arrival = now
        length = packet.length
        self._backlog_packets += 1
        self._backlog_bits += length
        key = self._rank.rank(state, packet, now)
        queue = state.queue
        queue.append(packet)
        state.bits_enqueued += length
        if length > state.max_length_seen:
            state.max_length_seen = length
        if self._fifo_ties:
            tie: Tuple[Any, ...] = ()
        else:
            tie = self._tie_break(state, packet)
            keys = state.tie_keys
            if keys is None:
                keys = state.tie_keys = deque()
            keys.append(tie)
        if len(queue) == 1:
            # The flow just became backlogged: its head enters the heap.
            entry: HeapEntry = [key, tie, packet.uid, packet, state]
            state.heap_entry = entry
            _heappush(self._head_heap, entry)

    def dequeue(self, now: float) -> Optional[Packet]:  # lint: hot
        """Serve the minimum-rank flow head; ``None`` when empty."""
        heap = self._head_heap
        if self._eligibility:
            entry = self._pop_eligible(now)
            if entry is None:
                return None
        else:
            while True:
                if not heap:
                    return None
                entry = _heappop(heap)
                if entry[3] is not None:
                    break
        packet: Packet = entry[3]
        state: FlowState = entry[4]
        state.heap_entry = None
        length = packet.length
        state.bits_served += length
        state.packets_served += 1
        queue = state.queue
        head = queue.popleft()
        if self.debug_checks and head is not packet:
            raise SchedulerError(
                f"{self.algorithm} internal error: flow {state.flow_id!r} "
                "FIFO head diverged from its head-heap entry"
            )
        rank = self._rank
        # Re-offer the flow's next head, if any.
        if self._fifo_ties:
            if queue:
                nxt = queue[0]
                fresh: HeapEntry = [rank.head_key(nxt), (), nxt.uid, nxt, state]
                state.heap_entry = fresh
                _heappush(heap, fresh)
        else:
            keys = state.tie_keys
            assert keys is not None  # non-FIFO enqueue always fills it
            keys.popleft()
            if queue:
                nxt = queue[0]
                fresh = [rank.head_key(nxt), keys[0], nxt.uid, nxt, state]
                state.heap_entry = fresh
                _heappush(heap, fresh)
        rank.on_dequeue(state, packet)
        self._backlog_packets -= 1
        self._backlog_bits -= length
        self.in_service = packet
        return packet

    def on_service_complete(self, packet: Packet, now: float) -> None:
        """Close the service of ``packet``; an empty scheduler ends the
        busy period (the rank's ``on_idle``)."""
        if self.in_service is packet:
            self.in_service = None
        if self._backlog_packets == 0:
            self._rank.on_idle()

    def peek(self, now: float) -> Optional[Packet]:
        """Packet the next ``dequeue`` would return (no side effects)."""
        heap = self._head_heap
        while heap and heap[0][3] is None:
            heapq.heappop(heap)
        if not self._eligibility or not heap:
            return heap[0][3] if heap else None
        v = self._rank.advance(now)
        live = [e for e in heap if e[3] is not None]
        eligible = [e for e in live if e[3].start_tag <= v + 1e-12]
        if eligible:
            return min(eligible, key=lambda e: (e[3].finish_tag, e[2]))[3]
        return min(live, key=lambda e: (e[3].start_tag, e[2]))[3]

    def _pop_eligible(self, now: float) -> Optional[HeapEntry]:
        """WF²Q selection: pop the minimum-key *eligible* flow head.

        Ineligible heads (``S(p) > v(t)``) are shelved and pushed back;
        when none is eligible the smallest start tag is served (ties by
        uid), keeping the discipline work-conserving.
        """
        heap = self._head_heap
        while heap and heap[0][3] is None:
            heapq.heappop(heap)
        if not heap:
            return None
        v = self._rank.advance(now)
        shelved: List[HeapEntry] = []
        chosen: Optional[HeapEntry] = None
        while heap:
            entry = heapq.heappop(heap)
            packet = entry[3]
            if packet is None:
                continue
            if packet.start_tag is not None and packet.start_tag <= v + 1e-12:
                chosen = entry
                break
            shelved.append(entry)
        if chosen is None:
            chosen = min(shelved, key=lambda e: (e[3].start_tag, e[2]))
        for entry in shelved:
            if entry is not chosen:
                heapq.heappush(heap, entry)
        return chosen

    def _do_discard_tail(self, state: FlowState) -> Optional[Packet]:
        """Pop the flow's FIFO tail in O(1).

        The tail is in the head heap only when it is the flow's sole
        packet; then its live entry is invalidated in place and reaped
        lazily by the next dequeue/peek.
        """
        rank = self._rank
        if not rank.supports_discard:
            return super()._do_discard_tail(state)  # raises, naming the algorithm
        queue = state.queue
        packet = queue.pop()
        if not self._fifo_ties and state.tie_keys:
            state.tie_keys.pop()
        if not queue:
            entry = state.heap_entry
            if entry is not None:
                entry[3] = None
                entry[4] = None
                state.heap_entry = None
        rank.on_discard(state, packet)
        return packet

    # enqueue()/dequeue() above are complete; the template hooks exist
    # only to satisfy the Scheduler ABC and are never reached.
    def _do_enqueue(self, state: FlowState, packet: Packet, now: float) -> None:
        raise NotImplementedError("PifoScheduler.enqueue is self-contained")

    def _do_dequeue(self, now: float) -> Optional[Packet]:
        raise NotImplementedError("PifoScheduler.dequeue is self-contained")


# ----------------------------------------------------------------------
# SP-PIFO: k strict-priority bands approximating the perfect PIFO
# ----------------------------------------------------------------------


class SpPifoScheduler(Scheduler):
    """SP-PIFO (Alcoz et al.): quantized PIFO over k priority bands.

    A perfect PIFO serves strictly in rank order at O(log n). SP-PIFO
    approximates it with ``bands`` strict-priority FIFO queues and one
    adaptive bound per band:

    * **push-up** — a packet is enqueued into the lowest-priority band
      whose bound its rank meets, and that band's bound rises to the
      rank;
    * **push-down** — a rank below even the top band's bound signals an
      inversion-in-the-making: all bounds drop by the overshoot and the
      packet enters the top band.

    Enqueue/dequeue are O(k); fidelity is measured as the **rank
    inversion rate** — the fraction of dequeues where some queued packet
    had a strictly smaller rank (tracked against an exact side-heap when
    ``track_inversions`` is on). ``bands=None`` is the k→∞ degenerate
    case: a single exact heap, byte-identical in service order to
    :class:`PifoScheduler` for within-flow-monotone ranks.

    Unlike the PIFO engine this scheduler does not forward the rank's
    exported state (no ``virtual_time``): it intentionally serves out of
    tag order, so virtual-time monitors must not attach to it.
    """

    __slots__ = (
        "_rank",
        "_bands",
        "bounds",
        "_exact_heap",
        "track_inversions",
        "inversions",
        "unpifoness",
        "dequeues",
        "push_ups",
        "push_downs",
        "_pending",
        "_done",
    )

    algorithm = "SP-PIFO"

    def __init__(
        self,
        rank_fn: RankFn,
        bands: Optional[int] = 8,
        *,
        auto_register: bool = True,
        default_weight: float = 1.0,
        track_inversions: bool = True,
    ) -> None:
        super().__init__(auto_register=auto_register, default_weight=default_weight)
        if bands is not None and bands < 1:
            raise SchedulerError(f"bands must be >= 1 (or None for exact), got {bands}")
        self._rank = rank_fn
        #: Strict-priority FIFO bands, index 0 = highest priority
        #: (smallest ranks); None in exact (k=inf) mode.
        self._bands: Optional[List[Deque[Packet]]] = (
            None if bands is None else [deque() for _ in range(bands)]
        )
        #: Per-band rank bounds, adapted by push-up/push-down.
        self.bounds: List[float] = [] if bands is None else [0.0] * bands
        #: Exact PIFO heap of (rank, uid, packet); only in k=inf mode.
        self._exact_heap: Optional[List[Tuple[float, int, Packet]]] = (
            [] if bands is None else None
        )
        self.track_inversions = bool(track_inversions) and bands is not None
        self.inversions = 0
        #: Sum of positive rank gaps (served key minus exact-PIFO
        #: minimum queued key) — the magnitude-weighted inversion
        #: measure of Alcoz et al.; rate alone saturates once a small
        #: rank is stranded.
        self.unpifoness = 0.0
        self.dequeues = 0
        self.push_ups = 0
        self.push_downs = 0
        #: Side min-heap of (rank, uid) of queued packets (fidelity
        #: tracking only; never consulted for scheduling).
        self._pending: List[Tuple[float, int]] = []
        #: uids dequeued while not at the side-heap top (lazy purge).
        self._done: Dict[int, None] = {}
        rank_fn.bind(self)

    @property
    def rank_fn(self) -> RankFn:
        """The rank function driving this approximation."""
        return self._rank

    @property
    def band_count(self) -> Optional[int]:
        """Number of priority bands (None in exact k=inf mode)."""
        return None if self._bands is None else len(self._bands)

    @property
    def inversion_rate(self) -> float:
        """Fraction of dequeues that inverted the perfect-PIFO order."""
        return self.inversions / self.dequeues if self.dequeues else 0.0

    def band_occupancy(self) -> List[int]:
        """Queued packets per band, highest priority first."""
        return [] if self._bands is None else [len(b) for b in self._bands]

    # ------------------------------------------------------------------
    # Scheduler protocol
    # ------------------------------------------------------------------
    def _do_enqueue(self, state: FlowState, packet: Packet, now: float) -> None:
        key = self._rank.rank(state, packet, now)
        heap = self._exact_heap
        if heap is not None:
            heapq.heappush(heap, (key, packet.uid, packet))
            return
        bands = self._bands
        assert bands is not None  # exact mode returned above
        bounds = self.bounds
        if self.track_inversions:
            heapq.heappush(self._pending, (key, packet.uid))
        # Band-map on the origin-relative key (see RankFn.band_origin):
        # bounds learned from drifting absolute tags would sink every
        # newer packet to the bottom band.
        rel = key - self._rank.band_origin(now)
        # Scan bottom-up (largest bounds first): the packet lands in the
        # lowest-priority band whose bound its rank meets, pushing that
        # bound up to the rank.
        for i in range(len(bands) - 1, 0, -1):
            if rel >= bounds[i]:
                bounds[i] = rel
                self.push_ups += 1
                bands[i].append(packet)
                return
        if rel >= bounds[0]:
            bounds[0] = rel
            self.push_ups += 1
        else:
            # Inversion at the top band: push every bound down by the
            # overshoot, admit the packet at highest priority.
            delta = bounds[0] - rel
            for i in range(len(bounds)):
                bounds[i] -= delta
            self.push_downs += 1
        bands[0].append(packet)

    def _do_dequeue(self, now: float) -> Optional[Packet]:
        heap = self._exact_heap
        if heap is not None:
            if not heap:
                return None
            _key, _uid, packet = heapq.heappop(heap)
            self.dequeues += 1
            self._rank.on_dequeue(self.flows[packet.flow], packet)
            return packet
        bands = self._bands
        assert bands is not None  # exact mode returned above
        packet = None
        for band in bands:
            if band:
                packet = band.popleft()
                break
        if packet is None:
            return None
        self.dequeues += 1
        if self.track_inversions:
            self._record_inversion(packet)
        self._rank.on_dequeue(self.flows[packet.flow], packet)
        return packet

    def _record_inversion(self, packet: Packet) -> None:
        """Compare this dequeue against the exact side-heap minimum."""
        pending = self._pending
        done = self._done
        while pending and pending[0][1] in done:
            del done[pending[0][1]]
            heapq.heappop(pending)
        if not pending:
            return
        top_key, top_uid = pending[0]
        if top_uid == packet.uid:
            heapq.heappop(pending)
            return
        # A strictly smaller rank is still queued: perfect PIFO would
        # have served it first. (Equal ranks are not inversions.)
        gap = self._rank.head_key(packet) - top_key
        if gap > 0.0:
            self.inversions += 1
            self.unpifoness += gap
        done[packet.uid] = None

    def _do_service_complete(self, packet: Packet, now: float) -> None:
        if self._backlog_packets == 0:
            self._rank.on_idle()

    def peek(self, now: float) -> Optional[Packet]:
        """Packet the next ``dequeue`` would return (no side effects)."""
        heap = self._exact_heap
        if heap is not None:
            return heap[0][2] if heap else None
        bands = self._bands
        assert bands is not None  # exact mode returned above
        for band in bands:
            if band:
                return band[0]
        return None
