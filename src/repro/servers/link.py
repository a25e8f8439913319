"""The Link: a scheduler driven by a capacity process on a simulator.

``Link`` is the single place where scheduling policy meets transmission
capacity. It owns the non-preemptive service loop:

* ``send(packet)`` — packet arrives; optionally drop-tail against a
  buffer limit; otherwise enqueue and, if idle, start service;
* service of one packet occupies the transmitter for
  ``capacity.finish_time(now, length) - now`` seconds;
* on completion the scheduler is notified (virtual-time bookkeeping),
  departure hooks fire (multi-hop forwarding, sinks), and the next
  packet is fetched.

Every packet's (arrival, start-of-service, departure) is recorded in a
:class:`repro.simulation.tracing.Tracer` for the fairness/delay
analysis — unless the tracer's ``enabled`` flag is False (pass a
:class:`repro.simulation.tracing.NullTracer` to turn the per-packet
tracing cost into a single attribute test). Busy periods are logged
because the FC/EBF definitions constrain work only *within* busy
periods.

Outages
-------
:meth:`Link.pause` / :meth:`Link.resume` model link failure and
recovery (capacity going to zero and back) without deadlocking the
service loop: while paused the link accepts and queues arrivals but
starts no transmission, and the packet that was on the wire when the
outage hit is either retransmitted from scratch (``recovery="replay"``)
or dropped and counted (``recovery="drop"``) at recovery time. The
:class:`repro.faults.LinkOutage` injector drives these hooks on a
deterministic or seeded schedule.

Pause/resume is *counted*, not boolean: each :meth:`pause` increments a
hold depth and each :meth:`resume` releases one hold, with service
restarting (and the recovery policy applying) only when the depth
returns to zero. This is what lets several composed injectors — two
overlapping :class:`~repro.faults.LinkOutage`\\ s, or an outage plus a
:class:`~repro.faults.ServerStall` — each take the link down over
overlapping windows without double-pausing, resuming underneath each
other, or destroying the in-flight packet that the outer hold still
owns. A :meth:`resume` with no hold outstanding stays a no-op.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.core.base import Scheduler
from repro.core.packet import Packet
from repro.metrics.hub import MetricsHub
from repro.metrics.session import hub_for
from repro.servers.base import CapacityProcess
from repro.simulation.engine import Simulator
from repro.simulation.tracing import Tracer

DepartureHook = Callable[[Packet, float], None]
DropHook = Callable[[Packet, float], None]
ArrivalHook = Callable[[Packet, float], None]


class Link:
    """A transmission link: scheduler + capacity process + event loop."""

    __slots__ = (
        "sim",
        "scheduler",
        "capacity",
        "name",
        "buffer_packets",
        "buffer_bits",
        "per_flow_buffer_packets",
        "drop_policy",
        "tracer",
        "metrics",
        "departure_hooks",
        "drop_hooks",
        "arrival_hooks",
        "_busy",
        "_pause_depth",
        "_in_flight",
        "_completion",
        "_wakeup",
        "_reserve",
        "_records",
        "bits_transmitted",
        "packets_transmitted",
        "packets_dropped",
        "busy_periods",
        "_busy_since",
    )

    def __init__(
        self,
        sim: Simulator,
        scheduler: Scheduler,
        capacity: CapacityProcess,
        name: str = "link",
        buffer_packets: Optional[int] = None,
        buffer_bits: Optional[int] = None,
        per_flow_buffer_packets: Optional[Dict] = None,
        drop_policy: str = "drop_tail",
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsHub] = None,
    ) -> None:
        if drop_policy not in ("drop_tail", "longest_queue"):
            raise ValueError(
                f"drop_policy must be 'drop_tail' or 'longest_queue', "
                f"got {drop_policy!r}"
            )
        self.sim = sim
        self.scheduler = scheduler
        self.capacity = capacity
        self.name = name
        self.buffer_packets = buffer_packets
        self.buffer_bits = buffer_bits
        # flow id -> max queued packets for that flow (drop-tail per flow)
        self.per_flow_buffer_packets = per_flow_buffer_packets or {}
        #: "drop_tail" drops the arriving packet; "longest_queue" drops
        #: from the tail of the longest queue instead (Demers et al.
        #: 1989), protecting light flows from heavy ones at the buffer.
        self.drop_policy = drop_policy
        self.tracer = tracer if tracer is not None else Tracer(name)
        #: Online instruments; defaults to the ambient hub for this
        #: server name — the shared null hub (enabled=False) unless a
        #: MetricsSession is active, in which case every guarded update
        #: below goes live. Same discipline as the tracer.
        self.metrics = metrics if metrics is not None else hub_for(name)
        self.departure_hooks: List[DepartureHook] = []
        self.drop_hooks: List[DropHook] = []
        #: Fired for every *accepted* arrival, after the scheduler has
        #: enqueued it (runtime invariant monitors hang off these).
        self.arrival_hooks: List[ArrivalHook] = []
        self._busy = False
        # Outage hold depth: >0 means the link is down. Counted (not
        # boolean) so composed injectors can pause/resume independently.
        self._pause_depth = 0
        self._in_flight: Optional[Packet] = None
        self._completion = None  # pending transmission-complete event
        self._wakeup = None  # pending eligibility wake-up event
        # The seed engine (tests/reference) has no reserve_inline; the
        # busy-period fast path simply stays off there.
        self._reserve = getattr(sim, "reserve_inline", None)
        # packet uid -> tracer handle (only populated while tracing).
        self._records: Dict[int, object] = {}
        self.bits_transmitted = 0
        self.packets_transmitted = 0
        self.packets_dropped = 0
        self.busy_periods: List[Tuple[float, float]] = []
        self._busy_since: Optional[float] = None

    # ------------------------------------------------------------------
    # Ingress
    # ------------------------------------------------------------------
    def send(self, packet: Packet) -> bool:
        """Offer ``packet`` to the link at the current simulation time.

        Returns False (and fires drop hooks) when the buffer is full.
        """
        now = self.sim.now
        tracer = self.tracer
        if tracer.enabled:
            handle = tracer.on_arrival(packet.flow, packet.seqno, packet.length, now)
        else:
            handle = None
        scheduler = self.scheduler
        cap = self.buffer_packets
        if (
            self.buffer_bits is not None
            or self.per_flow_buffer_packets
            or (cap is not None and self.drop_policy != "drop_tail")
        ):
            # Longest-queue-drop may need several evictions to make room
            # for a large arrival under a bits-denominated buffer.
            while self._buffer_full(packet):
                victim = None
                if self.drop_policy == "longest_queue" and not self._per_flow_limited(packet):
                    victim = self._drop_from_longest_queue(now)
                if victim is None:
                    self._drop(packet, handle, now)
                    return False
        elif (
            cap is not None
            and scheduler.backlog_packets + 1 > cap
            and (self._busy or not scheduler.is_empty)
        ):
            # Shared drop-tail buffer. A packet that goes straight to an
            # idle transmitter never waits, so no limit applies to it.
            self._drop(packet, handle, now)
            return False
        if handle is not None:
            self._records[packet.uid] = handle
        scheduler.enqueue(packet, now)
        metrics = self.metrics
        if metrics.enabled:
            metrics.on_arrival(
                packet.flow, packet.length, now,
                scheduler.backlog_packets, scheduler.backlog_bits,
            )
        if self.arrival_hooks:
            for hook in self.arrival_hooks:
                hook(packet, now)
        if not self._busy:
            self._start_service()
        return True

    def _per_flow_limited(self, packet: Packet) -> bool:
        """True when this arrival violates its own flow's buffer cap
        (longest-queue-drop must not steal room for a capped flow)."""
        limit = self.per_flow_buffer_packets.get(packet.flow)
        return (
            limit is not None
            and self.scheduler.flow_backlog(packet.flow) + 1 > limit
        )

    def _drop_from_longest_queue(self, now: float) -> Optional[Packet]:
        """Evict the youngest packet of the most backlogged flow."""
        longest = None
        longest_backlog = 0
        for flow_id in self.scheduler.backlogged_flows():
            backlog = self.scheduler.flow_backlog(flow_id)
            if backlog > longest_backlog:
                longest, longest_backlog = flow_id, backlog
        if longest is None:
            return None
        victim = self.scheduler.discard_tail(longest)
        if victim is None:
            return None
        self._drop(victim, self._records.pop(victim.uid, None), now)
        return victim

    def _drop(self, packet: Packet, handle: Optional[object], now: float) -> None:
        """Record ``packet`` as dropped at ``now``: tracer, counters, hooks."""
        if handle is not None:
            self.tracer.mark_dropped(handle)
        self.packets_dropped += 1
        if self.metrics.enabled:
            self.metrics.on_dropped(packet.flow, packet.length, now)
        for hook in self.drop_hooks:
            hook(packet, now)

    def _buffer_full(self, packet: Packet) -> bool:
        if not self._busy and self.scheduler.is_empty:
            # The packet goes straight to the transmitter, not the
            # waiting room; buffer limits do not apply.
            return False
        if (
            self.buffer_packets is not None
            and self.scheduler.backlog_packets + 1 > self.buffer_packets
        ):
            return True
        if (
            self.buffer_bits is not None
            and self.scheduler.backlog_bits + packet.length > self.buffer_bits
        ):
            return True
        limit = self.per_flow_buffer_packets.get(packet.flow)
        if limit is not None and self.scheduler.flow_backlog(packet.flow) + 1 > limit:
            return True
        return False

    # ------------------------------------------------------------------
    # Service loop
    # ------------------------------------------------------------------
    def _start_service(self) -> None:
        """Put the next packet on the wire, if the link is up and idle."""
        if self._busy or self._pause_depth:
            return
        now = self.sim.now
        packet = self.scheduler.dequeue(now)
        if packet is None:
            self._went_idle(now)
        else:
            self._transmit(packet, now)

    def _transmit(self, packet: Packet, now: float) -> None:
        """Put ``packet`` on the wire at ``now``; time its completion."""
        if self._busy_since is None:
            self._busy_since = now
        self._busy = True
        self._in_flight = packet
        if self._records:
            handle = self._records.get(packet.uid)
            if handle is not None:
                self.tracer.mark_start(handle, now)
        finish = self.capacity.finish_time(now, packet.length)
        self._completion = self.sim.at(finish, self._complete, packet)

    def _went_idle(self, now: float) -> None:
        """Nothing eligible to send: close the busy period."""
        if self._busy_since is not None:
            self.busy_periods.append((self._busy_since, now))
            self._busy_since = None
        if self.scheduler.backlog_packets > 0:
            # Non-work-conserving discipline holding packets back:
            # wake up when the next one becomes eligible.
            wake = self.scheduler.next_eligible_time(now)
            if wake is not None and (
                self._wakeup is None or not self._wakeup.pending
            ):
                self._wakeup = self.sim.at(max(wake, now), self._on_wakeup)

    def _complete(self, packet: Packet) -> None:  # lint: hot
        """Finish transmitting ``packet``; chain the busy period.

        While the link stays backlogged, consecutive departures are
        *chained*: if the engine can guarantee nothing else fires at or
        before the next finish time (:meth:`Simulator.reserve_inline`),
        the clock jumps there and the next completion runs in this same
        loop iteration — no completion timer, no Event allocation, no
        queue round trip. Any interleaving work (an arrival, a fault
        injector's timer, a stream batch, a pause from a departure
        hook) makes the reservation fail, and the completion falls back
        to a normal timer exactly as scheduled before this fast path
        existed. Observable behavior — departure times/order, tracer
        records, metrics, hook order, ``events_processed`` — is
        identical either way.
        """
        sim = self.sim
        reserve = self._reserve
        scheduler = self.scheduler
        dequeue = scheduler.dequeue
        finish_time = self.capacity.finish_time
        metrics = self.metrics
        now = sim.now
        while True:
            self._busy = False
            self._in_flight = None
            self._completion = None
            if self._records:
                handle = self._records.pop(packet.uid, None)
                if handle is not None:
                    self.tracer.mark_departure(handle, now)
            self.bits_transmitted += packet.length
            self.packets_transmitted += 1
            if metrics.enabled:
                metrics.on_served(
                    packet.flow, packet.length, now - packet.arrival, now,
                    scheduler.backlog_packets, scheduler.backlog_bits,
                )
            scheduler.on_service_complete(packet, now)
            if self.departure_hooks:
                for hook in self.departure_hooks:
                    hook(packet, now)
            # The next transmission: _start_service and _transmit, inlined.
            if self._busy or self._pause_depth:
                # A departure hook already restarted service reentrantly
                # (a closed-loop source refilling) or took the link down.
                return
            packet = dequeue(now)
            if packet is None:
                self._went_idle(now)
                return
            if self._busy_since is None:
                self._busy_since = now
            self._busy = True
            self._in_flight = packet
            if self._records:
                handle = self._records.get(packet.uid)
                if handle is not None:
                    self.tracer.mark_start(handle, now)
            finish = finish_time(now, packet.length)
            if reserve is not None and reserve(finish):
                now = finish  # reserve_inline advanced the clock here
                continue  # complete inline, no timer
            self._completion = sim.at(finish, self._complete, packet)
            return

    def _on_wakeup(self) -> None:
        self._wakeup = None
        self._start_service()

    # ------------------------------------------------------------------
    # Outage control (link down / up)
    # ------------------------------------------------------------------
    def pause(self) -> None:
        """Take the link down (one hold) at the current simulation time.

        The first hold aborts the in-flight transmission (if any) — its
        completion event is cancelled and the packet is held for the
        final :meth:`resume` to replay or drop. Arrivals while paused
        are queued normally (up to the buffer limits); no service starts
        until every hold is released. Pausing an already-paused link
        stacks another hold (counted semantics) so composed injectors
        never double-abort the same transmission.
        """
        self._pause_depth += 1
        if self._pause_depth > 1:
            return
        if self._completion is not None and self._completion.pending:
            self._completion.cancel()
        self._completion = None
        if self._wakeup is not None and self._wakeup.pending:
            self._wakeup.cancel()
        self._wakeup = None

    def resume(self, recovery: str = "replay") -> None:
        """Release one hold; bring the link back up at depth zero.

        ``recovery="replay"`` retransmits the packet that was on the
        wire when the outage hit from scratch (the receiver saw only a
        truncated frame); ``recovery="drop"`` discards it, counting it
        in :attr:`packets_dropped` and firing drop hooks, which models a
        link that flushes its transmit ring on reset. Either way the
        service loop restarts, so a zero-capacity episode can never
        deadlock the link. The recovery policy is applied by the
        *final* release only — while other holds remain the link stays
        down and the in-flight packet stays parked. Resuming a link
        with no hold outstanding is a no-op.
        """
        if recovery not in ("replay", "drop"):
            raise ValueError(
                f"recovery must be 'replay' or 'drop', got {recovery!r}"
            )
        if self._pause_depth == 0:
            return
        self._pause_depth -= 1
        if self._pause_depth:
            return
        now = self.sim.now
        packet = self._in_flight
        if packet is not None:
            if recovery == "replay":
                self._transmit(packet, now)
                return
            # recovery == "drop": the interrupted packet is lost. The
            # scheduler still gets its completion notification (the
            # service slot is over, the packet just never arrived), so
            # virtual-time bookkeeping stays consistent. The packet is
            # tagged so monitors can tell allocated-then-destroyed
            # service from a queue eviction.
            self._busy = False
            self._in_flight = None
            packet.meta["outage_drop"] = True
            self.scheduler.on_service_complete(packet, now)
            self._drop(packet, self._records.pop(packet.uid, None), now)
        self._start_service()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def busy(self) -> bool:
        return self._busy

    @property
    def paused(self) -> bool:
        """True while the link is down (at least one hold outstanding)."""
        return self._pause_depth > 0

    @property
    def pause_depth(self) -> int:
        """Number of outstanding pause holds (0 = link up)."""
        return self._pause_depth

    @property
    def in_flight(self) -> Optional[Packet]:
        """The packet currently occupying the transmitter, if any."""
        return self._in_flight

    def utilization(self, t1: float, t2: float) -> float:
        """Fraction of nominal capacity used for traffic in [t1, t2].

        Computed from the departure records, so it needs a recording
        tracer: raises :class:`ValueError` when tracing is off.
        """
        if not self.tracer.enabled:
            raise ValueError(
                f"utilization of link {self.name!r} needs departure records; "
                "its tracer is disabled"
            )
        if t2 <= t1:
            return 0.0
        possible = self.capacity.work(t1, t2)
        if possible <= 0:
            return 0.0
        served = sum(
            r.length
            for r in self.tracer.iter_departed()
            if t1 <= r.departure <= t2
        )
        return served / possible

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Link({self.name}, {self.scheduler.algorithm}, "
            f"tx={self.packets_transmitted}p, drop={self.packets_dropped}p)"
        )
