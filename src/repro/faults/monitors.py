"""Runtime invariant monitors.

The paper's guarantees are stated over *every* interval of a run, but
the existing analysis layer (:mod:`repro.analysis.fairness`) only checks
them post-hoc, on traces an experiment happened to keep. These monitors
hook into a live :class:`repro.servers.link.Link` and check the
invariants *while the simulation runs*, so a violation surfaces at the
instant it happens, with the offending window attached:

* :class:`FairnessMonitor` — Theorem 1's bound
  :math:`|W_f/r_f - W_g/r_g| \\le l_f^{max}/r_f + l_g^{max}/r_g`
  for every pair of continuously backlogged flows;
* :class:`VirtualTimeMonitor` — the system virtual time ``v(t)`` of a
  tag-based scheduler never decreases;
* :class:`ConservationAuditor` — every packet the link admits is
  eventually departed, dropped, or still queued (no silent loss, no
  double delivery).

Each violation is a structured :class:`InvariantViolation`. Monitors run
in ``mode="raise"`` (fail fast — debugging) or ``mode="record"``
(accumulate violations — measurement), and a link's monitors bundle into
a :class:`MonitorSuite` via :func:`install_monitors`.

Implementation note on the fairness check: for an interval
:math:`[t_1, t_2]` inside a common-backlog span, the normalized service
gap is :math:`D(t_2) - D(t_1)` where ``D`` is the running signed
difference of normalized work. Its maximum over all sub-intervals of the
span is therefore ``max D - min D`` over the span, which the monitor
maintains incrementally in O(1) per departure per open pair — the same
trick that makes the offline :func:`empirical_fairness_measure` exact,
without storing the trace. Following the paper (Section 1.2), a packet
counts toward an interval only if it starts *and* finishes service
inside it; the monitor excludes the packet already on the wire when a
pair's common-backlog span opens.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Optional, Set, Tuple

from repro.core.packet import Packet
from repro.metrics.hub import NULL_METRICS, MetricsHub
from repro.servers.link import Link

__all__ = [
    "InvariantViolation",
    "Monitor",
    "FairnessMonitor",
    "VirtualTimeMonitor",
    "ConservationAuditor",
    "MonitorSuite",
    "install_monitors",
]


class InvariantViolation(Exception):
    """A runtime invariant was broken.

    Attributes
    ----------
    invariant:
        Which monitor fired (``"fairness"``, ``"virtual-time"``,
        ``"packet-conservation"``).
    time:
        Simulation time of detection.
    window:
        ``(t1, t2)`` span of the offending trace window.
    detail:
        Human-readable description of the violation.
    """

    def __init__(
        self,
        invariant: str,
        time: float,
        detail: str,
        window: Optional[Tuple[float, float]] = None,
    ) -> None:
        self.invariant = invariant
        self.time = float(time)
        self.detail = detail
        self.window = window if window is not None else (self.time, self.time)
        super().__init__(
            f"[{invariant}] t={self.time:.9g} "
            f"window=[{self.window[0]:.9g}, {self.window[1]:.9g}]: {detail}"
        )

    def to_payload(self) -> Dict[str, Any]:
        """Plain-JSON form (chaos artifacts, ``ExperimentResult.data``)."""
        return {
            "invariant": self.invariant,
            "time": self.time,
            "window": [self.window[0], self.window[1]],
            "detail": self.detail,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "InvariantViolation":
        """Inverse of :meth:`to_payload`."""
        window = payload.get("window")
        return cls(
            str(payload["invariant"]),
            float(payload["time"]),
            str(payload["detail"]),
            (float(window[0]), float(window[1])) if window else None,
        )


class Monitor:
    """Base class: violation accumulation and raise/record modes."""

    invariant = "abstract"

    def __init__(self, mode: str = "raise", metrics: Optional[MetricsHub] = None) -> None:
        if mode not in ("raise", "record"):
            raise ValueError(f"mode must be 'raise' or 'record', got {mode!r}")
        self.mode = mode
        self.violations: List[InvariantViolation] = []
        #: Metrics hub violations are counted on (as
        #: ``invariant_violations{<invariant>}``); link-attached monitors
        #: pass their link's hub so violations land in that server's
        #: snapshot. Defaults to the null hub (no-op).
        self.metrics = metrics if metrics is not None else NULL_METRICS

    @property
    def ok(self) -> bool:
        return not self.violations

    def assert_clean(self) -> None:
        """Raise the first recorded violation, if any."""
        if self.violations:
            raise self.violations[0]

    def _violate(
        self,
        time: float,
        detail: str,
        window: Optional[Tuple[float, float]] = None,
    ) -> InvariantViolation:
        violation = InvariantViolation(self.invariant, time, detail, window)
        self.violations.append(violation)
        if self.metrics.enabled:
            self.metrics.counter("invariant_violations", self.invariant).add()
        if self.mode == "raise":
            raise violation
        return violation


class _FlowTrack:
    """One tracked flow: its backlog, Theorem 1 constants and pairs.

    ``term`` is the flow's half of the bound, ``l_max / r``, recomputed
    only when ``max_len`` grows or the weight changes. ``peers`` maps
    every track this one has ever shared a backlog with to their
    persistent :class:`_PairState`; ``open`` holds the pairs whose
    common-backlog span is open now, in opening order (the order a
    departure posts service in).
    """

    __slots__ = (
        "flow", "weight", "inv_weight", "max_len", "term",
        "outstanding", "peers", "open",
    )

    def __init__(self, flow: Hashable, weight: float, inv_weight: float) -> None:
        self.flow = flow
        self.weight = weight
        self.inv_weight = inv_weight
        self.max_len = 0
        self.term = 0.0
        self.outstanding = 0
        self.peers: Dict[_FlowTrack, _PairState] = {}
        self.open: Dict[_FlowTrack, _PairState] = {}

    def reweight(self, weight: float, inv_weight: float) -> None:
        self.weight = weight
        self.inv_weight = inv_weight
        self.term = self.max_len / weight


class _PairState:
    """Running gap statistics for one pair of flows.

    Created the first time the two flows share a backlog and reset, not
    reallocated, each time a common-backlog span opens. ``key`` is the
    pair's canonical ``(a, b)`` order; service by ``a`` raises ``d``.
    """

    __slots__ = ("key", "a", "b", "since", "d", "dmin", "dmax")

    def __init__(self, a: _FlowTrack, b: _FlowTrack) -> None:
        if repr(a.flow) > repr(b.flow):
            a, b = b, a
        self.key = (a.flow, b.flow)
        self.a = a
        self.b = b
        self.reset(0.0)

    def reset(self, since: float) -> None:
        """Start a new common-backlog span at ``since``."""
        self.since = since
        self.d = 0.0
        self.dmin = 0.0
        self.dmax = 0.0


class FairnessMonitor(Monitor):
    """Online check of Theorem 1's fairness bound at one link.

    For every pair of flows, over every maximal interval in which both
    are continuously backlogged, the difference in normalized service
    must stay within ``l_f_max/r_f + l_g_max/r_g`` (+ ``slack``). Rates
    are the flows' scheduler weights; max packet lengths are learned
    from the arrivals seen so far, exactly as the theorem's constants.

    ``bound_factor`` scales the bound — useful when monitoring a
    discipline with a *weaker* guarantee than SFQ (e.g. DRR's extra
    quantum term), or set ``float("inf")`` to just measure
    :attr:`max_gap` without ever firing.

    The monitor tracks at most ``max_flows`` flows (pair state is
    quadratic); later flows are ignored. A departure costs O(1) per
    open pair of the served flow; an arrival that opens a backlog costs
    O(tracked flows), to open its common-backlog spans.
    """

    invariant = "fairness"

    def __init__(
        self,
        link: Link,
        mode: str = "raise",
        slack: float = 1e-9,
        bound_factor: float = 1.0,
        max_flows: int = 64,
    ) -> None:
        super().__init__(mode, metrics=link.metrics)
        self.link = link
        self.slack = float(slack)
        self.bound_factor = float(bound_factor)
        self.max_flows = int(max_flows)
        #: Largest normalized gap observed in any common-backlog window.
        self.max_gap = 0.0
        self.max_gap_pair: Optional[Tuple[Hashable, Hashable]] = None
        # The scheduler's flow table, read for weights. Service is
        # normalized by the cached reciprocal (FlowState.inv_weight):
        # a departure posts it to every open pair, and the bound check
        # carries explicit slack, so a multiply is safe where the
        # schedulers' tag math is not.
        self._flows = link.scheduler.flows
        self._tracks: Dict[Hashable, _FlowTrack] = {}  # in tracking order
        self._admitted: Set[int] = set()  # uids currently in the link
        self._last_departure = float("-inf")
        link.arrival_hooks.append(self._on_arrival)
        link.departure_hooks.append(self._on_departure)
        link.drop_hooks.append(self._on_drop)

    # ------------------------------------------------------------------
    def _on_arrival(self, packet: Packet, now: float) -> None:
        flow = packet.flow
        tracks = self._tracks
        track = tracks.get(flow)
        # The FlowState is looked up afresh each time: churn replaces
        # it, and a reweight changes it in place.
        state = self._flows.get(flow)
        if track is not None:
            if state is not None and state.weight != track.weight:
                track.reweight(state.weight, state.inv_weight)
        elif len(tracks) < self.max_flows and state is not None:
            track = tracks[flow] = _FlowTrack(flow, state.weight, state.inv_weight)
        else:
            # Over the cap, or a composite scheduler managing flows
            # internally (nothing to normalize by): skip this flow.
            return
        length = packet.length
        if length > track.max_len:
            track.max_len = length
            track.term = length / track.weight
        self._admitted.add(packet.uid)
        track.outstanding += 1
        if track.outstanding == 1:
            # Flow just became backlogged: open a common-backlog span
            # with every other currently backlogged flow.
            peers = track.peers
            opened = track.open
            for other in tracks.values():
                if other.outstanding and other is not track:
                    pair = peers.get(other)
                    if pair is None:
                        pair = peers[other] = other.peers[track] = _PairState(
                            track, other
                        )
                    pair.reset(now)
                    opened[other] = pair
                    other.open[track] = pair

    def _on_departure(self, packet: Packet, now: float) -> None:
        # A packet counts toward an interval only if it started service
        # inside it (paper Section 1.2). The start instant is bounded
        # below by both the packet's link-local arrival and the previous
        # departure of this serial server.
        arrival = packet.arrival
        last = self._last_departure
        started_lb = last if last > arrival else arrival
        self._last_departure = now
        admitted = self._admitted
        uid = packet.uid
        if uid not in admitted:
            return
        admitted.remove(uid)
        track = self._tracks[packet.flow]
        if track.open:
            # Post the service to every open pair of the flow.
            normalized = packet.length * track.inv_weight
            term = track.term
            bound_factor = self.bound_factor
            slack = self.slack
            max_gap = self.max_gap
            for other, pair in track.open.items():
                if started_lb < pair.since - 1e-12:
                    continue  # packet predates this common-backlog span
                if pair.a is track:
                    d = pair.d + normalized
                else:
                    d = pair.d - normalized
                pair.d = d
                dmin = pair.dmin
                dmax = pair.dmax
                if d < dmin:
                    pair.dmin = dmin = d
                elif d > dmax:
                    pair.dmax = dmax = d
                gap = dmax - dmin
                if gap > max_gap:
                    self.max_gap = max_gap = gap
                    self.max_gap_pair = pair.key
                # Float addition commutes exactly, so the bound may
                # take the served flow's term first.
                bound = (term + other.term) * bound_factor + slack
                if gap > bound:
                    self._violate_bound(pair, gap, bound, now)
        track.outstanding -= 1
        if not track.outstanding and track.open:
            self._close(track)

    def _on_drop(self, packet: Packet, now: float) -> None:
        # A dropped packet leaves the backlog without being served.
        # Ingress-rejected packets never fired the arrival hook and must
        # not decrement; evicted or outage-dropped ones did and must.
        if packet.uid not in self._admitted:
            return
        if packet.meta.get("outage_drop"):
            # The scheduler allocated this packet its service slot; the
            # outage destroyed it on the wire. Theorem 1 bounds the
            # *scheduler's* allocation, so the slot still counts, as a
            # departure — otherwise every outage drop would masquerade
            # as an unfairness of the discipline.
            self._on_departure(packet, now)
            return
        self._admitted.remove(packet.uid)
        track = self._tracks[packet.flow]
        track.outstanding -= 1
        if not track.outstanding and track.open:
            self._close(track)

    def _violate_bound(
        self, pair: _PairState, gap: float, bound: float, now: float
    ) -> None:
        a, b = pair.key
        self._violate(
            now,
            f"flows {a!r}/{b!r}: normalized service gap "
            f"{gap:.9g} exceeds Theorem 1 bound {bound:.9g} "
            f"({self.link.scheduler.algorithm} at {self.link.name})",
            window=(pair.since, now),
        )

    @staticmethod
    def _close(track: _FlowTrack) -> None:
        """Backlog span over: close every pair involving ``track``."""
        for other in track.open:
            del other.open[track]
        track.open.clear()

    def rebase_flow(self, flow: Hashable, now: float) -> None:
        """Restart every measurement span involving ``flow`` at ``now``.

        Theorem 1's constants (:math:`r_f`, :math:`l_f^{max}`) are fixed
        over the measured interval; when a flow is re-weighted mid-run
        (:class:`repro.faults.WeightReconfig`) the accumulated
        normalized-gap state mixes two rate regimes and stops meaning
        anything. Rebasing refreshes the cached weight from the
        scheduler and resets each open pair span as if the common
        backlog had just begun — the packet currently on the wire is
        naturally excluded by the span-start check in the departure
        hook, exactly as at a span's first opening.
        """
        track = self._tracks.get(flow)
        if track is None:
            return
        state = self._flows.get(flow)
        if state is not None:
            track.reweight(state.weight, state.inv_weight)
        for pair in track.open.values():
            pair.reset(now)


class VirtualTimeMonitor(Monitor):
    """Checks that a scheduler's system virtual time never decreases.

    SFQ's ``v(t)`` (Section 2, rule 2) is non-decreasing by
    construction: within a busy period it follows start tags of packets
    in service (served in non-decreasing start-tag order), and at the
    end of a busy period it jumps up to the max served finish tag. A
    decrease means corrupted scheduler state — e.g. a buggy flow-churn
    path resetting tags — and would silently break every fairness and
    delay guarantee downstream. Works with any scheduler exposing a
    ``virtual_time`` property (SFQ, SCFQ, WFQ, FQS).

    Where v(t) lives is worked out once, here: a scheduler driven by a
    rank function (it exposes ``rank_fn``, as :class:`PifoScheduler`
    and proxies forwarding to one do) keeps it on the rank, which its
    ``virtual_time`` only forwards to; any other scheduler is read
    directly. Every check still reads the live value.
    """

    invariant = "virtual-time"

    def __init__(self, link: Link, mode: str = "raise", eps: float = 1e-9) -> None:
        super().__init__(mode, metrics=link.metrics)
        scheduler = link.scheduler
        if not hasattr(scheduler, "virtual_time"):
            raise TypeError(
                f"{scheduler.algorithm} exposes no virtual_time; "
                "VirtualTimeMonitor only applies to tag-based schedulers"
            )
        rank = getattr(scheduler, "rank_fn", None)
        self._clock: Any = (
            rank
            if rank is not None and "virtual_time" in rank.exports
            else scheduler
        )
        self.link = link
        self.eps = float(eps)
        self.last_v = float("-inf")
        self._last_check = 0.0
        link.arrival_hooks.append(self._check)
        link.departure_hooks.append(self._check)

    def _check(self, packet: Packet, now: float) -> None:
        v = float(self._clock.virtual_time)
        last_v = self.last_v
        if v < last_v - self.eps:
            self._violate(
                now,
                f"virtual time moved backwards: {v:.9g} < {last_v:.9g} "
                f"({self.link.scheduler.algorithm} at {self.link.name})",
                window=(self._last_check, now),
            )
        if v > last_v:
            self.last_v = v
        self._last_check = now


class ConservationAuditor(Monitor):
    """Packet conservation: admitted = departed + dropped + queued.

    Tracks every admitted packet's uid. A departure or drop of a packet
    that was never admitted (or already accounted) fires immediately —
    that is a double delivery. Silent loss is the inverse and cannot be
    seen from any single event, so call :meth:`audit` (e.g. at the end
    of a run) to reconcile the outstanding set against what the link's
    scheduler and transmitter actually still hold.
    """

    invariant = "packet-conservation"

    def __init__(self, link: Link, mode: str = "raise") -> None:
        super().__init__(mode, metrics=link.metrics)
        self.link = link
        self.admitted = 0
        self.departed = 0
        self.dropped = 0
        self._outstanding: Set[int] = set()
        link.arrival_hooks.append(self._on_arrival)
        link.departure_hooks.append(self._on_departure)
        link.drop_hooks.append(self._on_drop)

    def _on_arrival(self, packet: Packet, now: float) -> None:
        if packet.uid in self._outstanding:
            self._violate(now, f"packet uid={packet.uid} admitted twice")
            return
        self._outstanding.add(packet.uid)
        self.admitted += 1

    def _on_departure(self, packet: Packet, now: float) -> None:
        if packet.uid not in self._outstanding:
            self._violate(
                now,
                f"packet uid={packet.uid} (flow {packet.flow!r}) departed "
                "but was never admitted — double delivery or hook misuse",
            )
            return
        self._outstanding.discard(packet.uid)
        self.departed += 1

    def _on_drop(self, packet: Packet, now: float) -> None:
        # Rejected-at-ingress packets were never admitted; evicted and
        # outage-dropped ones were. Both are legitimate drops.
        self._outstanding.discard(packet.uid)
        self.dropped += 1

    @property
    def outstanding(self) -> int:
        """Packets admitted but not yet departed or dropped."""
        return len(self._outstanding)

    def audit(self) -> None:
        """Reconcile the books against the link's actual queue state.

        Every outstanding packet must be physically present: either
        queued in the scheduler or occupying the transmitter. A
        mismatch means a packet evaporated (or materialized) without
        any hook firing.
        """
        held = self.link.scheduler.backlog_packets
        if self.link.in_flight is not None:
            held += 1
        if self.outstanding != held:
            self._violate(
                self.link.sim.now,
                f"conservation mismatch at {self.link.name}: "
                f"{self.outstanding} packets unaccounted for vs {held} "
                f"physically held (admitted={self.admitted}, "
                f"departed={self.departed}, dropped={self.dropped})",
                window=(0.0, self.link.sim.now),
            )


class MonitorSuite:
    """The monitors installed on one link, as a unit."""

    def __init__(
        self,
        link: Link,
        fairness: Optional[FairnessMonitor],
        virtual_time: Optional[VirtualTimeMonitor],
        conservation: Optional[ConservationAuditor],
    ) -> None:
        self.link = link
        self.fairness = fairness
        self.virtual_time = virtual_time
        self.conservation = conservation

    @property
    def monitors(self) -> List[Monitor]:
        return [
            m
            for m in (self.fairness, self.virtual_time, self.conservation)
            if m is not None
        ]

    @property
    def violations(self) -> List[InvariantViolation]:
        out: List[InvariantViolation] = []
        for monitor in self.monitors:
            out.extend(monitor.violations)
        out.sort(key=lambda v: v.time)
        return out

    def violations_payload(self) -> List[Dict[str, Any]]:
        """Every recorded violation in plain-JSON form, time-ordered.

        This is the structure experiments surface under
        ``ExperimentResult.data["violations"]`` — a machine-readable
        record, not just a counter.
        """
        return [v.to_payload() for v in self.violations]

    @property
    def ok(self) -> bool:
        return all(m.ok for m in self.monitors)

    @property
    def fail_fast(self) -> bool:
        """True when every installed monitor raises on first violation."""
        monitors = self.monitors
        return bool(monitors) and all(m.mode == "raise" for m in monitors)

    def audit(self) -> None:
        """Run the end-of-run conservation reconciliation."""
        if self.conservation is not None:
            self.conservation.audit()

    def assert_clean(self) -> None:
        """Audit, then raise the earliest violation if any was recorded."""
        self.audit()
        violations = self.violations
        if violations:
            raise violations[0]


def install_monitors(
    link: Link,
    mode: str = "record",
    fairness: bool = True,
    virtual_time: Optional[bool] = None,
    conservation: bool = True,
    slack: float = 1e-9,
    bound_factor: float = 1.0,
    fail_fast: Optional[bool] = None,
) -> MonitorSuite:
    """Attach the standard invariant monitors to ``link``.

    ``virtual_time=None`` auto-detects: the monitor is installed iff the
    link's scheduler exposes a ``virtual_time`` property.

    ``fail_fast`` is the ergonomic switch over ``mode``: ``True`` means
    raise at the first violation (``mode="raise"`` — debugging, CI
    gates), ``False`` means record and continue (``mode="record"`` —
    measurement, chaos campaigns). When given it overrides ``mode``;
    ``None`` leaves ``mode`` in charge.

    Returns the :class:`MonitorSuite`; call its
    :meth:`~MonitorSuite.audit` (or :meth:`~MonitorSuite.assert_clean`)
    after the run.
    """
    if fail_fast is not None:
        mode = "raise" if fail_fast else "record"
    if virtual_time is None:
        virtual_time = hasattr(link.scheduler, "virtual_time")
    return MonitorSuite(
        link,
        FairnessMonitor(link, mode=mode, slack=slack, bound_factor=bound_factor)
        if fairness
        else None,
        VirtualTimeMonitor(link, mode=mode) if virtual_time else None,
        ConservationAuditor(link, mode=mode) if conservation else None,
    )
