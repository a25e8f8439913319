"""Vectorized batch arrival generation (the million-flow traffic path).

The classic sources in this package (:class:`~repro.traffic.cbr.CBRSource`,
:class:`~repro.traffic.poisson.PoissonSource`) schedule **one engine
timer per packet**: fine for the paper's 2–8 flow figures, ruinous at
the 10^6-flow scale the hierarchical link-sharing story (§4) implies —
the heap does O(log N) work per generated packet before the scheduler
even sees it.

This module splits generation from delivery:

1. **Generate** arrival *times* as whole arrays up front —
   :func:`cbr_times` / :func:`poisson_times` per flow, or
   :func:`cbr_fleet_times` for an entire fleet of CBR flows in one
   broadcasted numpy expression;
2. **Merge** per-flow arrays into one global time-ordered batch
   (:func:`merge_arrivals` — numpy stable argsort when available, a
   stable Python sort otherwise, with identical output either way);
3. **Deliver** through an :class:`ArrivalTimeline`, an engine
   :class:`~repro.simulation.engine.ArrivalStream`: the run loop merges
   the timeline with its timer heap, so admission costs O(1) heap work
   per packet. The timeline converts its arrays to plain Python floats
   chunk-by-chunk (``.tolist()``), keeping numpy scalar boxing off the
   per-packet path.

Determinism: every function here is a pure function of its arguments
(randomness enters only through an explicit ``random.Random``), times
are computed with the same float64 expressions on both the numpy and
the pure-Python paths, and the merge is stable — so traces are
identical across machines, ``--jobs`` counts, and numpy presence.
"""

from __future__ import annotations

import itertools
import random
from array import array
from dataclasses import dataclass, field
from math import inf
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

try:  # numpy is an optional accelerator, never a requirement
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on minimal installs
    _np = None  # type: ignore[assignment]

from repro.core.packet import Packet
from repro.traffic.base import Ingress

__all__ = [
    "ArrivalTimeline",
    "FleetTimeline",
    "FlowArrivals",
    "cbr_times",
    "cbr_fleet_times",
    "merge_arrivals",
    "poisson_times",
    "timeline_from_specs",
]


def cbr_times(
    rate: float,
    packet_length: int,
    n_packets: int,
    start_time: float = 0.0,
) -> Sequence[float]:
    """Arrival times of a constant-bit-rate flow, as one array.

    Packet ``k`` arrives at ``start_time + k * (packet_length / rate)``
    — the same canonical float64 expression on both paths, so the numpy
    and pure-Python results are bit-identical.
    """
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    if n_packets < 0:
        raise ValueError(f"n_packets must be >= 0, got {n_packets}")
    interval = packet_length / rate
    if _np is not None:
        return start_time + _np.arange(n_packets, dtype=_np.float64) * interval
    return [start_time + k * interval for k in range(n_packets)]


def poisson_times(
    rng: random.Random,
    rate: float,
    packet_length: int,
    n_packets: int,
    start_time: float = 0.0,
) -> Sequence[float]:
    """Arrival times of a Poisson flow, as one array.

    Draws ``n_packets`` exponential gaps from ``rng`` (consuming exactly
    ``n_packets`` variates, like :class:`~repro.traffic.poisson.
    PoissonSource` would over the same packets) and accumulates them in
    Python — the canonical cumulative sum is defined by sequential
    addition, not a pairwise/numpy reduction, so results never depend on
    numpy's summation order.
    """
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    if n_packets < 0:
        raise ValueError(f"n_packets must be >= 0, got {n_packets}")
    intensity = rate / packet_length  # packets per second
    gaps = (rng.expovariate(intensity) for _ in range(n_packets))
    return [start_time + t for t in itertools.accumulate(gaps)]


def cbr_fleet_times(
    n_flows: int,
    rate: float,
    packet_length: int,
    packets_per_flow: int,
    start_time: float = 0.0,
    stagger: Optional[float] = None,
) -> Tuple[Sequence[float], Sequence[int]]:
    """Arrival times for a whole fleet of identical CBR flows at once.

    Flow ``i`` (0-based) is phase-shifted by ``i * stagger`` (default:
    ``interval / n_flows``, spreading the fleet evenly across one packet
    interval) and emits ``packets_per_flow`` packets at ``rate``.
    Returns ``(times, flow_indices)`` sorted by time — with the default
    stagger no two arrivals coincide, and the broadcasted numpy path is
    a transpose-reshape away from sorted order, so fleet construction is
    O(N) with no per-packet Python work.
    """
    if n_flows <= 0:
        raise ValueError(f"n_flows must be positive, got {n_flows}")
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    if packets_per_flow < 0:
        raise ValueError(f"packets_per_flow must be >= 0, got {packets_per_flow}")
    interval = packet_length / rate
    if stagger is None:
        stagger = interval / n_flows
    if _np is not None:
        flow_offsets = _np.arange(n_flows, dtype=_np.float64) * stagger
        pkt_offsets = _np.arange(packets_per_flow, dtype=_np.float64) * interval
        # grid[k, i] = time of flow i's k-th packet; with 0 <= stagger*
        # (n_flows-1) <= interval each row is globally later than the
        # previous, and within a row times ascend with i — so C-order
        # reshape of the (k, i) grid is already time-sorted.
        grid = start_time + (pkt_offsets[:, None] + flow_offsets[None, :])
        times = grid.reshape(-1)
        flows = _np.tile(
            _np.arange(n_flows, dtype=_np.int64), packets_per_flow
        )
        if stagger * max(n_flows - 1, 0) > interval:
            order = _np.argsort(times, kind="stable")
            times = times[order]
            flows = flows[order]
        return times, flows
    entries = [
        (start_time + k * interval + i * stagger, i)
        for k in range(packets_per_flow)
        for i in range(n_flows)
    ]
    entries.sort(key=lambda e: e[0])
    return [e[0] for e in entries], [e[1] for e in entries]


@dataclass(slots=True)
class FlowArrivals:
    """One flow's precomputed arrival batch (input to the merge)."""

    flow_id: Hashable
    times: Sequence[float]
    length: int
    rate: Optional[float] = None
    #: Per-arrival length overrides (same shape as ``times``); when
    #: None, every packet is ``length`` long.
    lengths: Optional[Sequence[int]] = None

    def __post_init__(self) -> None:
        if self.lengths is not None and len(self.lengths) != len(self.times):
            raise ValueError(
                f"flow {self.flow_id!r}: lengths ({len(self.lengths)}) and "
                f"times ({len(self.times)}) differ in shape"
            )


def merge_arrivals(
    specs: Sequence[FlowArrivals],
) -> Tuple[Sequence[float], Sequence[int]]:
    """Merge per-flow arrival arrays into one time-ordered batch.

    Returns ``(times, spec_indices)`` where ``spec_indices[j]`` names
    the spec whose packet arrives at ``times[j]``. The sort is stable
    with concatenation order (spec order) breaking time ties, on both
    the numpy and the pure-Python path — required for cross-environment
    trace identity.
    """
    if _np is not None:
        times = _np.concatenate(
            [_np.asarray(s.times, dtype=_np.float64) for s in specs]
        ) if specs else _np.empty(0, dtype=_np.float64)
        owners = _np.concatenate(
            [_np.full(len(s.times), i, dtype=_np.int64) for i, s in enumerate(specs)]
        ) if specs else _np.empty(0, dtype=_np.int64)
        order = _np.argsort(times, kind="stable")
        return times[order], owners[order]
    flat: List[Tuple[float, int]] = []
    for i, s in enumerate(specs):
        flat.extend((float(t), i) for t in s.times)
    flat.sort(key=lambda e: e[0])  # stable: ties keep spec order
    return [e[0] for e in flat], [e[1] for e in flat]


@dataclass(slots=True)
class _ChunkState:
    """Mutable cursor over the materialized chunk (internal)."""

    times: List[float] = field(default_factory=list)
    owners: List[int] = field(default_factory=list)
    pos: int = 0


class ArrivalTimeline:
    """Engine arrival stream over a merged batch of precomputed arrivals.

    Implements the :class:`~repro.simulation.engine.ArrivalStream`
    protocol (``next_time`` + ``fire()``): attach with
    ``sim.attach_stream(timeline)`` and the run loop delivers one packet
    per ``fire()`` in global time order at O(1) heap cost.

    The backing ``times``/``owners`` arrays may be numpy arrays or
    plain sequences; they are materialized into Python floats/ints in
    ``chunk`` -sized slices via ``.tolist()`` so the per-packet path
    never touches numpy scalars. Per-flow sequence numbers are assigned
    at delivery time in arrival order, matching what per-packet sources
    would have produced.
    """

    __slots__ = (
        "specs",
        "_times",
        "_owners",
        "_chunk",
        "_state",
        "_base",
        "_seqnos",
        "_delivered",
        "_ingress",
        "next_time",
        "packets_sent",
        "bits_sent",
    )

    def __init__(
        self,
        ingress: Ingress,
        specs: Sequence[FlowArrivals],
        times: Sequence[float],
        owners: Sequence[int],
        chunk: int = 4096,
    ) -> None:
        if chunk <= 0:
            raise ValueError(f"chunk must be positive, got {chunk}")
        self.specs = list(specs)
        self._times = times
        self._owners = owners
        self._chunk = int(chunk)
        self._state = _ChunkState()
        self._base = 0  # global index of the current chunk's first entry
        self._seqnos: Dict[Hashable, int] = {}
        #: Per-spec delivered count — the index into ``spec.lengths``
        #: (distinct from the per-flow seqno: two specs may share a
        #: flow id, e.g. an on-off flow built as one spec per burst).
        self._delivered = [0] * len(self.specs)
        self._ingress = ingress
        self.packets_sent = 0
        self.bits_sent = 0
        #: Absolute time of the next arrival; math.inf when exhausted.
        self.next_time = inf
        self._load_chunk()

    def _load_chunk(self) -> None:
        state = self._state
        self._base += state.pos
        lo, hi = self._base, self._base + self._chunk
        sl_t = self._times[lo:hi]
        sl_o = self._owners[lo:hi]
        # .tolist() on a numpy slice yields plain floats/ints in one C
        # pass; plain sequences are just copied.
        state.times = sl_t.tolist() if hasattr(sl_t, "tolist") else list(sl_t)
        state.owners = sl_o.tolist() if hasattr(sl_o, "tolist") else list(sl_o)
        state.pos = 0
        self.next_time = state.times[0] if state.times else inf

    def fire(self) -> None:
        """Deliver the arrival at ``next_time`` and advance."""
        state = self._state
        pos = state.pos
        times = state.times
        owner = state.owners[pos]
        spec = self.specs[owner]
        flow_id = spec.flow_id
        seqnos = self._seqnos
        seqno = seqnos.get(flow_id, 0)
        seqnos[flow_id] = seqno + 1
        delivered = self._delivered
        ordinal = delivered[owner]
        delivered[owner] = ordinal + 1
        lengths = spec.lengths
        length = lengths[ordinal] if lengths is not None else spec.length
        packet = Packet(flow_id, length, times[pos], seqno, spec.rate)
        self.packets_sent += 1
        self.bits_sent += length
        pos += 1
        state.pos = pos
        if pos < len(times):
            self.next_time = times[pos]
        else:
            self._load_chunk()
        self._ingress(packet)

    @property
    def remaining(self) -> int:
        """Arrivals not yet delivered."""
        return len(self._times) - self._base - self._state.pos

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ArrivalTimeline(sent={self.packets_sent}, "
            f"remaining={self.remaining}, next={self.next_time:.9g})"
        )


class FleetTimeline:
    """Arrival stream for a dense-int fleet (no per-flow spec objects).

    The spec-based :class:`ArrivalTimeline` carries one
    :class:`FlowArrivals` per flow — reasonable at hundreds of flows,
    wasteful at 10^6 where :func:`cbr_fleet_times` already yields
    ``(times, flow_indices)`` with flow indices that *are* the flow ids.
    This stream consumes those two arrays directly: constant packet
    length, per-flow sequence numbers kept in one ``array('q')`` column
    indexed by flow index.

    ``flow_ids`` optionally maps index → external flow id (default: the
    index itself, matching dense-int registration on the scheduler).
    """

    __slots__ = (
        "_times",
        "_flows",
        "_ids",
        "_length",
        "_rate",
        "_chunk",
        "_state",
        "_base",
        "_seqnos",
        "_ingress",
        "next_time",
        "packets_sent",
        "bits_sent",
    )

    def __init__(
        self,
        ingress: Ingress,
        times: Sequence[float],
        flow_indices: Sequence[int],
        packet_length: int,
        rate: Optional[float] = None,
        flow_ids: Optional[Sequence[Hashable]] = None,
        n_flows: Optional[int] = None,
        chunk: int = 8192,
    ) -> None:
        if chunk <= 0:
            raise ValueError(f"chunk must be positive, got {chunk}")
        if len(times) != len(flow_indices):
            raise ValueError(
                f"times ({len(times)}) and flow_indices "
                f"({len(flow_indices)}) differ in shape"
            )
        self._times = times
        self._flows = flow_indices
        self._ids = flow_ids
        self._length = int(packet_length)
        self._rate = rate
        self._chunk = int(chunk)
        self._state = _ChunkState()
        self._base = 0
        if n_flows is None:
            if flow_ids is not None:
                n_flows = len(flow_ids)
            elif len(flow_indices):
                n_flows = int(max(flow_indices)) + 1
            else:
                n_flows = 0
        self._seqnos = array("q", bytes(8 * n_flows))  # zero-filled
        self._ingress = ingress
        self.packets_sent = 0
        self.bits_sent = 0
        #: Absolute time of the next arrival; math.inf when exhausted.
        self.next_time = inf
        self._load_chunk()

    def _load_chunk(self) -> None:
        state = self._state
        self._base += state.pos
        lo, hi = self._base, self._base + self._chunk
        sl_t = self._times[lo:hi]
        sl_f = self._flows[lo:hi]
        state.times = sl_t.tolist() if hasattr(sl_t, "tolist") else list(sl_t)
        state.owners = sl_f.tolist() if hasattr(sl_f, "tolist") else list(sl_f)
        state.pos = 0
        self.next_time = state.times[0] if state.times else inf

    def fire(self) -> None:
        """Deliver the arrival at ``next_time`` and advance."""
        state = self._state
        pos = state.pos
        times = state.times
        idx = state.owners[pos]
        seqnos = self._seqnos
        seqno = seqnos[idx]
        seqnos[idx] = seqno + 1
        ids = self._ids
        length = self._length
        packet = Packet(
            ids[idx] if ids is not None else idx, length, times[pos], seqno,
            self._rate,
        )
        self.packets_sent += 1
        self.bits_sent += length
        pos += 1
        state.pos = pos
        if pos < len(times):
            self.next_time = times[pos]
        else:
            self._load_chunk()
        self._ingress(packet)

    @property
    def remaining(self) -> int:
        """Arrivals not yet delivered."""
        return len(self._times) - self._base - self._state.pos

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FleetTimeline(sent={self.packets_sent}, "
            f"remaining={self.remaining}, next={self.next_time:.9g})"
        )


def timeline_from_specs(
    ingress: Ingress,
    specs: Sequence[FlowArrivals],
    chunk: int = 4096,
) -> ArrivalTimeline:
    """Merge ``specs`` and wrap them in an :class:`ArrivalTimeline`."""
    times, owners = merge_arrivals(specs)
    return ArrivalTimeline(ingress, specs, times, owners, chunk=chunk)
