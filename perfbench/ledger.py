"""Per-layer cost ledger: spans recorded from outside the simulator.

A traced run reaches every layer through its public entry points and
times the calls into them:

* :class:`TracedSimulator` wraps every scheduled callback and every
  arrival-stream firing, and measures the engine's own time as the gaps
  between them plus the timer pushes made from inside callbacks;
* :class:`TimedScheduler` is the timing proxy handed to ``Link`` in
  place of the scheduler (and to ``HierarchicalScheduler`` for its
  nodes);
* :func:`observe_link` wraps the link's public hook lists, its metrics
  hub and its tracer.

A span's self time is its duration minus the time of the spans it
contains, so the self times of all spans inside ``sim.run`` plus the
engine's gaps add up to the run's host time; :meth:`Ledger.reconcile`
checks that. Aggregates cover every span; the first
:data:`SPAN_LOG_LIMIT` spans are also kept whole (name, start, end,
nesting depth) and written out when the run ends.
"""

from __future__ import annotations

import contextlib
from array import array
from time import perf_counter

from repro import Simulator

#: Spans kept whole for the span log; later spans are only aggregated.
SPAN_LOG_LIMIT = 20_000

#: Spans whose per-call durations are kept, for their medians.
SAMPLED = frozenset({"core.enqueue", "core.dequeue"})

#: Scheduled callbacks and hooks, by qualified name, to the layer
#: they enter. Anything unlisted lands in ``other``.
CALLBACK_LAYERS = {
    "Link._complete": "servers.link.complete",
    "Link._on_wakeup": "servers.link.complete",
    "Tandem._inject": "servers.link.send",
    "Tandem._forwarder.<locals>.forward": "network.forward",
    "TcpSender.on_ack": "transport.tcp.on_ack",
    "TcpSender._try_send": "transport.tcp.on_ack",
    "TcpSender._on_timeout": "transport.tcp.timer",
    "TcpReceiver._delack_fire": "transport.tcp.timer",
    "TcpReceiver.on_packet": "transport.tcp.on_packet",
    "PacketSink.on_packet": "network.sink",
    "LinkOutage._down": "faults.outage",
    "LinkOutage._up": "faults.outage",
    "FairnessMonitor._on_arrival": "faults.monitor",
    "FairnessMonitor._on_departure": "faults.monitor",
    "FairnessMonitor._on_drop": "faults.monitor",
    "VirtualTimeMonitor._on_arrival": "faults.monitor",
    "VirtualTimeMonitor._on_departure": "faults.monitor",
    "VirtualTimeMonitor._on_drop": "faults.monitor",
    "ConservationAuditor._on_arrival": "faults.monitor",
    "ConservationAuditor._on_departure": "faults.monitor",
    "ConservationAuditor._on_drop": "faults.monitor",
    "Scenario.recorder.<locals>.record": "bench.sink",
    "hier_churn_1e5.<locals>.depart": "bench.sink",
    "hier_churn_1e5.<locals>.join": "bench.churn",
}


def layer_of(fn, default="other"):
    """The layer a callback or hook belongs to, from its qualified name."""
    func = getattr(fn, "__func__", fn)
    qualname = getattr(func, "__qualname__", "")
    label = CALLBACK_LAYERS.get(qualname)
    if label is None:
        # Monitor hooks added later keep landing in the monitor layer.
        owner = getattr(fn, "__self__", None)
        module = type(owner).__module__ if owner is not None else ""
        label = "faults.monitor" if module.startswith("repro.faults") else default
    return label


class Ledger:
    """Span aggregates with self-time accounting.

    ``stats[name]`` is ``[calls, self_s, inclusive_s]``. Spans nest
    through a stack of child-time accumulators.
    """

    def __init__(self):
        self.stats = {}
        self.samples = {name: array("d") for name in SAMPLED}
        self.log = []
        self._stack = []
        self.run_s = 0.0
        self.engine_gap_s = 0.0
        self.run_self_s = 0.0

    def call(self, name, fn, *args):
        stack = self._stack
        stack.append(0.0)
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            self.close(name, t0, perf_counter(), stack.pop())

    def close(self, name, t0, t1, child):
        """Account a finished span of ``t1 - t0`` containing ``child`` s."""
        duration = t1 - t0
        own = duration - child
        entry = self.stats.get(name)
        if entry is None:
            entry = self.stats[name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += own
        entry[2] += duration
        sample = self.samples.get(name)
        if sample is not None:
            sample.append(own)
        stack = self._stack
        if stack:
            stack[-1] += duration
        log = self.log
        if len(log) < SPAN_LOG_LIMIT:
            log.append((name, t0, t1, len(stack)))

    def wrap(self, name, fn):
        call = self.call

        def timed(*args):
            return call(name, fn, *args)

        return timed

    @contextlib.contextmanager
    def span(self, name):
        """A span around a block of benchmark code (set-up, analysis)."""
        stack = self._stack
        stack.append(0.0)
        t0 = perf_counter()
        try:
            yield
        finally:
            self.close(name, t0, perf_counter(), stack.pop())

    def self_total(self):
        return sum(entry[1] for entry in self.stats.values())

    def get(self, name, field=1):
        entry = self.stats.get(name)
        return entry[field] if entry is not None else 0

    def reconcile(self, total_s):
        """Share of ``total_s``, the wall time of the traced ``sim.run``
        as timed around the call, that no layer accounts for.

        The engine's gaps plus the self time of every span inside the
        run should make up the run; spans of unknown layers (``other``)
        count as unattributed.
        """
        other = sum(
            entry[1] for name, entry in self.stats.items()
            if name.startswith("other")
        )
        attributed = self.run_self_s + self.engine_gap_s - other
        return abs(total_s - attributed) / total_s

    def to_json(self):
        return {
            "stats": {
                name: {"calls": c, "self_s": s, "inclusive_s": i}
                for name, (c, s, i) in sorted(self.stats.items())
            },
            "run_s": self.run_s,
            "engine_gap_s": self.engine_gap_s,
            "spans": [
                {"name": n, "start": a, "end": b, "depth": d}
                for n, a, b, d in self.log
            ],
        }


class TracedSimulator(Simulator):
    """A ``Simulator`` that times every callback it fires.

    The engine's own time is what lies between callbacks (from the end
    of one, or the start of ``run``, to the start of the next, and from
    the last one to the end of ``run``) plus the ``schedule`` spans.
    """

    def __init__(self, ledger, **kwargs):
        super().__init__(**kwargs)
        self._ledger = ledger
        self._labels = {}
        self._last = None

    def _fire(self, label, callback, *args):
        # The span starts where the engine gap ends and ends where the
        # next gap starts, so gaps and top-level spans tile the run.
        ledger = self._ledger
        stack = ledger._stack
        stack.append(0.0)
        t0 = perf_counter()
        ledger.engine_gap_s += t0 - self._last
        try:
            callback(*args)
        finally:
            t1 = self._last = perf_counter()
            ledger.close(label, t0, t1, stack.pop())

    def _label(self, callback):
        func = getattr(callback, "__func__", callback)
        label = self._labels.get(func)
        if label is None:
            label = self._labels[func] = layer_of(callback, "other.callback")
        return label

    # Pushing a timer and probing the queue for the busy-period fast
    # path are engine work done inside a caller's span; while the loop
    # runs they are timed as ``simulation.engine.schedule``.
    def at(self, time, callback, *args, priority=0):
        args = (time, self._fire, self._label(callback), callback) + args
        if not self._running:
            return Simulator.at(self, *args, priority=priority)
        return self._ledger.call(
            "simulation.engine.schedule",
            lambda: Simulator.at(self, *args, priority=priority),
        )

    def call_at(self, time, callback, *args, priority=0):
        args = (time, self._fire, self._label(callback), callback) + args
        if not self._running:
            return Simulator.call_at(self, *args, priority=priority)
        return self._ledger.call(
            "simulation.engine.schedule",
            lambda: Simulator.call_at(self, *args, priority=priority),
        )

    def reserve_inline(self, time):
        return self._ledger.call(
            "simulation.engine.schedule", Simulator.reserve_inline, self, time
        )

    def attach_stream(self, stream):
        super().attach_stream(TimedStream(self, stream))

    def run(self, until=None, max_events=None):
        ledger = self._ledger
        before = ledger.self_total()
        start = self._last = perf_counter()
        try:
            return super().run(until=until, max_events=max_events)
        finally:
            end = perf_counter()
            ledger.engine_gap_s += end - self._last
            ledger.run_s += end - start
            ledger.run_self_s += ledger.self_total() - before


class TimedStream:
    """An arrival stream whose firings are timed as ``traffic.fire``."""

    __slots__ = ("_sim", "_stream")

    def __init__(self, sim, stream):
        self._sim = sim
        self._stream = stream

    @property
    def next_time(self):
        return self._stream.next_time

    def fire(self):
        self._sim._fire("traffic.fire", self._stream.fire)


class TimedScheduler:
    """Timing proxy around a scheduler; other attributes pass through."""

    def __init__(self, ledger, inner, prefix="core"):
        object.__setattr__(self, "_inner", inner)
        names = {
            op: f"{prefix}.{op}"
            for op in ("enqueue", "dequeue", "on_service_complete",
                       "attach_flow", "detach_flow")
        }
        names["add_flow"] = "core.add_flow"
        for method, name in names.items():
            target = getattr(inner, method, None)
            if target is not None:
                object.__setattr__(self, method, ledger.wrap(name, target))

    # ``Link`` and the monitors read these per packet; forwarding them
    # as properties keeps the proxy's own cost out of the link's self
    # time (a miss through ``__getattr__`` costs several times more).
    backlog_packets = property(lambda self: self._inner.backlog_packets)
    backlog_bits = property(lambda self: self._inner.backlog_bits)
    is_empty = property(lambda self: self._inner.is_empty)
    flows = property(lambda self: self._inner.flows)
    virtual_time = property(lambda self: self._inner.virtual_time)

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def __setattr__(self, name, value):
        setattr(self._inner, name, value)


class _TimedFacade:
    """Times a fixed set of methods of ``inner`` under one span name."""

    def __init__(self, ledger, inner, name, methods):
        object.__setattr__(self, "_inner", inner)
        for method in methods:
            object.__setattr__(
                self, method, ledger.wrap(name, getattr(inner, method))
            )

    def __getattr__(self, name):
        return getattr(self._inner, name)


def observe_link(ledger, link):
    """Wrap a link's hook lists, metrics hub and tracer in timed spans.

    Call after every hook is installed.
    """
    for hooks in (link.arrival_hooks, link.departure_hooks, link.drop_hooks):
        hooks[:] = [ledger.wrap(layer_of(h, "other.hook"), h) for h in hooks]
    hub = link.metrics
    if hub.enabled:
        link.metrics = _TimedFacade(
            ledger, hub, "metrics.hub.update",
            ("on_arrival", "on_served", "on_dropped", "on_queue_sample"),
        )
    tracer = link.tracer
    if tracer.enabled:
        link.tracer = _TimedFacade(
            ledger, tracer, "simulation.tracing.record",
            ("on_arrival", "mark_start", "mark_departure", "mark_dropped"),
        )


class Probe:
    """How a workload builds its simulator, schedulers and ingress.

    The untraced probe hands everything back untouched; the traced one
    (``Probe(Ledger())``) wraps each piece in its timing proxy.
    """

    def __init__(self, ledger=None):
        self.ledger = ledger

    def simulator(self, sim_class):
        """A ``sim_class`` instance; traced runs always measure the
        current engine."""
        if self.ledger is None:
            return sim_class()
        return TracedSimulator(self.ledger)

    def scheduler(self, sched, prefix="core"):
        if self.ledger is None:
            return sched
        return TimedScheduler(self.ledger, sched, prefix)

    def ingress(self, fn):
        if self.ledger is None:
            return fn
        return self.ledger.wrap("servers.link.send", fn)

    def observe(self, link):
        if self.ledger is not None:
            observe_link(self.ledger, link)

    def span(self, name):
        if self.ledger is None:
            return contextlib.nullcontext()
        return self.ledger.span(name)
