"""Discrete-event simulation loop over one binary heap.

The :class:`Simulator` is deliberately small: a priority queue of
pending callbacks, a clock, and run controls. Everything else in the
reproduction (links, sources, TCP, switches) is built by scheduling
callbacks on a shared ``Simulator``.

Determinism
-----------
Events at equal timestamps fire in the order they were scheduled
(insertion sequence), and all randomness in the library flows through
:class:`repro.simulation.random.RandomStreams`, so a run is a pure
function of its seed and parameters.

Hot-path layout
---------------
The event queue is a ``heapq`` heap of plain tuples, never
:class:`~repro.simulation.events.Event` objects, in one of two shapes
sharing the ``(time, priority, seq)`` ordering prefix (``seq`` is
globally unique, so comparison never reaches the payload slots):

* ``(time, priority, seq, event)`` — a *cancellable* entry created by
  :meth:`Simulator.at` / :meth:`Simulator.after`. The ``Event`` is the
  caller's handle; the loop consults ``event.cancelled`` and skips stale
  entries in place.
* ``(time, priority, seq, None, callback, args)`` — a *fire-and-forget*
  entry created by :meth:`Simulator.call_at` / :meth:`Simulator.call_after`.
  No handle object is ever allocated; the loop invokes ``callback(*args)``
  directly. Most traffic-source and link-completion timers use this path,
  so the common case schedules and fires an event with zero object
  allocations beyond the queue tuple itself.

This module is the only place that mutates the heap (lint rule PERF002).
:meth:`Simulator.run` has two loops: the common one (no streams, no
``max_events`` budget) is inlined in ``run`` itself, and
:meth:`Simulator._run_generic` handles arrival streams and budgets.
Both skip cancelled entries in place. ``_run_generic`` also reads a
lone attached stream's ``next_time`` directly (only two or more streams
go through :meth:`Simulator._min_stream`) and runs a cancellable
event's callback itself rather than through ``Event._fire``.
:meth:`Simulator.reserve_inline` makes the same inline heap and stream
checks.

Busy-period timer elision
-------------------------
:meth:`Simulator.reserve_inline` lets the callback *currently firing*
consume the next tick of its own timer chain without a queue round
trip: if nothing else (queue entry or stream arrival) is due at or
before ``time`` and run controls permit, the clock jumps straight to
``time`` and the caller runs its completion logic inline. The strict
"nothing at or before" test is what keeps the optimization invisible:
a successfully reserved instant provably has no other event the loop
could have interleaved, and the event counter advances exactly as if
the timer had been popped. :class:`repro.servers.link.Link` uses this
to chain back-to-back departures of a busy period (see HACKING.md).

Arrival streams (batch admission)
---------------------------------
Scheduling one queue tuple per generated packet is the other large cost
at scale: a 10^6-flow workload pushes millions of timer tuples through
the queue just to deliver precomputed arrivals. An **arrival stream**
(:class:`ArrivalStream`) bypasses the queue for that case: it exposes the
time of its next pending arrival (``next_time``) and a ``fire()`` that
delivers exactly one arrival and advances. The run loop merges attached
streams with the queue — a stream wins ties against queue entries (an
arrival *at* t happens before timers at t, matching the order
``call_at`` arrivals would have had when scheduled first) — so sources
can hand the engine whole precomputed arrival arrays
(:mod:`repro.traffic.batch`) at O(1) queue cost instead of O(N log N).
Stream firings count toward ``events_processed`` and the ``max_events``
budget exactly like queue events. Attach before calling :meth:`run`;
streams attached while the loop is running take effect on the next
:meth:`run`/:meth:`step`.
"""

from __future__ import annotations

import math
from functools import partial
from heapq import heappop, heappush
from typing import Any, Callable, List, Optional, Protocol, Tuple

from repro.simulation.events import Event, _sequence

Entry = Tuple[Any, ...]


class ArrivalStream(Protocol):
    """Protocol for batch arrival sources merged into the run loop.

    ``next_time`` is the absolute time of the next pending arrival, or
    ``math.inf`` when the stream is exhausted (the loop then detaches
    it). ``fire()`` delivers exactly one arrival (the one at
    ``next_time``) and advances ``next_time``.
    """

    next_time: float

    def fire(self) -> None: ...


class SimulationError(Exception):
    """Raised on invalid scheduling requests (e.g. into the past)."""


class Simulator:
    """Discrete-event simulator with a float-seconds clock.

    Parameters
    ----------
    start_time:
        Initial clock value.
    """

    __slots__ = (
        "_now",
        "_heap",
        "_push",
        "_streams",
        "_running",
        "_stopped",
        "_truncated",
        "_events_processed",
        "_limit",
        "_budget_left",
    )

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._heap: List[Entry] = []
        #: Bound C-level push: saves a Python frame on the hottest call
        #: in the engine.
        self._push: Callable[[Entry], None] = partial(heappush, self._heap)
        self._streams: List[ArrivalStream] = []
        self._running = False
        self._stopped = False
        self._truncated = False
        self._events_processed = 0
        self._limit = -math.inf
        self._budget_left: Optional[int] = None

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events fired so far (for complexity accounting)."""
        return self._events_processed

    @property
    def truncated(self) -> bool:
        """True when the last :meth:`run` hit ``max_events`` with work
        still pending (within ``until``, if one was given).

        A truncated run is an *incomplete* simulation — results computed
        from its traces are suspect. The flag is reset by the next call
        to :meth:`run`.
        """
        return self._truncated

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute ``time``.

        ``time`` may equal ``now`` (the event fires after the current
        callback returns) but may not lie in the past. Returns a
        cancellable :class:`~repro.simulation.events.Event` handle; use
        :meth:`call_at` when no handle is needed.
        """
        if not time >= self._now:  # also catches NaN
            if math.isnan(time):
                raise SimulationError("cannot schedule an event at NaN")
            raise SimulationError(
                f"cannot schedule into the past: {time} < now={self._now}"
            )
        event = Event(time, callback, args, priority)
        self._push((time, priority, event.seq, event))
        return event

    def after(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback(*args)`` after ``delay`` seconds."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        return self.at(self._now + delay, callback, *args, priority=priority)

    def call_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> None:
        """Schedule ``callback(*args)`` at ``time``, fire-and-forget.

        Identical ordering semantics to :meth:`at`, but no
        :class:`~repro.simulation.events.Event` handle is allocated and
        the timer cannot be cancelled. Use for the overwhelmingly common
        timers that never need cancellation (source emissions, wake-ups).
        """
        if not time >= self._now:  # also catches NaN
            if math.isnan(time):
                raise SimulationError("cannot schedule an event at NaN")
            raise SimulationError(
                f"cannot schedule into the past: {time} < now={self._now}"
            )
        self._push((time, priority, next(_sequence), None, callback, args))

    def call_after(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> None:
        """Schedule ``callback(*args)`` after ``delay`` seconds, fire-and-forget."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        self.call_at(self._now + delay, callback, *args, priority=priority)

    def attach_stream(self, stream: ArrivalStream) -> None:
        """Merge an :class:`ArrivalStream` into the event loop.

        The stream delivers precomputed arrivals without a queue tuple
        per packet. An exhausted stream (``next_time == math.inf``) is
        detached automatically by the loop. Attaching while the loop is
        running takes effect on the next :meth:`run`/:meth:`step`.
        """
        if math.isnan(stream.next_time):
            raise SimulationError("arrival stream next_time is NaN")
        if stream.next_time < self._now:
            raise SimulationError(
                f"arrival stream starts in the past: "
                f"{stream.next_time} < now={self._now}"
            )
        self._streams.append(stream)

    # ------------------------------------------------------------------
    # Run controls
    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Stop the loop after the currently firing event returns."""
        self._stopped = True

    def _min_stream(self) -> "Tuple[float, Optional[ArrivalStream]]":
        """Earliest attached stream, pruning exhausted ones."""
        streams = self._streams
        if not streams:
            return math.inf, None
        best_t = math.inf
        best: Optional[ArrivalStream] = None
        exhausted = False
        for s in streams:
            t = s.next_time
            if t == math.inf:
                exhausted = True
            elif t < best_t:
                best_t = t
                best = s
        if exhausted:
            self._streams = [s for s in streams if s.next_time != math.inf]
        return best_t, best

    def _peek_live(self) -> Optional[Entry]:
        """Head heap entry, discarding cancelled entries in place."""
        heap = self._heap
        while heap:
            head = heap[0]
            event = head[3]
            if event is not None and event.cancelled:
                heappop(heap)
                continue
            return head
        return None

    def peek(self) -> Optional[float]:
        """Time of the next pending event, or None when nothing is pending.

        Considers both the event queue and attached arrival streams.
        """
        head = self._peek_live()
        heap_t = float(head[0]) if head is not None else math.inf
        stream_t, _ = self._min_stream()
        nxt = min(heap_t, stream_t)
        return None if nxt == math.inf else nxt

    def step(self) -> bool:
        """Fire the single next event (queue timer or stream arrival).

        Returns False when none remain. A stream arrival wins a tie
        against a queue timer at the same instant (same rule as
        :meth:`run`). Raises :class:`SimulationError` when called from a
        callback fired by :meth:`run`: the step would bypass the run's
        ``until`` horizon and budget.
        """
        if self._running:
            raise SimulationError("step() called while the event loop is running")
        head = self._peek_live()
        heap_t = float(head[0]) if head is not None else math.inf
        stream_t, stream = self._min_stream()
        if stream is not None and stream_t <= heap_t:
            self._now = stream_t
            self._events_processed += 1
            stream.fire()
            return True
        if head is None:
            return False
        entry = heappop(self._heap)
        self._now = entry[0]
        self._events_processed += 1
        event = entry[3]
        if event is None:
            entry[4](*entry[5])
        else:
            event._fire()
        return True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:  # lint: hot
        """Run the event loop.

        Parameters
        ----------
        until:
            Stop once the next event would fire strictly after this time
            and advance the clock to exactly ``until``. ``None`` runs to
            event-queue exhaustion.
        max_events:
            Safety valve for runaway simulations. Exhausting it with
            events still pending sets :attr:`truncated` so callers can
            tell an incomplete run from a naturally finished one.

        Returns the simulation time at which the loop stopped.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        self._stopped = False
        self._truncated = False
        limit = math.inf if until is None else until
        self._limit = limit
        self._budget_left = max_events
        fired = 0
        try:
            if self._streams or max_events is not None:
                self._run_generic(limit)
            else:
                # Common case: the heap loop with the heap and heappop in
                # locals; cancelled entries are skipped in place. The
                # event count is settled once on exit (the exceptional
                # one too: a failing event counts as fired).
                heap = self._heap
                pop = heappop
                while heap and not self._stopped:
                    entry = heap[0]
                    event = entry[3]
                    if event is not None and event.cancelled:
                        pop(heap)
                        continue
                    time = entry[0]
                    if time > limit:
                        break
                    pop(heap)
                    self._now = time
                    fired += 1
                    if event is None:
                        entry[4](*entry[5])
                    else:
                        event._fire()
        finally:
            self._events_processed += fired
            self._running = False
        if until is not None and self._now < until and not self._stopped:
            self._now = until
        return self._now

    def _run_generic(self, limit: float) -> None:  # lint: hot
        """Run loop handling arrival streams and ``max_events`` budgets.

        Kept out of the common path so simulations without either pay
        nothing. Each turn skips cancelled heap entries in place, reads
        the one attached stream's ``next_time`` directly (two or more go
        through :meth:`_min_stream`), and fires whichever is due first;
        a stream arrival wins ties against queue timers at the same
        instant.
        """
        heap = self._heap
        pop = heappop
        inf = math.inf
        while not self._stopped:
            head = None
            while heap:
                head = heap[0]
                event = head[3]
                if event is not None and event.cancelled:
                    pop(heap)
                    head = None
                    continue
                break
            heap_t = head[0] if head is not None else inf
            streams = self._streams
            if not streams:
                stream = None
            elif len(streams) == 1:
                stream = streams[0]
                stream_t = stream.next_time
                if stream_t == inf:
                    self._streams = []
                    stream = None
            else:
                stream_t, stream = self._min_stream()
            if stream is not None and stream_t <= heap_t:
                if stream_t > limit:
                    break
                self._now = stream_t
                self._events_processed += 1
                stream.fire()
            elif head is not None:
                time = head[0]
                if time > limit:
                    break
                pop(heap)
                self._now = time
                self._events_processed += 1
                if event is None:
                    head[4](*head[5])
                else:
                    # Event._fire without its cancelled check: the skip
                    # above already dropped every cancelled entry.
                    event.fired = True
                    callback, args = event.callback, event.args
                    event.callback = None
                    event.args = ()
                    callback(*args)
            else:
                break
            budget = self._budget_left
            if budget is not None:
                # reserve_inline may have spent part of the budget
                # during the callback; settle the firing just done.
                budget -= 1
                self._budget_left = budget
                if budget <= 0:
                    nxt = self.peek()
                    if nxt is not None and nxt <= limit:
                        self._truncated = True
                    break

    def run_for(self, duration: float, max_events: Optional[int] = None) -> float:
        """Run for ``duration`` simulated seconds from the current time."""
        return self.run(until=self._now + duration, max_events=max_events)

    # ------------------------------------------------------------------
    # Busy-period timer elision
    # ------------------------------------------------------------------
    def reserve_inline(self, time: float) -> bool:
        """Claim the instant ``time`` for the currently firing callback.

        Succeeds — advancing the clock to ``time`` and counting one
        processed event — only when the loop could not possibly have
        run anything else first: the loop is live, ``time`` is within
        the active ``until`` horizon and event budget, and every
        pending queue entry and stream arrival is *strictly* later than
        ``time`` (a tie must lose to the already-queued work, which
        holds an earlier sequence number — and to streams, which win
        ties by rule). On success the caller must immediately run the
        work it would otherwise have scheduled at ``time``; on failure
        it must schedule normally. Either way the observable schedule
        is identical; success merely skips the queue round trip.
        """
        if not self._running or self._stopped or time > self._limit:
            return False
        budget = self._budget_left
        if budget is not None and budget <= 1:
            return False
        heap = self._heap
        while heap:
            head = heap[0]
            event = head[3]
            if event is not None and event.cancelled:
                heappop(heap)
                continue
            if head[0] <= time:
                return False
            break
        streams = self._streams
        if streams:
            if len(streams) == 1:
                if streams[0].next_time <= time:
                    return False
            elif self._min_stream()[0] <= time:
                return False
        if budget is not None:
            self._budget_left = budget - 1
        self._now = time
        self._events_processed += 1
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Simulator(now={self._now:.9g}, pending={len(self._heap)})"
