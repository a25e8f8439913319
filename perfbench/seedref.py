"""The frozen seed engine and SFQ core, as the speed yardstick.

``tests/reference`` keeps byte-for-byte copies of the seed simulator and
SFQ core. The seed simulator predates fire-and-forget timers and arrival
streams, so :class:`SeedSimulator` adds those calls on top of it, each
built from the seed's own ``at``/``after``: a timer becomes a seed
``Event``, and an arrival stream becomes a chain of seed events, one per
arrival. Stream arrivals take priority -1 so they win ties against
ordinary timers at the same instant, the rule the current engine applies.
"""

from __future__ import annotations

import math

from tests.reference.legacy_cores import LegacySFQ
from tests.reference.legacy_engine import LegacySimulator


class SeedSimulator(LegacySimulator):
    """The seed event loop, callable the way the current library calls it."""

    def call_at(self, time, callback, *args, priority=0):
        self.at(time, callback, *args, priority=priority)

    def call_after(self, delay, callback, *args, priority=0):
        self.after(delay, callback, *args, priority=priority)

    def attach_stream(self, stream):
        if stream.next_time != math.inf:
            self.at(stream.next_time, self._pump, stream, priority=-1)

    def _pump(self, stream):
        stream.fire()
        if stream.next_time != math.inf:
            self.at(stream.next_time, self._pump, stream, priority=-1)


def seed_sfq():
    """A seed SFQ core; flows are registered explicitly, as in the workloads."""
    return LegacySFQ(auto_register=False)
