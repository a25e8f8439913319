"""Tests for ``discard_tail`` on the flow-head heap of ``PifoScheduler``.

Tail discard is O(1): the flow's queue loses its youngest packet and,
when that packet was the flow's head, the heap entry is invalidated
lazily rather than removed. The frozen seed cores (a global packet heap
with stale-uid skipping) are the behavioural oracle.
"""

from __future__ import annotations

import pytest

from repro.core import Packet, make_scheduler

from tests.reference.legacy_cores import LegacySCFQ, LegacySFQ


def _drain(sched, now=0.0, dt=0.001):
    out = []
    while True:
        pkt = sched.dequeue(now)
        if pkt is None:
            return out
        now += dt
        sched.on_service_complete(pkt, now)
        out.append((pkt.flow, pkt.seqno))


# Case ids name the engine/reference pair; they are kept stable from
# when a second, array-backed engine was compared here.
@pytest.mark.parametrize(
    "name,legacy_cls",
    [
        pytest.param("SFQ", LegacySFQ, id="ArraySFQ-SFQ"),
        pytest.param("SCFQ", LegacySCFQ, id="ArraySCFQ-SCFQ"),
    ],
)
def test_discard_tail_parity(name, legacy_cls):
    def run(sched):
        sched.add_flow("a", 1.0)
        sched.add_flow("b", 2.0)
        for s in range(4):
            sched.enqueue(Packet("a", 600, seqno=s), 0.0)
            sched.enqueue(Packet("b", 300, seqno=s), 0.0)
        dropped = [sched.discard_tail("a").seqno, sched.discard_tail("a").seqno]
        assert sched.discard_tail("missing") is None
        served = _drain(sched)
        # Tag re-chaining after the discard must survive a refill.
        sched.enqueue(Packet("a", 600, seqno=9), 1.0)
        served += _drain(sched, now=1.0)
        return dropped, served, sched.flows["a"].last_finish

    engine = make_scheduler(name, auto_register=False)
    assert run(engine) == run(legacy_cls(auto_register=False))


def test_discard_tail_empties_flow_completely():
    sched = make_scheduler("SCFQ", auto_register=False)
    sched.add_flow("a", 1.0)
    sched.enqueue(Packet("a", 500, seqno=0), 0.0)
    assert sched.discard_tail("a").seqno == 0
    assert sched.flows["a"].heap_entry is None
    assert sched.discard_tail("a") is None
    assert sched.dequeue(0.0) is None
    assert not sched.flows["a"].backlogged


def test_discard_tail_unsupported_matches_object_backend():
    # WFQ's rank cannot re-chain tags after a discard (no
    # ``supports_discard``): the engine refuses and leaves the queue as is.
    sched = make_scheduler("WFQ", auto_register=False, capacity=1e6)
    sched.add_flow("a", 1.0)
    sched.enqueue(Packet("a", 500), 0.0)
    with pytest.raises(NotImplementedError):
        sched.discard_tail("a")
    assert sched.backlog_packets == 1
