"""The event queue against the frozen seed engine.

The headline test drives >=10^5 randomized mixed operations
(``call_at``/``call_after``/``at``+cancel/``run_for``, some of the runs
under a ``max_events`` budget) through the current ``Simulator`` and
the frozen seed ``LegacySimulator`` (``tests/reference``) side by side,
with ``call_*`` mapped to the seed's ``at``/``after``. The two must fire
the identical event sequence, truncate the same runs and end on
identical clocks — the operational form of the guarantee the
trace-equivalence suite checks end to end. Seeds are rooted in
``derive_seed`` (DET005 discipline).
"""

from __future__ import annotations

import math
import random

import pytest

from repro.simulation import Simulator, derive_seed
from repro.simulation.engine import SimulationError

from tests.reference.legacy_engine import LegacySimulator


# ---------------------------------------------------------------------------
# Randomized parity with the seed engine
# ---------------------------------------------------------------------------


def _drive(sim, call_at, call_after, rng: random.Random, ops: int, log: list) -> None:
    """Apply a seeded operation mix to ``sim``, recording every firing
    and the outcome of every run."""
    counter = [0]
    handles = []

    def fire(tag: int) -> None:
        log.append((round(sim.now, 9), tag))

    for _ in range(ops):
        roll = rng.random()
        if roll < 0.42:
            tag = counter[0]
            counter[0] += 1
            call_at(sim.now + rng.uniform(0.0, 7.0), fire, tag)
        elif roll < 0.70:
            tag = counter[0]
            counter[0] += 1
            call_after(rng.uniform(0.0, 0.2), fire, tag)
        elif roll < 0.88:
            tag = counter[0]
            counter[0] += 1
            handles.append(sim.at(sim.now + rng.uniform(0.0, 40.0), fire, tag))
        elif roll < 0.96 and handles:
            handles.pop(rng.randrange(len(handles))).cancel()
        else:
            duration = rng.uniform(0.0, 3.0)
            budget = rng.randint(1, 40) if rng.random() < 0.5 else None
            sim.run_for(duration, max_events=budget)
            log.append(("run", sim.now, sim.truncated))
    sim.run()
    log.append(("end", sim.now, sim.events_processed))


def _seed_and_current(seed: int, ops: int):
    """The firing logs of the seed and the current engine for one mix."""
    legacy = LegacySimulator()
    legacy_log: list = []
    _drive(legacy, legacy.at, legacy.after, random.Random(seed), ops, legacy_log)
    sim = Simulator()
    log: list = []
    _drive(sim, sim.call_at, sim.call_after, random.Random(seed), ops, log)
    return legacy_log, log


def test_randomized_parity_100k_ops():
    """>=10^5 mixed ops: the seed's pop order, truncations and clocks."""
    ops = 100_000
    legacy_log, log = _seed_and_current(derive_seed("eventq-parity", ops), ops)
    assert len(legacy_log) > ops // 2  # the mix actually fired things
    assert any(entry[0] == "run" and entry[2] for entry in legacy_log)
    assert log == legacy_log


@pytest.mark.parametrize("case", range(3))
def test_randomized_parity_small_cases(case):
    """Smaller seeds x cases for quicker shrinking when parity breaks."""
    legacy_log, log = _seed_and_current(
        derive_seed("eventq-parity-small", case), 2_000
    )
    assert log == legacy_log


# ---------------------------------------------------------------------------
# Engine behaviour on both run loops
# ---------------------------------------------------------------------------

#: ``max_events`` per run loop: ``heap`` is plain ``run()`` (the inlined
#: loop), ``budgeted`` a budget no test reaches, which takes
#: ``_run_generic``.
RUN_LOOPS = {"heap": None, "budgeted": 10**9}


@pytest.mark.parametrize("max_events", list(RUN_LOOPS.values()), ids=list(RUN_LOOPS))
def test_identical_timestamp_fifo_order(max_events):
    sim = Simulator()
    order: list = []
    for i in range(50):
        sim.call_at(1.0, order.append, i)
    sim.run(max_events=max_events)
    assert order == list(range(50))


def test_run_until_and_budget():
    sim = Simulator()
    fired: list = []
    for i in range(10):
        sim.call_at(float(i), fired.append, i)
    assert sim.run(until=4.5) == 4.5
    assert fired == [0, 1, 2, 3, 4]
    sim.run(max_events=2)
    assert fired == [0, 1, 2, 3, 4, 5, 6]
    assert sim.truncated
    sim.run()
    assert fired == list(range(10))


@pytest.mark.parametrize("max_events", list(RUN_LOOPS.values()), ids=list(RUN_LOOPS))
def test_stop_mid_run(max_events):
    sim = Simulator()
    fired: list = []
    sim.call_at(1.0, fired.append, 1)
    sim.call_at(2.0, sim.stop)
    sim.call_at(3.0, fired.append, 3)
    sim.run(max_events=max_events)
    assert fired == [1]
    assert sim.now == 2.0


def test_past_and_nan_scheduling_rejected():
    sim = Simulator(start_time=5.0)
    with pytest.raises(SimulationError, match="past"):
        sim.call_at(4.0, lambda: None)
    with pytest.raises(SimulationError, match="NaN"):
        sim.at(math.nan, lambda: None)
