"""repro.core.registry: the unified scheduler-construction API.

* every registered discipline constructs through ``make_scheduler`` and
  round-trips ``scheduler_spec``/``available_schedulers``;
* ``capacity`` follows the uniform-ladder contract (required by
  rate-proportional disciplines, accepted-and-ignored elsewhere);
* the ``auto_register`` default is normalized to True for *every*
  discipline (the raw ``JitterEDD`` constructor defaults False — the
  registry removes that inconsistency);
* unknown names/params fail with the errors a CLI user should see;
* and a lint-style sweep asserts ``make_scheduler`` is the only
  construction path left in ``src/repro/experiments`` and ``examples``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro import available_schedulers, list_schedulers, make_scheduler, scheduler_spec
from repro.core import JitterEDD, Packet, Scheduler
from repro.core.registry import ParamSpec, SchedulerSpec, register_scheduler

CAPACITY = 1e6

#: Disciplines that emulate a fluid reference and must be told the rate.
#: Derived from the spec's ``needs_capacity`` flag — the single source of
#: truth for the uniform-ladder capacity contract.
RATE_PROPORTIONAL = {
    name for name in available_schedulers()
    if scheduler_spec(name).needs_capacity
}


def test_available_schedulers_cover_the_comparison_ladder():
    names = available_schedulers()
    assert names[0] == "SFQ"  # the paper's algorithm leads Table 1
    assert set(names) >= {
        "SFQ", "SCFQ", "WFQ", "FQS", "WF2Q", "VirtualClock",
        "DRR", "WRR", "FIFO", "DelayEDD", "JitterEDD", "FairAirport",
    }


@pytest.mark.parametrize("name", sorted(list_schedulers()))
def test_make_scheduler_round_trips_every_name(name):
    spec = scheduler_spec(name)
    sched = make_scheduler(name, capacity=CAPACITY)
    assert isinstance(sched, spec.cls)
    assert isinstance(sched, Scheduler)
    if spec.rank_fn is not None:
        # Tag disciplines are the engine plus the spec's rank function.
        assert isinstance(sched.rank_fn, spec.rank_fn)
    # Band-engine specs report the engine; everything else its own name.
    assert sched.algorithm == ("SP-PIFO" if spec.bands is not None else name)
    # Case-insensitive lookup resolves to the same spec.
    assert scheduler_spec(name.lower()) is spec
    assert isinstance(make_scheduler(name.lower(), capacity=CAPACITY), spec.cls)


@pytest.mark.parametrize("name", sorted(list_schedulers()))
def test_every_discipline_serves_a_registered_flow(name):
    sched = make_scheduler(name, capacity=CAPACITY)
    if hasattr(sched, "add_flow_with_deadline"):
        sched.add_flow_with_deadline("f", CAPACITY / 4, deadline=0.05)
    else:
        sched.add_flow("f", CAPACITY / 4)
    sched.enqueue(Packet("f", 8000), now=0.0)
    packet = sched.dequeue(now=0.0)
    assert packet is not None and packet.flow == "f"


@pytest.mark.parametrize("name", sorted(RATE_PROPORTIONAL))
def test_rate_proportional_disciplines_require_capacity(name):
    with pytest.raises(TypeError, match="rate-proportional"):
        make_scheduler(name)
    sched = make_scheduler(name, capacity=CAPACITY)
    assert sched.gps.capacity == CAPACITY


def test_self_clocked_disciplines_ignore_capacity():
    a = make_scheduler("SFQ", capacity=CAPACITY)
    b = make_scheduler("SFQ")
    assert type(a) is type(b)


def test_unknown_name_lists_available():
    with pytest.raises(ValueError, match="SFQ"):
        make_scheduler("GPS-2000")


def test_unknown_param_lists_accepted():
    with pytest.raises(TypeError, match="quantum_scale"):
        make_scheduler("DRR", quantum=8000)
    with pytest.raises(TypeError, match="does not accept"):
        make_scheduler("FIFO", tie_break=None)


def test_discipline_params_pass_through():
    drr = make_scheduler("DRR", quantum_scale=2.5)
    assert drr.quantum_scale == 2.5
    sfq = make_scheduler("SFQ", default_weight=42.0)
    assert sfq.default_weight == 42.0


def test_auto_register_default_is_normalized():
    # Raw constructors disagree (the inconsistency the registry fixes):
    assert JitterEDD().auto_register is False
    # Through the registry, every discipline defaults to True ...
    for name in available_schedulers():
        sched = make_scheduler(name, capacity=CAPACITY)
        assert sched.auto_register is True, name
    # ... and the caller can still opt out uniformly.
    for name in available_schedulers():
        sched = make_scheduler(name, capacity=CAPACITY, auto_register=False)
        assert sched.auto_register is False, name


def test_param_schema_is_introspectable():
    spec = scheduler_spec("DRR")
    assert "quantum_scale" in spec.param_names()
    by_name = {p.name: p for p in spec.params}
    assert isinstance(by_name["quantum_scale"], ParamSpec)
    assert by_name["quantum_scale"].kind == "float"
    assert scheduler_spec("WFQ").needs_capacity is True
    assert scheduler_spec("SFQ").needs_capacity is False


def test_register_scheduler_extends_the_registry():
    class Toy(Scheduler):
        def _do_enqueue(self, packet, now):  # pragma: no cover - unused
            raise NotImplementedError

        def _do_dequeue(self, now):  # pragma: no cover - unused
            return None

    spec = SchedulerSpec("UnitTestToy", Toy, "registry extension test")
    try:
        register_scheduler(spec)
        assert "UnitTestToy" in available_schedulers()
        assert isinstance(make_scheduler("unittesttoy"), Toy)
    finally:
        from repro.core import registry

        registry._REGISTRY.pop("UnitTestToy", None)
        registry._ALIASES.pop("unittesttoy", None)


# ----------------------------------------------------------------------
# Lint-style sweep: the registry is the only construction path
# ----------------------------------------------------------------------

_CONSTRUCTORS = frozenset(
    {scheduler_spec(name).cls.__name__ for name in list_schedulers()}
)


def _violations(root: Path):
    """AST sweep: real ``SFQ(...)``-style call sites (strings, comments
    and docstrings mentioning scheduler names don't count)."""
    import ast

    hits = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = None
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute):
                name = func.attr
            if name in _CONSTRUCTORS:
                hits.append(f"{path.relative_to(root.parent)}:{node.lineno}")
    return hits


def test_experiments_and_examples_construct_only_via_registry():
    repo = Path(__file__).resolve().parent.parent
    hits = _violations(repo / "src" / "repro" / "experiments")
    hits += _violations(repo / "examples")
    hits += _violations(repo / "benchmarks")
    assert not hits, (
        "direct scheduler constructor calls (use make_scheduler): "
        + ", ".join(hits)
    )
