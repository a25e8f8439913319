"""Bench: hierarchical link-sharing at scale — per-packet cost stays
near-flat as the flow population grows 100x (the paper's O(log Q)
claim, §2.5), churn leaves no per-flow state behind, and the departure
schedule is a pure function of (seed, params)."""

from __future__ import annotations

from conftest import save_result
from repro.experiments.scale import run_scale


def test_scale_flatness_and_churn(benchmark):
    # CI-sized sweep: 100x in flows, small packet budget.
    result = benchmark.pedantic(
        run_scale,
        kwargs={"flows": [500, 50_000], "packets_target": 20_000,
                "churn_cycles": 100},
        rounds=1,
        iterations=1,
    )
    points = {p["flows"]: p for p in result.data["points"]}

    # O(log F): 100x the flows must not cost anywhere near 100x — allow
    # generous slack for shared-runner noise, the claim is "near-flat".
    assert result.data["flat_ratio"] < 3.0

    for p in points.values():
        # Every churned flow joined, drained, and detached, leaving the
        # churn leaf with no per-flow state.
        assert p["churn_joined"] == p["churn_detached"] == 100
        assert p["churn_leaf_flows"] == 0
        assert p["packets"] > 0

    # The schedule is a pure function of (seed, params): a fresh run
    # reproduces the departure digest bit-for-bit.
    ref = run_scale(flows=500, packets_target=20_000, churn_cycles=100)
    assert ref.data["points"][0]["digest"] == points[500]["digest"]

    save_result(result)


def test_scale_digest_1e5_flows():
    # The 10^5-flow point of the full sweep at default packet budget and
    # churn; its digest is the recorded schedule (10^4 is pinned in
    # tests/test_regression_snapshots.py).
    (point,) = run_scale(flows=100_000).data["points"]
    assert point["digest"] == "a49c2ae7"
