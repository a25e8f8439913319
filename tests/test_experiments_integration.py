"""Integration tests: each experiment module runs (scaled down where
needed) and its headline qualitative claim from the paper holds."""

from __future__ import annotations

import pytest

from repro.experiments.delay_bounds_exp import run_delay_bounds
from repro.experiments.delay_edd_exp import run_delay_edd
from repro.experiments.delay_shifting import run_delay_shifting
from repro.experiments.end_to_end_exp import run_end_to_end
from repro.experiments.examples_1_2 import run_example1, run_example2
from repro.experiments.fair_airport_exp import run_fair_airport
from repro.experiments.figure1 import run_figure1_variant
from repro.experiments.figure2a import run_figure2a
from repro.experiments.figure2b import run_point
from repro.experiments.figure3 import run_figure3
from repro.experiments.harness import ExperimentResult
from repro.experiments.link_sharing_exp import run_link_sharing
from repro.experiments.table1 import run_table1
from repro.experiments.throughput_bounds import run_throughput_bounds


def test_harness_table_rendering():
    result = ExperimentResult("X", "desc", headers=["a", "b"])
    result.add_row(1, 2.5)
    result.note("n")
    text = result.render()
    assert "X" in text and "2.5" in text and "n" in text
    with pytest.raises(ValueError):
        result.add_row(1)


def test_example1_gap_reaches_twice_lower_bound():
    result = run_example1()
    assert result.data["gap"] == pytest.approx(2 * result.data["lower_bound"])


def test_example2_wfq_starves_newcomer_sfq_splits():
    result = run_example2(c=10.0)
    wfq_f, wfq_m = result.data["counts"]["WFQ"]
    sfq_f, sfq_m = result.data["counts"]["SFQ"]
    assert wfq_m <= 1  # paper: W_m(1,2) <= 1
    assert wfq_f >= 9  # paper: W_f(1,2) >= C-1
    assert abs(sfq_f - sfq_m) <= 1  # SFQ splits evenly


def test_table1_claims():
    result = run_table1()
    rows = result.data["rows"]
    bound = result.data["sfq_bound"]
    # Theorem 1: SFQ and SCFQ within bound on both server kinds.
    for algo in ("SFQ", "SCFQ"):
        assert rows[algo]["const"] <= bound + 1e-9
        assert rows[algo]["variable"] <= bound + 1e-9
    # WFQ/FQS blow past the bound on the variable-rate server.
    assert rows["WFQ"]["variable"] > 2 * bound
    assert rows["FQS"]["variable"] > 2 * bound
    # DRR unfairness grows with the quantum.
    assert (
        rows["DRR (quantum=16xlmax)"]["const"]
        > 4 * rows["DRR (quantum=1xlmax)"]["const"]
    )


def test_figure1_wfq_starves_late_tcp_flow_sfq_does_not():
    wfq = run_figure1_variant("WFQ")
    sfq = run_figure1_variant("SFQ")
    # Paper: src3 got 2 pkts in its first 435 ms under WFQ, 145 under SFQ.
    assert wfq.src3_first_435ms <= 15
    assert sfq.src3_first_435ms >= 80
    # Paper: SFQ splits the last 500 ms nearly evenly (189 vs 190).
    assert sfq.src3_last_half == pytest.approx(sfq.src2_last_half, rel=0.15)
    # Paper: WFQ gives src2 a large advantage.
    assert wfq.src2_last_half > 3 * wfq.src3_last_half


def test_figure2a_crossover_and_mixed_example():
    result = run_figure2a()
    # Low-rate flows gain, high-rate flows in crowded systems lose.
    series = result.data["series"]
    assert series[200][0] > 0  # 16 Kb/s, |Q|=200: SFQ wins
    assert series[400][-1] < 0  # 1 Mb/s, |Q|=400: WFQ wins
    # The paper's numeric example: ~20.4 ms gain / ~2.5 ms loss.
    assert result.data["audio_delta"] == pytest.approx(0.0204, rel=0.05)
    assert -result.data["video_delta"] == pytest.approx(0.0025, rel=0.15)


def test_figure2b_wfq_delay_higher_for_low_throughput_flows():
    wfq = run_point("WFQ", n_low=4, duration=60.0)
    sfq = run_point("SFQ", n_low=4, duration=60.0)
    assert wfq.utilization == pytest.approx(0.828, abs=1e-3)
    assert wfq.avg_delay_low > 1.2 * sfq.avg_delay_low


def test_figure3_phase_ratios():
    result = run_figure3(packets_per_connection=1500)
    p1 = result.data["phases"]["p1"]
    assert p1["w2"] / p1["w1"] == pytest.approx(2.0, rel=0.05)
    assert p1["w3"] / p1["w1"] == pytest.approx(3.0, rel=0.05)
    p2 = result.data["phases"]["p2"]
    assert p2["w3"] == 0
    assert p2["w2"] / p2["w1"] == pytest.approx(2.0, rel=0.05)
    p3 = result.data["phases"]["p3"]
    assert p3["w2"] == 0 and p3["w3"] == 0 and p3["w1"] > 0


def test_throughput_bounds_hold():
    result = run_throughput_bounds()
    for server, worst in result.data["worst_slack"].items():
        for flow, slack in worst.items():
            assert slack >= -1e-9, (server, flow)


def test_delay_bounds_hold_and_sfq_beats_scfq():
    result = run_delay_bounds(horizon=15.0)
    checks = result.data["checks"]
    for server, per_sched in checks.items():
        for sched, flows in per_sched.items():
            for flow, (slack, _maxd) in flows.items():
                assert slack >= -1e-9, (server, sched, flow)
    const = checks["constant"]
    assert const["SFQ"]["slow"][1] < const["SCFQ"]["slow"][1]


def test_end_to_end_bound_holds_and_gap_grows():
    result = run_end_to_end(max_hops=3, horizon=6.0)
    per_k = result.data["per_k"]
    for k, row in per_k.items():
        assert row["worst_slack"] >= -1e-9
    assert per_k[3]["scfq_gap"] == pytest.approx(3 * per_k[1]["scfq_gap"])


def test_link_sharing_phases():
    result = run_link_sharing()
    p1, p2, p3 = result.data["phases"]
    assert p1["fc"] == pytest.approx(p1["fb"], rel=0.05)
    assert p1["fd"] == 0
    assert p2["fc"] == pytest.approx(p2["fd"], rel=0.1)
    assert p2["fb"] == pytest.approx(p2["fc"] + p2["fd"], rel=0.1)
    assert p3["fc"] == pytest.approx(p3["fd"], rel=0.05)
    assert result.data["recursive_measured"] >= result.data["recursive_floor"]


def test_delay_shifting_condition_and_measurement():
    result = run_delay_shifting()
    assert result.data["condition"]
    assert result.data["part_bound"] < result.data["flat_bound"]
    measured = result.data["measured"]
    assert measured["part_fast"] < measured["flat_fast"]
    assert measured["part_slow"] >= measured["flat_slow"]


def test_delay_edd_bounds_hold():
    result = run_delay_edd()
    assert result.data["schedulable"]
    for server, checks in result.data["checks"].items():
        for flow, slack in checks.items():
            assert slack >= -1e-9, (server, flow)


def test_ebf_delay_tail_under_envelope():
    from repro.experiments.ebf_delay import run_ebf_delay

    result = run_ebf_delay(n_runs=3, horizon=12.0)
    for gamma, p in result.data["measured"].items():
        assert p <= result.data["envelope"][gamma] + 1e-9


def test_residual_is_fc_and_theorem4_applies():
    from repro.experiments.residual_exp import run_residual

    result = run_residual()
    assert result.data["residual_delta"] <= result.data["sigma"] + 1e-6
    assert min(result.data["worst_slack"].values()) >= -1e-9


def test_vbr_per_packet_rates():
    from repro.experiments.vbr_rates import run_vbr_rates

    result = run_vbr_rates()
    assert result.data["admission"]
    assert result.data["worst_slack"] >= -1e-9


def test_figure1_charts_attached():
    from repro.experiments.figure1 import run_figure1

    result = run_figure1()
    assert len(result.data["charts"]) == 2
    assert "tcp3" in result.data["charts"][0]


def test_example1_gap_depends_on_tie_breaking():
    """The paper's Example 1 needs its adversarial service order; with
    FIFO tie-breaking WFQ would not reach the full 2x gap — evidence
    that the bound is an 'at least', realized by *some* tie-break."""
    from repro.core import Packet, TieBreak, make_scheduler
    from repro.servers import ConstantCapacity, Link
    from repro.simulation import Simulator
    from repro.analysis.fairness import empirical_fairness_measure

    gaps = {}
    for name, rule in (
        ("adversarial", lambda st, p: (0 if p.flow == "m" else 1,)),
        ("fifo", TieBreak.fifo),
    ):
        sim = Simulator()
        wfq = make_scheduler("WFQ", capacity=2000.0, tie_break=rule)
        wfq.add_flow("f", 1000.0)
        wfq.add_flow("m", 1000.0)
        link = Link(sim, wfq, ConstantCapacity(2000.0))

        def inject():
            link.send(Packet("f", 1000, seqno=0))
            link.send(Packet("f", 1000, seqno=1))
            link.send(Packet("m", 1000, seqno=0))
            link.send(Packet("m", 500, seqno=1))
            link.send(Packet("m", 500, seqno=2))

        sim.at(0.0, inject)
        sim.run()
        gaps[name] = empirical_fairness_measure(link.tracer, "f", "m", 1000.0, 1000.0)
    assert gaps["adversarial"] == pytest.approx(2.0)
    assert gaps["fifo"] < gaps["adversarial"]


def test_seed_sweep_statistics():
    from repro.experiments.robustness import seed_sweep

    mean, std, values = seed_sweep(lambda s: float(s), [1, 2, 3])
    assert mean == pytest.approx(2.0)
    assert std == pytest.approx(1.0)
    assert values == [1.0, 2.0, 3.0]
    mean1, std1, _ = seed_sweep(lambda s: 5.0, [9])
    assert (mean1, std1) == (5.0, 0.0)


def test_fair_airport_bounds_hold():
    result = run_fair_airport()
    for server, case in result.data["cases"].items():
        assert min(case["delays"].values()) >= -1e-6
        for pair, (measured, bound) in case["fairness"].items():
            assert measured <= bound + 1e-9
    # The variable-rate case must exercise the ASQ (work conservation).
    assert result.data["cases"]["variable >= C"]["asq"] > 0
