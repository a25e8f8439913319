"""Tests for the Markdown report generator."""

from __future__ import annotations

import pytest

from repro.analysis.report import (
    DEFAULT_ORDER,
    _bench_section,
    _to_markdown,
    generate_report,
)
from repro.cli import _RUNNERS
from repro.experiments.harness import ExperimentResult


def test_default_order_names_are_valid():
    for name in DEFAULT_ORDER:
        assert name in _RUNNERS


def test_markdown_section_structure():
    result = ExperimentResult("Exp", "about it", headers=["a", "b"])
    result.add_row(1, 2)
    result.note("a note")
    result.data["charts"] = ["CHART"]
    text = _to_markdown(result)
    assert text.startswith("## Exp")
    assert "| a | b |" in text
    assert "| 1 | 2 |" in text
    assert "> a note" in text
    assert "CHART" in text


def test_generate_report_subset(tmp_path):
    path = tmp_path / "r.md"
    markdown, failures = generate_report(
        path=str(path), experiments=["example1", "example2"]
    )
    assert failures == []
    assert path.read_text() == markdown
    assert "## Example 1" in markdown
    assert "## Example 2" in markdown


def test_generate_report_records_failures(monkeypatch):
    import repro.cli as cli

    def boom(name, seed=None, duration=None):
        raise RuntimeError("kaput")

    monkeypatch.setattr(cli, "run_experiment", boom)
    markdown, failures = generate_report(experiments=["example1"])
    assert failures and "kaput" in failures[0]
    assert "FAILED" in markdown


def test_bench_section_renders_the_written_curve(tmp_path):
    from repro.experiments.bench import run_bench

    assert _bench_section(root=tmp_path) is None
    payload = run_bench(
        output_dir=str(tmp_path), backlogs=(2, 8, 32), cycles=50, repeats=2
    )
    section = _bench_section(root=tmp_path)
    rows = [
        line for line in section.splitlines()
        if line.startswith("| ") and line[2].isdigit()
    ]
    assert len(rows) == len(payload["sfq_backlog_curve"]) == 3
    for row, point in zip(rows, payload["sfq_backlog_curve"]):
        assert row == (
            f"| {point['per_flow_backlog']} | {point['total_packets']} "
            f"| {point['seed_ns_per_packet']} | {point['engine_ns_per_packet']} "
            f"| {point['seed_over_engine']} |"
        )
    assert f"F={payload['flows']} flows" in section
    assert (
        f"median of {payload['repeats']} repeats of {payload['cycles']} cycles"
        in section
    )
    assert f"(Python {payload['python']})" in section
