"""Full-evaluation report generation.

``generate_report`` runs a selected set (default: all) of the paper's
experiments and writes one self-contained Markdown document with every
table, note and ASCII chart — the programmatic equivalent of running
the benchmark suite and stitching ``results/`` together. Exposed on the
CLI as ``python -m repro report``.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Iterable, List, Optional, Tuple

from repro.experiments.harness import ExperimentResult

#: Experiments in presentation order (CLI names from repro.cli).
DEFAULT_ORDER = [
    "table1",
    "example1",
    "example2",
    "figure1",
    "figure2a",
    "figure2b",
    "figure3",
    "throughput",
    "delay",
    "ebf",
    "e2e",
    "interop",
    "linkshare",
    "shifting",
    "edd",
    "residual",
    "vbr",
    "fa",
    "stress",
    "faults",
    "robust-figure1",
    "robust-figure2b",
    "complexity",
]


def _to_markdown(result: ExperimentResult) -> str:
    lines: List[str] = [f"## {result.experiment}", "", result.description, ""]
    lines.append("| " + " | ".join(result.headers) + " |")
    lines.append("|" + "|".join("---" for _ in result.headers) + "|")
    for row in result.rows:
        lines.append("| " + " | ".join(str(cell) for cell in row) + " |")
    if result.notes:
        lines.append("")
        for note in result.notes:
            lines.append(f"> {note}")
    charts = result.data.get("charts")
    if charts:
        for chart in charts:
            lines.append("")
            lines.append("```")
            lines.append(chart)
            lines.append("```")
    lines.append("")
    return "\n".join(lines)


def campaign_to_markdown(campaign: "CampaignResult") -> str:  # noqa: F821
    """Render a campaign's aggregated summaries as one Markdown doc.

    Written by ``python -m repro campaign`` to
    ``<results>/campaign_summary.md``. Shard-level provenance (cache
    hits, retries, failures) lives in the manifest next to it; this
    document is the human-readable evaluation: one summary table per
    experiment, mean over seed slots, with failed shards called out.
    """
    stats = campaign.stats
    lines: List[str] = [
        "# Campaign summary",
        "",
        f"{stats['shards']} shards ({stats['ok']} ok, {stats['failed']} "
        f"failed), {stats['cached']} served from cache, "
        f"{stats['seeds']} seed slot(s), --jobs {stats['jobs']}, "
        f"{campaign.wall_s:.2f}s wall.",
        "",
    ]
    for summary in campaign.summaries.values():
        lines.append(_to_markdown(summary))
    failures = campaign.failures
    if failures:
        lines.append("## Failed shards")
        lines.append("")
        for outcome in failures:
            first_line = outcome.error.splitlines()[0] if outcome.error else ""
            lines.append(
                f"- `{outcome.shard.describe()}` — {outcome.status}"
                + (f": {first_line}" if first_line else "")
            )
        lines.append("")
    return "\n".join(lines)


def _bench_section(root: Optional[Path] = None) -> Optional[str]:
    """Render the §2.5 SFQ backlog curve from the committed
    ``BENCH_schedulers.json`` (written by ``python -m repro bench``).

    Returns None when the file is absent — the report simply omits the
    section.
    """
    import json

    if root is None:
        root = Path(__file__).resolve().parents[3]
    sched_path = root / "BENCH_schedulers.json"
    if not sched_path.exists():
        return None
    bench = json.loads(sched_path.read_text())
    curve = bench["sfq_backlog_curve"]
    lines: List[str] = [
        "## Scheduling cost: measured O(log F) vs O(log N)",
        "",
        "The paper's §2.5 cost argument: O(1) tag work plus one "
        "priority-queue operation per packet. The engine's heap holds one "
        f"entry per backlogged flow (F={bench['flows']} flows, fixed); the "
        "seed core's heap holds one entry per queued packet (N). The "
        "table gives SFQ's per-packet cost, a steady-state "
        "dequeue+complete+enqueue cycle, as the per-flow backlog deepens. "
        f"Each figure is the median of {bench['repeats']} repeats of "
        f"{bench['cycles']} cycles, the seed and the engine timed back to "
        f"back in alternating order (Python {bench['python']}). "
        "Nanoseconds are machine-dependent; read the ratio column, where "
        "a value below 1 means the engine costs more per packet than the "
        "seed. Regenerate with `python -m repro bench`.",
        "",
        "| packets/flow | total packets N | seed ns/pkt (packet heap) "
        "| engine ns/pkt (flow-head heap) | seed/engine |",
        "|---|---|---|---|---|",
    ]
    for point in curve:
        lines.append(
            f"| {point['per_flow_backlog']} | {point['total_packets']} "
            f"| {point['seed_ns_per_packet']} "
            f"| {point['engine_ns_per_packet']} "
            f"| {point['seed_over_engine']} |"
        )
    first, last = curve[0], curve[-1]
    ratios = [point["seed_over_engine"] for point in curve]
    seed_growth = last["seed_ns_per_packet"] / first["seed_ns_per_packet"]
    engine_growth = last["engine_ns_per_packet"] / first["engine_ns_per_packet"]
    lines += [
        "",
        f"> measured: from N={first['total_packets']} to "
        f"N={last['total_packets']} the seed's cost changed "
        f"{seed_growth:.2f}x and the engine's {engine_growth:.2f}x; "
        f"seed/engine stays within {min(ratios)}–{max(ratios)}",
        "",
    ]
    return "\n".join(lines)


def generate_report(
    path: Optional[str] = None,
    experiments: Optional[Iterable[str]] = None,
    seed: Optional[int] = None,
) -> Tuple[str, List[str]]:
    """Run experiments and render the Markdown report.

    Returns ``(markdown, failures)``; the report is also written to
    ``path`` when given. An experiment that raises is recorded in
    ``failures`` and the report continues — a partial report beats no
    report when iterating.
    """
    from repro.cli import run_experiment

    names = list(experiments) if experiments is not None else list(DEFAULT_ORDER)
    sections: List[str] = [
        "# SFQ reproduction — full evaluation report",
        "",
        "Start-time Fair Queuing (Goyal, Vin & Cheng, SIGCOMM 1996): "
        "every table and figure, regenerated.",
        "",
    ]
    failures: List[str] = []
    for name in names:
        start = time.perf_counter()  # lint: disable=DET002  harness wall-clock bookkeeping, not simulation state
        try:
            result = run_experiment(name, seed=seed)
        except Exception as exc:  # noqa: BLE001 - reported, not hidden
            failures.append(f"{name}: {exc!r}")
            sections.append(f"## {name}\n\n*FAILED: {exc!r}*\n")
            continue
        elapsed = time.perf_counter() - start  # lint: disable=DET002  harness wall-clock bookkeeping, not simulation state
        sections.append(_to_markdown(result))
        sections.append(f"*({elapsed:.2f}s simulated-experiment wall time)*\n")
    bench = _bench_section()
    if bench is not None:
        sections.append(bench)
    markdown = "\n".join(sections)
    if path is not None:
        Path(path).write_text(markdown)
    return markdown, failures
