"""Command-line interface: run any paper experiment from the shell.

::

    python -m repro list
    python -m repro run figure1
    python -m repro run figure2b --duration 1000
    python -m repro run all --seed 7 --jobs 4
    python -m repro run figure1 --metrics
    python -m repro metrics figure1
    python -m repro campaign --jobs 4 --seeds 5
    python -m repro campaign --only table1,figure1 --seeds 2 --jobs 2
    python -m repro campaign --only figure1 --seeds 3 --metrics

Each experiment prints the same table/series the benchmark suite
archives under ``results/``. Dispatch goes through the lazy registry in
:mod:`repro.experiments` (``name -> module:function``), shared with the
campaign runner, so ``python -m repro list`` never imports a simulation
module.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable, List, Optional

from repro.experiments import (
    ACCEPTS_DURATION,
    ACCEPTS_SEED,
    DESCRIPTIONS,
    REGISTRY,
    load_experiment,
)
from repro.experiments.harness import ExperimentResult

#: Backwards-compatible aliases (pre-registry callers).
_RUNNERS = DESCRIPTIONS
_ACCEPTS_SEED = ACCEPTS_SEED
_ACCEPTS_DURATION = ACCEPTS_DURATION


def _load(name: str) -> Callable[..., ExperimentResult]:
    return load_experiment(name)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse CLI (list / run / bench / report /
    campaign subcommands)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Start-time Fair Queuing (SIGCOMM '96) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    run = sub.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument("experiment", choices=sorted(REGISTRY) + ["all"])
    run.add_argument("--seed", type=int, default=None, help="experiment seed")
    run.add_argument(
        "--duration", type=float, default=None, help="simulated horizon (s)"
    )
    run.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for 'run all' (default 1 = in-process)",
    )
    run.add_argument(
        "--metrics", action="store_true",
        help="collect an online metrics snapshot "
             "(written under <results>/metrics/)",
    )
    run.add_argument(
        "--results-dir", default="results",
        help="directory for --metrics snapshots (default: results)",
    )
    metrics = sub.add_parser(
        "metrics",
        help="run one experiment with metrics collection and print the "
             "per-server / per-flow telemetry summary",
    )
    metrics.add_argument("experiment", choices=sorted(REGISTRY))
    metrics.add_argument(
        "--seed", type=int, default=None, help="experiment seed"
    )
    metrics.add_argument(
        "--duration", type=float, default=None, help="simulated horizon (s)"
    )
    metrics.add_argument(
        "--results-dir", default="results",
        help="snapshot output directory root (default: results; files go "
             "to <results>/metrics/<experiment>.{json,csv})",
    )
    metrics.add_argument(
        "--table", action="store_true",
        help="also print the experiment's own result table",
    )
    bench = sub.add_parser(
        "bench",
        help="run the perf microbenchmarks and write BENCH_*.json",
    )
    bench.add_argument(
        "--smoke", action="store_true",
        help="tiny op counts (CI rot-check); numbers are not comparable",
    )
    bench.add_argument(
        "--output-dir", default=None,
        help="directory for BENCH_*.json (default: current directory)",
    )
    bench.add_argument(
        "--repeats", type=int, default=5,
        help="timing repeats per measurement; min is reported (default 5)",
    )
    bench.add_argument(
        "--flows", type=int, nargs="+", default=None, metavar="N",
        help="flow-count sweep for the scale family / BENCH_scale.json "
             "(default: 1000 10000 100000; e.g. --flows 1000 1000000)",
    )
    bench.add_argument(
        "--profile", type=int, default=None, metavar="N",
        help="instead of benchmarking, cProfile the pipeline section and "
             "print/dump the top-N hot functions under results/profile/",
    )
    report = sub.add_parser(
        "report", help="run the full evaluation and write a Markdown report"
    )
    report.add_argument(
        "--output", default="REPORT.md", help="report path (default REPORT.md)"
    )
    report.add_argument("--seed", type=int, default=None)
    report.add_argument(
        "--experiments", nargs="*", default=None,
        help="subset of experiment names (default: all)",
    )
    campaign = sub.add_parser(
        "campaign",
        help="fan experiments x params x seeds across worker processes "
             "with a content-addressed result cache",
    )
    campaign.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes (default 1 = in-process)",
    )
    campaign.add_argument(
        "--seeds", type=int, default=1,
        help="seed slots per seed-accepting experiment (default 1)",
    )
    campaign.add_argument(
        "--base-seed", type=int, default=0,
        help="base seed mixed into every shard's derived seed (default 0)",
    )
    campaign.add_argument(
        "--only", default=None,
        help="comma-separated experiment subset (default: all)",
    )
    campaign.add_argument(
        "--no-cache", action="store_true",
        help="ignore and do not write the on-disk result cache",
    )
    campaign.add_argument(
        "--timeout", type=float, default=None,
        help="per-shard timeout in seconds (shard is marked failed)",
    )
    campaign.add_argument(
        "--retries", type=int, default=1,
        help="retries for shards whose worker process dies (default 1)",
    )
    campaign.add_argument(
        "--results-dir", default="results",
        help="directory for the cache and campaign artifacts "
             "(default: results)",
    )
    campaign.add_argument(
        "--quiet", action="store_true", help="suppress per-shard progress"
    )
    campaign.add_argument(
        "--metrics", action="store_true",
        help="collect per-shard metrics snapshots and write the "
             "per-experiment merge under <results>/metrics/",
    )
    campaign.add_argument(
        "--bench", action="store_true",
        help="measure --jobs and warm-cache speedups instead of running "
             "a campaign; writes BENCH_campaign.json",
    )
    campaign.add_argument(
        "--bench-output", default="BENCH_campaign.json",
        help="path for --bench output (default BENCH_campaign.json)",
    )
    chaos = sub.add_parser(
        "chaos",
        help="randomized fault campaigns across the scheduler zoo, with "
             "failure minimization and artifact replay",
    )
    chaos.add_argument(
        "mode", nargs="?", choices=("run", "replay"), default="run",
        help="'run' a campaign (default) or 'replay' a chaos-repro artifact",
    )
    chaos.add_argument(
        "artifact", nargs="?", default=None,
        help="artifact path (replay mode only)",
    )
    chaos.add_argument(
        "--seeds", type=int, default=5,
        help="fault schedules per scheduler (default 5)",
    )
    chaos.add_argument(
        "--schedulers", default=None,
        help="comma-separated discipline subset (default: the stock zoo)",
    )
    chaos.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes (default 1 = in-process)",
    )
    chaos.add_argument(
        "--base-seed", type=int, default=0,
        help="base seed mixed into every schedule seed (default 0)",
    )
    chaos.add_argument(
        "--duration", type=float, default=6.0,
        help="simulated horizon per schedule in seconds (default 6)",
    )
    chaos.add_argument(
        "--timeout", type=float, default=None,
        help="per-run timeout in seconds (run is marked failed)",
    )
    chaos.add_argument(
        "--no-cache", action="store_true",
        help="ignore and do not write the on-disk result cache",
    )
    chaos.add_argument(
        "--no-shrink", action="store_true",
        help="report violations without minimizing them",
    )
    chaos.add_argument(
        "--results-dir", default="results",
        help="directory for the cache and repro artifacts "
             "(default: results)",
    )
    chaos.add_argument(
        "--quiet", action="store_true", help="suppress per-run progress"
    )
    lint = sub.add_parser(
        "lint",
        help="static determinism & scheduler-invariant analysis "
             "(DET*/TAG*/CACHE*/PERF* rules; see HACKING.md)",
    )
    from repro.lint.cli import build_lint_parser

    build_lint_parser(lint)
    return parser


def run_experiment(
    name: str, seed: Optional[int] = None, duration: Optional[float] = None
) -> ExperimentResult:
    """Run one experiment by CLI name and return its result."""
    runner = load_experiment(name)
    kwargs = {}
    if seed is not None and name in ACCEPTS_SEED:
        kwargs["seed"] = seed
    if duration is not None and name in ACCEPTS_DURATION:
        kwargs["duration"] = duration
    return runner(**kwargs)


def run_experiment_with_metrics(
    name: str,
    seed: Optional[int] = None,
    duration: Optional[float] = None,
):
    """Run one experiment inside a :class:`repro.metrics.MetricsSession`.

    Returns ``(result, snapshot)`` where the snapshot covers every
    Link/Switch the experiment constructed (ambient wiring — the
    experiment itself is unmodified).
    """
    from repro.metrics import MetricsSession

    meta = {"experiment": name}
    if seed is not None and name in ACCEPTS_SEED:
        meta["seed"] = seed
    if duration is not None and name in ACCEPTS_DURATION:
        meta["duration"] = duration
    with MetricsSession() as session:
        result = run_experiment(name, seed=seed, duration=duration)
    return result, session.snapshot(meta)


def _write_snapshot(snapshot, results_dir: str, basename: str) -> None:
    from pathlib import Path

    json_path, csv_path = snapshot.write(
        Path(results_dir) / "metrics", basename
    )
    print(f"metrics snapshot: {json_path}; csv: {csv_path}")


def _parse_only(only: Optional[str]) -> Optional[List[str]]:
    if only is None:
        return None
    names = [part.strip() for part in only.replace(",", " ").split() if part.strip()]
    unknown = sorted(set(names) - set(REGISTRY))
    if unknown:
        raise SystemExit(
            f"unknown experiment(s): {', '.join(unknown)} "
            f"(see `python -m repro list`)"
        )
    return names


def _write_campaign_snapshots(campaign, results_dir: str) -> None:
    """Write each experiment's merged snapshot (if it collected one)."""
    from repro.metrics import Snapshot

    for name, summary in campaign.summaries.items():
        payload = summary.data.get("metrics_snapshot")
        if payload:
            _write_snapshot(Snapshot.from_payload(payload), results_dir, name)


def _run_all(args: argparse.Namespace) -> int:
    """Legacy ``run all`` path, routed through the campaign runner.

    Seeds are passed through directly (no derivation) so output matches
    running each experiment by hand with the same ``--seed``; the cache
    is bypassed because ``run`` promises a fresh execution.
    """
    from pathlib import Path

    from repro.experiments.campaign import run_campaign

    grids = None
    if args.duration is not None:
        grids = dict()
        from repro.experiments.campaign import PARAM_GRIDS

        grids.update(PARAM_GRIDS)
        for name in sorted(ACCEPTS_DURATION):
            grids[name] = [{"duration": args.duration}]
    campaign = run_campaign(
        sorted(REGISTRY),
        seeds=1,
        jobs=max(1, args.jobs),
        base_seed=args.seed,
        derive_seeds=False,
        cache=False,
        grids=grids,
        results_dir=args.results_dir,
        metrics=args.metrics,
    )
    for name in sorted(campaign.summaries):
        print(campaign.summaries[name].render())
        print()
    if args.metrics:
        _write_campaign_snapshots(campaign, args.results_dir)
    print(campaign.render_stats())
    for outcome in campaign.failures:
        print(f"FAILED: {outcome.shard.describe()}: "
              f"{outcome.error.splitlines()[0] if outcome.error else outcome.status}")
    return 1 if campaign.failures else 0


def _run_campaign_command(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.experiments.campaign import (
        run_campaign,
        run_campaign_bench,
        write_manifest,
    )

    if args.bench:
        run_campaign_bench(
            output=args.bench_output,
            jobs=max(2, args.jobs) if args.jobs > 1 else 4,
            seeds=args.seeds,
            names=_parse_only(args.only),
            timeout=args.timeout,
        )
        return 0

    progress = None if args.quiet else (lambda line: print(line, flush=True))
    campaign = run_campaign(
        _parse_only(args.only),
        seeds=args.seeds,
        jobs=args.jobs,
        base_seed=args.base_seed,
        cache=not args.no_cache,
        results_dir=args.results_dir,
        timeout=args.timeout,
        retries=args.retries,
        progress=progress,
        metrics=args.metrics,
    )
    print()
    for name in campaign.summaries:
        print(campaign.summaries[name].render())
        print()
    print(campaign.render_stats())
    if args.metrics:
        _write_campaign_snapshots(campaign, args.results_dir)

    results_dir = Path(args.results_dir)
    write_manifest(campaign, results_dir / "campaign_manifest.json")
    from repro.analysis.report import campaign_to_markdown

    (results_dir / "campaign_summary.md").write_text(
        campaign_to_markdown(campaign)
    )
    print(f"manifest: {results_dir / 'campaign_manifest.json'}; "
          f"summary: {results_dir / 'campaign_summary.md'}")
    for outcome in campaign.failures:
        print(f"FAILED: {outcome.shard.describe()} ({outcome.status}): "
              f"{outcome.error.splitlines()[0] if outcome.error else ''}")
    return 1 if campaign.failures else 0


def _run_chaos_command(args: argparse.Namespace) -> int:
    """``python -m repro chaos [run|replay]``."""
    if args.mode == "replay":
        from repro.chaos import replay_artifact

        if args.artifact is None:
            print("chaos replay: missing artifact path")
            return 2
        outcome = replay_artifact(Path(args.artifact))
        print(outcome.describe())
        return 0 if outcome.reproduced else 1

    from repro.chaos import DEFAULT_ZOO, run_chaos_campaign

    schedulers = (
        [s for s in args.schedulers.split(",") if s]
        if args.schedulers
        else list(DEFAULT_ZOO)
    )
    result = run_chaos_campaign(
        schedulers,
        seeds=args.seeds,
        jobs=args.jobs,
        base_seed=args.base_seed,
        duration=args.duration,
        cache=not args.no_cache,
        results_dir=args.results_dir,
        timeout=args.timeout,
        shrink=not args.no_shrink,
        progress=None if args.quiet else print,
    )
    print(result.describe())
    return 0 if result.ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "list":
        width = max(len(n) for n in DESCRIPTIONS)
        for name in sorted(DESCRIPTIONS):
            print(f"{name:<{width}}  {DESCRIPTIONS[name]}")
        return 0
    if args.command == "bench":
        if args.profile is not None:
            from repro.experiments.bench import profile_pipeline

            profile_pipeline(
                top_n=args.profile,
                output_dir=args.output_dir or "results/profile",
            )
            return 0
        from repro.experiments.bench import run_bench

        run_bench(
            smoke=args.smoke, output_dir=args.output_dir,
            repeats=args.repeats, flows=args.flows,
        )
        return 0
    if args.command == "report":
        from repro.analysis.report import generate_report

        _markdown, failures = generate_report(
            path=args.output, experiments=args.experiments, seed=args.seed
        )
        print(f"report written to {args.output}")
        for failure in failures:
            print(f"FAILED: {failure}")
        return 1 if failures else 0
    if args.command == "campaign":
        return _run_campaign_command(args)
    if args.command == "chaos":
        return _run_chaos_command(args)
    if args.command == "lint":
        from repro.lint.cli import run_lint

        return run_lint(args)
    if args.command == "metrics":
        result, snapshot = run_experiment_with_metrics(
            args.experiment, seed=args.seed, duration=args.duration
        )
        if args.table:
            print(result.render())
            print()
        for line in snapshot.summary_lines():
            print(line)
        _write_snapshot(snapshot, args.results_dir, args.experiment)
        return 0
    if args.experiment == "all":
        return _run_all(args)
    if args.metrics:
        result, snapshot = run_experiment_with_metrics(
            args.experiment, seed=args.seed, duration=args.duration
        )
        print(result.render())
        print()
        for line in snapshot.summary_lines():
            print(line)
        _write_snapshot(snapshot, args.results_dir, args.experiment)
        return 0
    result = run_experiment(
        args.experiment, seed=args.seed, duration=args.duration
    )
    print(result.render())
    print()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
