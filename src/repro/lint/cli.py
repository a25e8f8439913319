"""``python -m repro lint`` — the CLI front end of the analyzer.

Exit codes: 0 clean, 1 findings reported, 2 usage error (unknown rule
code, or a path that does not exist or holds no ``.py`` files).
``--format json`` emits a machine-readable report (one object with
``findings`` and ``stats``).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from typing import List, Optional, Sequence

from repro.lint.analyzer import LintUsageError, lint_paths, resolve_rules
from repro.lint.findings import Finding
from repro.lint.rules import RULES


def _split_codes(value: Optional[str]) -> Optional[List[str]]:
    if value is None:
        return None
    return [part for part in value.replace(",", " ").split() if part]


def build_lint_parser(
    parser: Optional[argparse.ArgumentParser] = None,
) -> argparse.ArgumentParser:
    """Configure lint arguments on ``parser`` (or a fresh one)."""
    if parser is None:
        parser = argparse.ArgumentParser(
            prog="repro lint",
            description="determinism & scheduler-invariant static analysis",
        )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="RULES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        default=None,
        metavar="RULES",
        help="comma-separated rule codes to skip",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    return parser


def render_text(findings: Sequence[Finding]) -> str:
    """Render findings as ``path:line:col: CODE message`` lines plus a
    per-rule summary line (empty string when there are no findings)."""
    lines = [finding.format() for finding in findings]
    by_rule = Counter(finding.rule for finding in findings)
    if findings:
        summary = ", ".join(
            f"{code}: {count}" for code, count in sorted(by_rule.items())
        )
        lines.append(f"{len(findings)} finding(s) ({summary})")
    return "\n".join(lines)


def render_json(findings: Sequence[Finding]) -> str:
    """Render findings as a JSON document with ``findings`` and
    ``stats`` keys (for editor and CI integration)."""
    by_rule = Counter(finding.rule for finding in findings)
    return json.dumps(
        {
            "findings": [finding.to_dict() for finding in findings],
            "stats": {
                "total": len(findings),
                "by_rule": dict(sorted(by_rule.items())),
            },
        },
        indent=2,
        sort_keys=True,
    )


def run_lint(args: argparse.Namespace) -> int:
    """Execute a parsed lint invocation; returns the exit code."""
    if args.list_rules:
        width = max(len(code) for code in RULES)
        for code, rule in RULES.items():
            print(f"{code:<{width}}  {rule.summary}")
        return 0
    try:
        rules = resolve_rules(
            select=_split_codes(args.select), ignore=_split_codes(args.ignore)
        )
        findings = lint_paths(args.paths, rules=rules)
    except LintUsageError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    report = render_json(findings) if args.format == "json" else render_text(findings)
    if report:
        print(report)
    return 1 if findings else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Standalone entry point (``python -m repro.lint``)."""
    parser = build_lint_parser()
    return run_lint(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
