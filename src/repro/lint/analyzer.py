"""AST walk + rule dispatch + suppression filtering.

The analyzer is pure and filesystem-optional: :func:`lint_source` lints
an in-memory string (what the fixture tests use), :func:`lint_paths`
walks files/directories. Rule selection mirrors flake8's
``--select`` / ``--ignore`` semantics: selection first, then ignores.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from repro.lint.findings import (
    Finding,
    is_suppressed,
    parse_suppressions,
    sort_findings,
)
from repro.lint.rules import RULES, ModuleContext, Rule


class LintUsageError(Exception):
    """Raised for bad rule selections (unknown codes) and for paths that
    do not exist or hold no ``.py`` files."""


def resolve_rules(
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
) -> Tuple[Rule, ...]:
    """The active rule set after ``--select`` / ``--ignore`` filtering."""
    known = set(RULES)
    chosen = list(RULES)
    if select:
        wanted = [code.strip().upper() for code in select if code.strip()]
        unknown = sorted(set(wanted) - known)
        if unknown:
            raise LintUsageError(
                f"unknown rule(s) in --select: {', '.join(unknown)} "
                f"(known: {', '.join(sorted(known))})"
            )
        chosen = [code for code in RULES if code in set(wanted)]
    if ignore:
        dropped = [code.strip().upper() for code in ignore if code.strip()]
        unknown = sorted(set(dropped) - known)
        if unknown:
            raise LintUsageError(
                f"unknown rule(s) in --ignore: {', '.join(unknown)} "
                f"(known: {', '.join(sorted(known))})"
            )
        chosen = [code for code in chosen if code not in set(dropped)]
    return tuple(RULES[code] for code in chosen)


def lint_source(
    source: str,
    path: str = "<string>",
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """Lint one module given as a string.

    ``path`` participates in path-scoped rule logic (DET002's benchmark
    exemption, PERF001's hot-path scope), so fixture tests pass
    synthetic paths like ``"repro/core/fixture.py"`` to opt in.
    Syntax errors are reported as a single ``SYNTAX`` finding rather
    than raised — a linter must survive unparsable input.
    """
    active: Sequence[Rule] = RULES_DEFAULT if rules is None else rules
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [
            Finding(
                rule="SYNTAX",
                message=f"could not parse: {exc.msg}",
                path=path,
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
            )
        ]
    ctx = ModuleContext(path=path, source=source, tree=tree)
    suppressions = parse_suppressions(source)
    findings: List[Finding] = []
    for rule in active:
        for finding in rule.check(ctx):
            if not is_suppressed(finding, suppressions):
                findings.append(finding)
    return sort_findings(findings)


def iter_python_files(paths: Iterable[str]) -> List[Path]:
    """Expand files/directories into a sorted, deduplicated .py list.

    A path that does not exist, or names no ``.py`` file, raises
    :class:`LintUsageError`: a mistyped path must not pass as clean.
    """
    seen: List[Path] = []
    seen_set: Set[str] = set()
    for raw in paths:
        path = Path(raw)
        if not path.exists():
            raise LintUsageError(f"{raw}: no such file or directory")
        if path.is_dir():
            candidates = sorted(path.rglob("*.py"))
        else:
            candidates = [path] if path.suffix == ".py" else []
        candidates = [c for c in candidates if "egg-info" not in str(c)]
        if not candidates:
            raise LintUsageError(f"{raw}: no .py files to lint")
        for candidate in candidates:
            key = str(candidate)
            if key not in seen_set:
                seen_set.add(key)
                seen.append(candidate)
    return seen


def lint_paths(
    paths: Iterable[str],
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """Lint every ``.py`` file under ``paths`` (files or directories)."""
    findings: List[Finding] = []
    for path in iter_python_files(paths):
        source = path.read_text(encoding="utf-8")
        findings.extend(lint_source(source, path=str(path), rules=rules))
    return sort_findings(findings)


#: Default rule set (all registered rules, registration order).
RULES_DEFAULT: Tuple[Rule, ...] = tuple(RULES.values())
