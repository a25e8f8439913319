"""``repro.lint`` — per-file determinism & scheduler-invariant analysis.

The repo's headline guarantees (bit-identical campaign shards across
``--jobs N``, byte-identical trace equivalence, Theorem-1 fairness
bounds) rest on source-level disciplines — seeded RNG streams,
deterministic tie-breaking, exact virtual-time tag arithmetic — that
runtime monitors only catch *after* a violation has corrupted a result.
This package enforces them statically, before a simulation runs:

>>> from repro.lint import lint_source
>>> findings = lint_source("import random\\nx = random.random()\\n")
>>> [f.rule for f in findings]
['DET001']

Every rule is a module rule (:mod:`repro.lint.rules`): it sees one
file's AST at a time. Defects that only show across calls or files
(tag arithmetic drifting from :mod:`repro.core.tagmath`, wall-clock or
hash-order values reaching the schedule) are caught at runtime by the
trace-equivalence, campaign ``--jobs`` and hash-seed tests instead.

Entry points: ``python -m repro lint [paths]`` (CI gate),
:func:`lint_source` / :func:`lint_paths` (programmatic), and the
registry in :mod:`repro.lint.rules` for adding checks. See HACKING.md,
chapter "Static analysis", for the rule catalog and suppression syntax.
"""

from repro.lint.analyzer import (
    LintUsageError,
    iter_python_files,
    lint_paths,
    lint_source,
    resolve_rules,
)
from repro.lint.findings import Finding, parse_suppressions, sort_findings
from repro.lint.rules import RULES, ModuleContext, Rule, all_rule_codes, register

__all__ = [
    "Finding",
    "LintUsageError",
    "ModuleContext",
    "RULES",
    "Rule",
    "all_rule_codes",
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "parse_suppressions",
    "register",
    "resolve_rules",
    "sort_findings",
]
