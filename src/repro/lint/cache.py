"""Digest-keyed analysis cache for the lint engine.

Two granularities, both content-addressed:

* **per-file** — module-rule findings for one file, keyed by the file's
  source digest plus the active ruleset signature. Editing one file
  invalidates exactly that file's entry.
* **per-project** — the full deduplicated finding list for a whole run,
  keyed by the combined digest of every ``(path, digest)`` pair plus
  the ruleset signature. A warm run with no file changed is a single
  JSON read; the engine does not even parse the tree.

Cached findings are post-suppression (directives live in the source, so
the digest covers them) and pre-baseline (the baseline is applied at
report time — editing ``lint-baseline.json`` must not need a cache
flush). The ruleset signature folds in :data:`ENGINE_VERSION`; bump it
whenever rule logic changes so stale caches self-invalidate.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.lint.findings import Finding

__all__ = ["AnalysisCache", "ENGINE_VERSION", "ruleset_signature"]

#: Bump to invalidate every cache entry (rule-logic changes).
ENGINE_VERSION = "3"

#: Default cache location (relative to the invocation cwd).
DEFAULT_CACHE_DIR = "results/.cache/lint"


def ruleset_signature(codes: Iterable[str]) -> str:
    """Stable signature of an active rule set (order-insensitive)."""
    payload = ",".join(sorted(codes)) + "|" + ENGINE_VERSION
    return hashlib.sha256(payload.encode("ascii")).hexdigest()[:16]


def _dump(findings: Sequence[Finding]) -> List[dict]:
    return [finding.to_dict() for finding in findings]


def _load(rows: List[dict]) -> List[Finding]:
    return [
        Finding(
            rule=str(row["rule"]),
            message=str(row["message"]),
            path=str(row["path"]),
            line=int(row["line"]),  # type: ignore[call-overload]
            col=int(row["col"]),  # type: ignore[call-overload]
        )
        for row in rows
    ]


class AnalysisCache:
    """Findings cache rooted at one directory; misses never raise."""

    __slots__ = ("root",)

    def __init__(self, root: str = DEFAULT_CACHE_DIR) -> None:
        self.root = Path(root)

    # -- keys ---------------------------------------------------------
    @staticmethod
    def project_key(
        file_digests: Iterable[Tuple[str, str]], signature: str
    ) -> str:
        acc = hashlib.sha256()
        for path, digest in sorted(file_digests):
            acc.update(path.encode("utf-8"))
            acc.update(digest.encode("ascii"))
        acc.update(signature.encode("ascii"))
        return acc.hexdigest()

    # -- per-file -----------------------------------------------------
    def get_file(self, digest: str, signature: str) -> Optional[List[Finding]]:
        return self._read(self.root / f"file-{digest[:32]}-{signature}.json")

    def put_file(
        self, digest: str, signature: str, findings: Sequence[Finding]
    ) -> None:
        self._write(
            self.root / f"file-{digest[:32]}-{signature}.json", findings
        )

    # -- per-project --------------------------------------------------
    def get_project(self, key: str) -> Optional[List[Finding]]:
        return self._read(self.root / f"project-{key[:32]}.json")

    def put_project(self, key: str, findings: Sequence[Finding]) -> None:
        self._write(self.root / f"project-{key[:32]}.json", findings)

    # -- IO (failure == miss) -----------------------------------------
    def _read(self, path: Path) -> Optional[List[Finding]]:
        try:
            rows = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        try:
            return _load(rows)
        except (KeyError, TypeError, ValueError):
            return None

    def _write(self, path: Path, findings: Sequence[Finding]) -> None:
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(
                json.dumps(_dump(findings), sort_keys=True), encoding="utf-8"
            )
        except OSError:
            pass  # read-only checkout: run uncached
