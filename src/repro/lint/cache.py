"""Incremental result cache for reprolint.

Linting is a pure function of (file content, rule set): the same bytes
checked by the same rules always produce the same findings.  The cache
exploits that — each per-file entry is keyed by the file's content
digest, its tree kind, and a fingerprint of every selected rule's
``(rule_id, version)`` pair, so editing a file or bumping a rule's
``version`` invalidates exactly the entries that could change.

Entries are JSON files under ``<root>/<xx>/<digest>.json`` (two-level
fan-out keeps directories small) and are written atomically via a
temporary file plus :func:`os.replace`, so a killed lint run can never
leave a torn entry behind.  Cached findings are stored
*post-suppression*; replaying them is byte-identical to re-linting.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import astuple
from typing import Iterable, List, Optional, Sequence

from repro.lint.violations import Violation, rule_version

#: Bumped whenever the entry layout itself changes.
CACHE_SCHEMA = 1

#: Default cache directory, relative to the working directory.
DEFAULT_CACHE_DIR = ".reprolint_cache"


def digest_text(text: str) -> str:
    """Content digest used in cache keys (stable across runs)."""
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()


def rules_fingerprint(rules: Iterable[object]) -> str:
    """Digest of a rule set's identity: sorted (rule_id, version) pairs.

    Bumping any rule's ``version`` class attribute changes this
    fingerprint and therefore invalidates every entry it keyed.
    """
    manifest = sorted((rule.rule_id, rule_version(rule)) for rule in rules)
    payload = json.dumps([CACHE_SCHEMA, manifest], separators=(",", ":"))
    return hashlib.blake2b(payload.encode("utf-8"), digest_size=16).hexdigest()


def _violation_to_row(violation: Violation) -> List[object]:
    return list(astuple(violation))


def _row_to_violation(row: Sequence[object]) -> Violation:
    rule, name, path, line, col, message = row
    return Violation(
        rule=str(rule),
        name=str(name),
        path=str(path),
        line=int(line),
        col=int(col),
        message=str(message),
    )


class LintCache:
    """Content-addressed store of per-file lint results."""

    def __init__(self, root: str) -> None:
        self.root = root
        self.hits = 0
        self.misses = 0

    # -- keys -------------------------------------------------------------

    @staticmethod
    def file_key(path: str, text_digest: str, kind: str, fingerprint: str) -> str:
        raw = "\x1f".join(("file", path, text_digest, kind, fingerprint))
        return hashlib.blake2b(raw.encode("utf-8"), digest_size=16).hexdigest()

    # -- storage ----------------------------------------------------------

    def _entry_path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], f"{key}.json")

    def load(self, key: str) -> Optional[List[Violation]]:
        """Cached findings for ``key``, or None on miss/corruption."""
        try:
            with open(self._entry_path(key), "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            self.misses += 1
            return None
        if not isinstance(payload, dict) or payload.get("schema") != CACHE_SCHEMA:
            self.misses += 1
            return None
        try:
            violations = [
                _row_to_violation(row) for row in payload.get("violations", [])
            ]
        except (TypeError, ValueError):
            self.misses += 1
            return None
        self.hits += 1
        return violations

    def store(self, key: str, violations: Sequence[Violation]) -> None:
        """Atomically persist findings under ``key`` (best-effort)."""
        entry_path = self._entry_path(key)
        payload = {
            "schema": CACHE_SCHEMA,
            "violations": [_violation_to_row(v) for v in violations],
        }
        try:
            os.makedirs(os.path.dirname(entry_path), exist_ok=True)
            handle = tempfile.NamedTemporaryFile(
                "w",
                dir=os.path.dirname(entry_path),
                prefix=".tmp-",
                suffix=".json",
                delete=False,
                encoding="utf-8",
            )
            with handle:
                json.dump(payload, handle, separators=(",", ":"))
            os.replace(handle.name, entry_path)
        except OSError:
            # A read-only or full filesystem degrades to uncached linting.
            pass
