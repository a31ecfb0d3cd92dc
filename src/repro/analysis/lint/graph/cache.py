"""Content-addressed cache of per-file lint results.

A lint run's cost is dominated by the per-file stage — parse, lexical rule
walk, module summary; the whole-program analysis over the finished summaries
is cheap.  The cache stores one JSON document mapping each file path to
``{key, result}``, where ``result`` is everything the per-file stage
produced (module summary, suppression map, unsuppressed lexical findings),
so a warm run only hashes file contents and parses nothing.

The key is the SHA-256 of the path-policy fingerprint plus the file bytes:
invalidation is by value, not by mtime (a touched-but-identical file still
hits, a changed file always misses), and a run under another path policy
never reads findings computed under the old one.  Rule selection is applied
after the cache and is not part of the key.  Documents written by a
different :data:`~repro.analysis.lint.graph.summary.SUMMARY_VERSION`, or by
a different version of the lint rules themselves, are discarded wholesale on
load, so neither a summary-shape change nor an edited rule can be misread.
Writes are atomic (tmp file + ``os.replace``) — a crashed run leaves the
previous cache intact, and the worst possible failure mode of a corrupt or
missing cache file is a cold run.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Callable, Dict, Optional

from repro.analysis.lint.graph.summary import SUMMARY_VERSION

__all__ = ["SummaryCache", "DEFAULT_CACHE_NAME", "content_hash"]

#: Default cache file name, created next to the linted tree's cwd.
DEFAULT_CACHE_NAME = ".reprolint-cache.json"

#: ``(source, posix_path) -> result``: the engine's per-file stage.
Stage = Callable[[str, str], dict]


def content_hash(data: bytes) -> str:
    """SHA-256 hex digest of raw bytes — the cache invalidation key."""
    return hashlib.sha256(data).hexdigest()


def _engine_version() -> str:
    """``SUMMARY_VERSION`` plus a digest of the lint package's own sources,
    so editing a rule invalidates results cached by the old rule."""
    root = Path(__file__).resolve().parents[1]
    digest = hashlib.sha256()
    for p in sorted(root.rglob("*.py")):
        digest.update(p.read_bytes())
    return f"{SUMMARY_VERSION}:{digest.hexdigest()}"


class SummaryCache:
    """Load-once / save-once per-file result cache keyed by content hash.

    Usage::

        cache = SummaryCache(Path(".reprolint-cache.json"), policy)
        result = cache.analyze(path, stage)    # run the stage only on miss
        ...
        cache.save()                           # persist for the next run

    A ``path`` of ``None`` disables persistence entirely (every call is a
    miss and ``save()`` is a no-op) — used for cold runs.
    """

    def __init__(self, path: Optional[Path], policy: str = ""):
        self.path = Path(path) if path is not None else None
        self._policy = policy.encode("utf-8") + b"\0"
        self._version = _engine_version() if self.path is not None else ""
        self._entries: Dict[str, dict] = {}
        self._dirty = False
        self.hits = 0
        self.misses = 0
        self._load()

    def _load(self) -> None:
        if self.path is None or not self.path.exists():
            return
        try:
            doc = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return  # corrupt cache == cold run
        if not isinstance(doc, dict) or doc.get("version") != self._version:
            return
        entries = doc.get("entries")
        if isinstance(entries, dict):
            self._entries = entries

    # ------------------------------------------------------------------ api
    def analyze(self, file_path: Path, stage: Stage) -> dict:
        """Return the per-file stage's result for one file, running the
        stage only when the file or the path policy changed."""
        norm = str(file_path).replace("\\", "/")
        data = Path(file_path).read_bytes()
        key = content_hash(self._policy + data)
        entry = self._entries.get(norm)
        if entry is not None and entry.get("key") == key:
            self.hits += 1
            return entry["result"]
        self.misses += 1
        result = stage(data.decode("utf-8"), norm)
        self._entries[norm] = {"key": key, "result": result}
        self._dirty = True
        return result

    def prune(self, keep_paths) -> None:
        """Drop entries for files no longer part of the linted tree."""
        keep = {str(p).replace("\\", "/") for p in keep_paths}
        stale = [p for p in self._entries if p not in keep]
        for p in stale:
            del self._entries[p]
            self._dirty = True

    def save(self) -> None:
        """Atomically persist the entries when this run changed any."""
        if self.path is None or not self._dirty:
            return
        doc = {"version": self._version, "entries": self._entries}
        tmp = self.path.with_name(self.path.name + ".tmp")
        tmp.write_text(
            json.dumps(doc, separators=(",", ":"), sort_keys=True), encoding="utf-8"
        )
        os.replace(tmp, self.path)
        self._dirty = False
