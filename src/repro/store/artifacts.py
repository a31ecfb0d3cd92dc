"""Content-addressed artifact store: fingerprints, atomic writes, mmap reads.

Key design decisions (see DESIGN.md §9):

- **Fingerprints hash the builder config, not the array contents.**  Every
  stage output is a pure function of its configuration (seeds included), so
  hashing the canonical-JSON config is enough to identify the payload — and
  it lets a consumer decide *before building anything* whether the artifact
  exists.  Hashing contents would require producing the contents first,
  which is exactly the work the cache exists to skip.
- **Artifacts are directories** of one ``meta.json`` plus one uncompressed
  ``.npy`` file per array.  Uncompressed ``.npy`` is the only numpy
  container that memory-maps, so a warm load costs page-cache faults, not
  a parse; the zip-based ``.npz`` containers cannot mmap.
- **Writes are atomic**: the directory is populated under ``tmp/`` and
  ``os.replace``-renamed into place.  A crash mid-write leaves only a stray
  tmp directory (reaped by ``gc``); readers never observe a half-written
  artifact.  When two writers race, the loser's rename fails (the target
  exists), it discards its build and adopts the winner's — which is
  content-identical by construction.
- **Loads verify**: every file's sha256 is checked against ``meta.json``
  before any array is handed out.  A truncated, corrupted, or foreign entry
  is evicted and reported as a miss — the caller rebuilds; it never crashes
  and never silently consumes bad bytes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib
import shutil
import time
import uuid
from typing import Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

__all__ = [
    "Artifact",
    "ArtifactStore",
    "canonical_json",
    "fingerprint",
    "resolve_cache_dir",
]

PathLike = Union[str, pathlib.Path]

_FORMAT = "repro.artifact"
_FORMAT_VERSION = 1
_META_NAME = "meta.json"
_ENV_CACHE_DIR = "REPRO_CACHE_DIR"
#: Directory-name prefix length of the sha256 hex digest.  20 hex chars =
#: 80 bits — collision-free for any plausible artifact population; the full
#: digest is stored in ``meta.json`` and checked on load.
_DIGEST_PREFIX = 20


def _jsonify(obj):
    """Recursively normalize ``obj`` into canonical-JSON-compatible values."""
    if isinstance(obj, dict):
        out = {}
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"config keys must be strings, got {key!r}")
            out[key] = _jsonify(value)
        return out
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _jsonify(dataclasses.asdict(obj))
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        if not np.isfinite(obj):
            raise ValueError(f"non-finite float {obj!r} cannot enter a fingerprint")
        return obj
    raise TypeError(f"config value {obj!r} ({type(obj).__name__}) is not fingerprintable")


def canonical_json(obj) -> str:
    """Serialize ``obj`` to canonical JSON (sorted keys, compact, no NaN).

    Two configs that compare equal always serialize to the same bytes, so
    the fingerprint is stable across processes, dict orderings, and
    tuple-vs-list spellings.
    """
    return json.dumps(_jsonify(obj), sort_keys=True, separators=(",", ":"), allow_nan=False)


def fingerprint(kind: str, config: dict, schema_version: int) -> str:
    """sha256 hex digest identifying one artifact.

    The digest covers the artifact ``kind``, its ``schema_version`` (bumped
    whenever the payload layout changes — the staleness/invalidation rule),
    and the canonical-JSON builder config.  Upstream-stage digests are
    embedded in downstream configs, so the key space forms a Merkle chain:
    changing any ancestor's config re-keys every descendant.
    """
    payload = canonical_json(
        {"kind": kind, "schema_version": int(schema_version), "config": config}
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def resolve_cache_dir(explicit: Optional[PathLike] = None) -> Optional[pathlib.Path]:
    """Resolve the cache directory: explicit value, else ``$REPRO_CACHE_DIR``.

    Returns ``None`` when neither is set — caching is strictly opt-in; no
    command writes a cache the user did not ask for.
    """
    if explicit is not None:
        return pathlib.Path(explicit)
    env = os.environ.get(_ENV_CACHE_DIR, "").strip()
    return pathlib.Path(env) if env else None


def _sha256_file(path: pathlib.Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


@dataclasses.dataclass(frozen=True)
class ArtifactInfo:
    """One ``ls`` row: identity, location and footprint of a stored artifact."""

    kind: str
    digest: str
    path: pathlib.Path
    nbytes: int
    created: float
    config: dict


class Artifact:
    """A verified artifact directory; arrays are served memory-mapped."""

    def __init__(self, path: pathlib.Path, meta: dict):
        self.path = path
        self._meta = meta

    @property
    def kind(self) -> str:
        return self._meta["kind"]

    @property
    def digest(self) -> str:
        return self._meta["digest"]

    @property
    def config(self) -> dict:
        return self._meta["config"]

    @property
    def meta(self) -> dict:
        """The builder's extra (non-array) payload."""
        return self._meta["meta"]

    def array_names(self) -> List[str]:
        return sorted(self._meta["files"])

    def array(self, name: str) -> np.ndarray:
        """Memory-map one array (read-only).

        The mapping is lazy per call; fancy indexing by any consumer copies
        out of the map, so downstream mutation can never corrupt the store.
        """
        if name not in self._meta["files"]:
            raise KeyError(f"artifact {self.kind}/{self.digest[:12]} has no array {name!r}")
        return np.load(self.path / f"{name}.npy", mmap_mode="r", allow_pickle=False)

    def __repr__(self) -> str:
        return f"Artifact({self.kind}, {self.digest[:12]}, {len(self._meta['files'])} arrays)"


class ArtifactStore:
    """Content-addressed directory of build artifacts.

    Layout::

        <root>/objects/<kind>-<digest20>/meta.json
        <root>/objects/<kind>-<digest20>/<array>.npy
        <root>/tmp/<pid>-<uuid>/            (in-flight writes; reaped by gc)

    The store never raises on corrupt entries: a failed verification evicts
    the entry and reports a miss, so the worst case is a rebuild.  Counters
    (``hits``/``misses``/``builds``/``evictions``) make cache behavior
    observable to telemetry and tests.
    """

    def __init__(self, root: PathLike):
        self.root = pathlib.Path(root)
        self.objects_dir = self.root / "objects"
        self.tmp_dir = self.root / "tmp"
        self.hits = 0
        self.misses = 0
        self.builds = 0
        self.evictions = 0

    # ----------------------------------------------------------------- paths
    def _entry_name(self, kind: str, digest: str) -> str:
        return f"{kind}-{digest[:_DIGEST_PREFIX]}"

    def entry_path(self, kind: str, config: dict, schema_version: int) -> pathlib.Path:
        """On-disk directory an artifact with this identity would occupy."""
        digest = fingerprint(kind, config, schema_version)
        return self.objects_dir / self._entry_name(kind, digest)

    # ------------------------------------------------------------------ read
    def get(self, kind: str, config: dict, schema_version: int) -> Optional[Artifact]:
        """Load and verify an artifact; ``None`` on miss or corruption."""
        digest = fingerprint(kind, config, schema_version)
        path = self.objects_dir / self._entry_name(kind, digest)
        artifact = self._load_verified(path, expect_digest=digest)
        if artifact is None:
            self.misses += 1
        else:
            self.hits += 1
        return artifact

    def _load_verified(
        self, path: pathlib.Path, expect_digest: Optional[str] = None
    ) -> Optional[Artifact]:
        if not path.is_dir():
            return None
        try:
            meta = json.loads((path / _META_NAME).read_text(encoding="utf-8"))
            if meta.get("format") != _FORMAT or meta.get("format_version") != _FORMAT_VERSION:
                raise ValueError("foreign or incompatible artifact format")
            if expect_digest is not None and meta.get("digest") != expect_digest:
                raise ValueError("digest mismatch between directory name and meta.json")
            for name, entry in meta["files"].items():
                file_path = path / f"{name}.npy"
                if not file_path.is_file():
                    raise ValueError(f"missing array file {name}.npy")
                if file_path.stat().st_size != int(entry["bytes"]):
                    raise ValueError(f"size mismatch for {name}.npy")
                if _sha256_file(file_path) != entry["sha256"]:
                    raise ValueError(f"sha256 mismatch for {name}.npy")
            return Artifact(path, meta)
        except (OSError, ValueError, KeyError, TypeError, json.JSONDecodeError):
            # Truncated, corrupted, or foreign entry: evict so the slot can
            # be rebuilt; the caller sees a plain miss, never an exception.
            self._evict(path)
            return None

    def _evict(self, path: pathlib.Path) -> None:
        shutil.rmtree(path, ignore_errors=True)
        self.evictions += 1

    # ----------------------------------------------------------------- write
    def put(
        self,
        kind: str,
        config: dict,
        schema_version: int,
        arrays: Dict[str, np.ndarray],
        meta: Optional[dict] = None,
    ) -> Artifact:
        """Atomically persist ``arrays`` + ``meta`` under the config's key."""
        digest = fingerprint(kind, config, schema_version)
        final = self.objects_dir / self._entry_name(kind, digest)
        self.objects_dir.mkdir(parents=True, exist_ok=True)
        self.tmp_dir.mkdir(parents=True, exist_ok=True)
        tmp = self.tmp_dir / f"{os.getpid()}-{uuid.uuid4().hex}"
        tmp.mkdir()
        try:
            files: Dict[str, dict] = {}
            for name, array in arrays.items():
                if "/" in name or name in ("", _META_NAME):
                    raise ValueError(f"invalid array name {name!r}")
                array = np.ascontiguousarray(array)
                if array.dtype == object:
                    raise TypeError(f"array {name!r} has object dtype; not storable")
                file_path = tmp / f"{name}.npy"
                np.save(file_path, array, allow_pickle=False)
                files[name] = {
                    "sha256": _sha256_file(file_path),
                    "bytes": file_path.stat().st_size,
                }
            record = {
                "format": _FORMAT,
                "format_version": _FORMAT_VERSION,
                "kind": kind,
                "schema_version": int(schema_version),
                "digest": digest,
                "config": _jsonify(config),
                "created_unix": time.time(),
                "files": files,
                "meta": _jsonify(meta or {}),
            }
            (tmp / _META_NAME).write_text(
                json.dumps(record, sort_keys=True, indent=1), encoding="utf-8"
            )
            try:
                os.replace(tmp, final)
            except OSError:
                # A concurrent writer renamed first (the target directory is
                # non-empty).  Both builds are pure functions of the same
                # config, so adopt the winner's copy; if theirs turns out
                # corrupt, evict it and take one more swing.
                shutil.rmtree(tmp, ignore_errors=True)
                existing = self._load_verified(final, expect_digest=digest)
                if existing is not None:
                    return existing
                return self.put(kind, config, schema_version, arrays, meta)
            return Artifact(final, record)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    # ------------------------------------------------------------ management
    def ls(self, kinds: Optional[Iterable[str]] = None) -> List[ArtifactInfo]:
        """Enumerate verified artifacts, newest first."""
        wanted = set(kinds) if kinds is not None else None
        rows: List[ArtifactInfo] = []
        if not self.objects_dir.is_dir():
            return rows
        for path in sorted(self.objects_dir.iterdir()):
            artifact = self._load_verified(path)
            if artifact is None:
                continue
            if wanted is not None and artifact.kind not in wanted:
                continue
            nbytes = sum(f.stat().st_size for f in path.iterdir() if f.is_file())
            rows.append(
                ArtifactInfo(
                    kind=artifact.kind,
                    digest=artifact.digest,
                    path=path,
                    nbytes=nbytes,
                    created=float(artifact._meta.get("created_unix", 0.0)),
                    config=artifact.config,
                )
            )
        rows.sort(key=lambda r: r.created, reverse=True)
        return rows

    def gc(self, kinds: Optional[Iterable[str]] = None) -> Tuple[int, int]:
        """Remove artifacts (all, or only the named kinds) and stray tmp dirs.

        Returns ``(entries_removed, bytes_reclaimed)``.  Stray tmp
        directories — abandoned by crashed writers — are always reaped.
        """
        removed = 0
        reclaimed = 0
        wanted = set(kinds) if kinds is not None else None
        if self.objects_dir.is_dir():
            for path in list(self.objects_dir.iterdir()):
                if wanted is not None:
                    artifact = self._load_verified(path)
                    if artifact is not None and artifact.kind not in wanted:
                        continue
                reclaimed += sum(f.stat().st_size for f in path.rglob("*") if f.is_file())
                shutil.rmtree(path, ignore_errors=True)
                removed += 1
        if self.tmp_dir.is_dir():
            for path in list(self.tmp_dir.iterdir()):
                reclaimed += sum(f.stat().st_size for f in path.rglob("*") if f.is_file())
                shutil.rmtree(path, ignore_errors=True)
        return removed, reclaimed

    def stats(self) -> Dict[str, int]:
        """Hit/miss/build/eviction counters for telemetry."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "builds": self.builds,
            "evictions": self.evictions,
        }

    def __repr__(self) -> str:
        return f"ArtifactStore({self.root})"
