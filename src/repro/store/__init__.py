"""Content-addressed on-disk artifact store.

The build pipeline (:mod:`repro.pipeline`) is a strict DAG — query traces →
collaborative knowledge graph → train/test split → prepared graph — and every
stage output is a pure function of its builder configuration.  This package
stores those outputs on disk keyed by a sha256 fingerprint of the
canonical-JSON builder config plus a schema version, so a warm run can skip
every regeneration and memory-map the arrays instead.

Persistence discipline: all ``np.save``/``np.load`` traffic in the project
funnels through :mod:`repro.io` and this package (enforced by reprolint
RPL009), so atomicity and hash-verification audits have one place to look.
"""

from repro.store.artifacts import (
    Artifact,
    ArtifactStore,
    canonical_json,
    fingerprint,
    resolve_cache_dir,
)

__all__ = [
    "Artifact",
    "ArtifactStore",
    "canonical_json",
    "fingerprint",
    "resolve_cache_dir",
]
