"""Online recommendation serving over frozen score indexes.

The batch pipeline trains models; this package serves them (ROADMAP item 1,
the paper's interactive data-discovery story).  A trained model freezes into
a :class:`~repro.serving.index.ScoreIndex` — two dense factor matrices plus
the train-exclusion CSR, persisted content-addressed through the artifact
store — and requests flow:

    HTTP (server) → pending list, one flush per loop pass → RecommendService → per-row GEMV + masked_select

New users without training history enter through the fold-in path
(:mod:`repro.serving.foldin`): mean-of-item-vectors warm start refined by a
few sparse-row BPR steps against the *frozen* item table, so serving never
mutates shared state.  See DESIGN.md §11.
"""

from repro.serving.cache import LRUCache
from repro.serving.client import ServingClient
from repro.serving.foldin import FoldInConfig, FoldInEngine
from repro.serving.index import ScoreIndex
from repro.serving.server import RecommendServer
from repro.serving.service import RecommendService

__all__ = [
    "FoldInConfig",
    "FoldInEngine",
    "LRUCache",
    "RecommendServer",
    "RecommendService",
    "ScoreIndex",
    "ServingClient",
]
