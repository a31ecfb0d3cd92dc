"""Trace analysis (Section III): the measurements behind Figures 3–5.

- :mod:`~repro.analysis.distributions` — per-user query distribution curves
  (Fig 3: queried objects, instrument locations, data types);
- :mod:`~repro.analysis.tsne` — exact-gradient t-SNE in NumPy and the
  Fig-4 per-organization embedding of heavy users' queried objects;
- :mod:`~repro.analysis.locality` — the Fig-5 paired-user study (same-city
  vs random pairs) and the Section III-B2 query-concentration statistics.

The subpackage also hosts the reproduction's self-analysis tooling:

- :mod:`~repro.analysis.lint` — reprolint, the project-aware static analyzer
  (``repro lint``);
- :mod:`~repro.analysis.sanitizer` — the runtime numeric sanitizer
  (``REPRO_SANITIZE=1`` / ``repro sanitize-run``).
"""

from repro.analysis.distributions import UserQueryDistributions, compute_distributions
from repro.analysis.sanitizer import SanitizerError, sanitized
from repro.analysis.locality import (
    PairStudyResult,
    pair_similarity_study,
    query_concentration,
)
from repro.analysis.tsne import TSNE, object_feature_matrix, tsne_embed_user_queries

__all__ = [
    "UserQueryDistributions",
    "compute_distributions",
    "query_concentration",
    "pair_similarity_study",
    "PairStudyResult",
    "TSNE",
    "object_feature_matrix",
    "tsne_embed_user_queries",
    "SanitizerError",
    "sanitized",
]
