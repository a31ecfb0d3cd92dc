"""Sharded propagation: shard-local compute + additive combine.

The key observation making CKAT's propagation parallelizable (the paper's
future-work note) is that Eq. 3's neighborhood sum is *additive over edges*:

    e_Nh = Σ_{edges of h} w_e · e_tail

so any edge partition can compute shard-local partial sums independently and
a final elementwise add (an all-reduce in the distributed setting) restores
the monolithic result.  Each shard's partial is the same fused kernel the
monolithic propagation runs (:func:`repro.kernels.numpy_backend.weighted_neighbor_sum`)
over that shard's head-sorted edges; tests assert equality with the
monolithic path, and the A2 bench measures how partition strategy affects
the replication factor (the proxy for communication volume).
"""

from __future__ import annotations

import numpy as np

from repro.kernels import numpy_backend
from repro.parallel.partition import EdgePartition

__all__ = ["sharded_segment_sum"]


def sharded_segment_sum(
    heads: np.ndarray,
    tails: np.ndarray,
    weights: np.ndarray,
    embeddings: np.ndarray,
    partition: EdgePartition,
) -> np.ndarray:
    """Weighted neighbor sums computed shard-by-shard then combined.

    Equivalent to ``Σ_e w_e · emb[tail_e]`` grouped by head — the inner
    reduction of CKAT Eq. 3 — but with each shard contributing a partial
    (num_entities, d) buffer that is summed at the end.  Every edge must
    belong to exactly one shard: a partition that does not cover ``heads``
    or names a shard outside ``[0, num_shards)`` is rejected.
    """
    if not (len(heads) == len(tails) == len(weights)):
        raise ValueError("heads, tails and weights must have equal length")
    shard_of_edge = np.asarray(partition.shard_of_edge)
    if len(shard_of_edge) != len(heads):
        raise ValueError(
            f"partition assigns {len(shard_of_edge)} edges, graph has {len(heads)}"
        )
    if len(shard_of_edge) and (
        shard_of_edge.min() < 0 or shard_of_edge.max() >= partition.num_shards
    ):
        raise ValueError(f"partition names a shard outside [0, {partition.num_shards})")
    num_entities = embeddings.shape[0]
    total = np.zeros((num_entities, embeddings.shape[1]), dtype=np.float64)
    for shard in range(partition.num_shards):
        idx = partition.edge_indices(shard)
        order = idx[np.argsort(heads[idx], kind="stable")]
        offsets = np.zeros(num_entities + 1, dtype=np.int64)
        np.cumsum(np.bincount(heads[order], minlength=num_entities), out=offsets[1:])
        total += numpy_backend.weighted_neighbor_sum(
            embeddings, weights[order], tails[order], offsets
        )
    return total
