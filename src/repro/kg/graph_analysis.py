"""Structural analysis of the collaborative knowledge graph.

Section II-C argues that "capturing high-order connectivity is essential":
related data objects can sit several hops apart in the CKG.  This module
quantifies that claim on our graphs:

- :func:`connectivity_summary` — connected components and degree
  statistics;
- :func:`hop_reachability` — how many items a user can reach within k hops
  (the quantity that decides whether depth-L propagation has anything to
  propagate);
- :func:`item_distance_histogram` — pairwise item BFS distances, the
  direct measurement behind "two related data objects may be far from each
  other in the graph".
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from repro.kg.adjacency import CSRAdjacency
from repro.kg.ckg import CollaborativeKnowledgeGraph
from repro.utils.rng import ensure_rng

__all__ = [
    "connectivity_summary",
    "hop_reachability",
    "item_distance_histogram",
]


def connectivity_summary(ckg: CollaborativeKnowledgeGraph) -> Dict[str, float]:
    """Key structural statistics of the undirected CKG.

    The canonical triples are read as a simple undirected graph: parallel
    and reversed triples are one edge, a self-loop adds 2 to its node's
    degree, and an entity with no edge is a component of its own.
    """
    # Imported here: scipy.sparse.csgraph loads scipy.linalg, ~0.15 s that
    # every importer of repro.kg would otherwise pay.
    from scipy.sparse.csgraph import connected_components

    num_nodes = ckg.num_entities
    heads, tails = ckg.store.heads, ckg.store.tails
    pairs = np.unique(
        np.stack([np.minimum(heads, tails), np.maximum(heads, tails)], axis=1), axis=0
    )
    lo, hi = pairs[:, 0], pairs[:, 1]
    degrees = (
        np.bincount(lo, minlength=num_nodes) + np.bincount(hi, minlength=num_nodes)
    ).astype(np.float64)
    adjacency = sp.csr_matrix(
        (np.ones(len(pairs)), (lo, hi)), shape=(num_nodes, num_nodes)
    )
    num_components, labels = connected_components(adjacency, directed=False)
    giant = int(np.bincount(labels).max()) if num_nodes else 0
    return {
        "num_nodes": float(num_nodes),
        "num_edges": float(len(pairs)),
        "num_components": float(num_components),
        "giant_component_fraction": giant / max(num_nodes, 1),
        "mean_degree": float(degrees.mean()) if degrees.size else 0.0,
        "max_degree": float(degrees.max()) if degrees.size else 0.0,
        "isolated_nodes": float((degrees == 0).sum()),
    }


def hop_reachability(
    ckg: CollaborativeKnowledgeGraph,
    users: Optional[Sequence[int]] = None,
    max_hops: int = 3,
    sample: int = 50,
    seed=0,
) -> Dict[int, float]:
    """Mean fraction of the item catalog reachable from a user within k hops.

    For each hop count k = 1..max_hops, BFS over the inverse-augmented graph
    from (a sample of) user entities and measure what share of items lies
    within distance k.  Depth-L propagation can only carry signal between a
    user and the items inside this frontier — the paper's justification for
    stacking layers, quantified.
    """
    if max_hops <= 0:
        raise ValueError(f"max_hops must be positive, got {max_hops}")
    rng = ensure_rng(seed)
    adj = CSRAdjacency(ckg.propagation_store)
    user_entities = ckg.all_user_entities()
    if users is not None:
        starts = ckg.user_entity_ids(np.asarray(users, dtype=np.int64))
    elif len(user_entities) > sample:
        starts = rng.choice(user_entities, size=sample, replace=False)
    else:
        starts = user_entities
    item_off, item_size = ckg.space.block("item")
    fractions = {k: [] for k in range(1, max_hops + 1)}
    for start in starts:
        distances = _bfs_distances(adj, int(start), max_hops)
        for k in range(1, max_hops + 1):
            in_k = np.flatnonzero((distances >= 0) & (distances <= k))
            items_in_k = ((in_k >= item_off) & (in_k < item_off + item_size)).sum()
            fractions[k].append(items_in_k / max(item_size, 1))
    return {k: float(np.mean(v)) for k, v in fractions.items()}


def item_distance_histogram(
    ckg: CollaborativeKnowledgeGraph,
    num_pairs: int = 200,
    max_hops: int = 6,
    seed=0,
) -> Dict[str, float]:
    """BFS distance distribution between random item pairs.

    Returns mean/median distance over connected pairs plus the fraction of
    pairs farther than 2 hops — items that first-order methods cannot relate
    but depth-3 propagation can.
    """
    if num_pairs <= 0:
        raise ValueError(f"num_pairs must be positive, got {num_pairs}")
    rng = ensure_rng(seed)
    adj = CSRAdjacency(ckg.propagation_store)
    items = ckg.all_item_entities()
    distances = []
    for _ in range(num_pairs):
        a, b = rng.choice(items, size=2, replace=False)
        d = _bfs_distances(adj, int(a), max_hops)
        db = d[int(b)]
        distances.append(int(db) if db >= 0 else max_hops + 1)
    arr = np.array(distances, dtype=np.float64)
    connected = arr[arr <= max_hops]
    return {
        "mean_distance": float(connected.mean()) if connected.size else float("inf"),
        "median_distance": float(np.median(connected)) if connected.size else float("inf"),
        "fraction_beyond_2_hops": float((arr > 2).mean()),
        "fraction_unreachable": float((arr > max_hops).mean()),
    }


def _bfs_distances(adj: CSRAdjacency, start: int, max_hops: int) -> np.ndarray:
    """Vectorized frontier BFS; -1 marks nodes beyond ``max_hops``."""
    distances = np.full(adj.num_entities, -1, dtype=np.int64)
    distances[start] = 0
    frontier = np.array([start], dtype=np.int64)
    for depth in range(1, max_hops + 1):
        if frontier.size == 0:
            break
        # Gather all neighbors of the frontier in one slice-concatenate.
        spans = [
            adj.tails[adj.offsets[v] : adj.offsets[v + 1]] for v in frontier
        ]
        neighbors = np.unique(np.concatenate(spans)) if spans else np.zeros(0, dtype=np.int64)
        fresh = neighbors[distances[neighbors] < 0]
        distances[fresh] = depth
        frontier = fresh
    return distances
