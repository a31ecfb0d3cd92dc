"""CSR edge layout and neighbor sampling for graph models.

CKAT's propagation layer needs, for every entity, the set of triples in
which it is the head (``N_h`` in Eq. 3).  :class:`CSRAdjacency` sorts the
edge arrays by head once and exposes ``offsets`` delimiting each head's
contiguous segment — exactly the layout
:func:`repro.autograd.functional.segment_softmax` consumes, so attention
normalization is two ``reduceat`` calls instead of a Python loop.

KGCN and RippleNet instead sample *fixed-size* neighborhoods;
:func:`sample_fixed_neighbors` materializes an (num_entities, k) neighbor
table with replacement, padding isolated entities with a self-loop
sentinel.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple, Union

import numpy as np

from repro.kg.triples import TripleStore
from repro.utils.rng import ensure_rng

__all__ = ["AttentionGradGroups", "CSRAdjacency", "sample_fixed_neighbors"]


class AttentionGradGroups(NamedTuple):
    """Cached run structure for the fused attention kernels.

    A *head run* is the set of edges sharing one (head, relation) pair and a
    *tail run* those sharing one (tail, relation) pair; the kernels compute
    one row per run instead of one per edge.  Runs are numbered relation by
    relation, by entity within a relation.  Per-edge arrays are in
    **relation-grouped** edge order (the order the fused kernels compute
    in), where every head run is contiguous (the relation grouping is a
    stable sort of the CSR head-sorted edges):

    - ``head_offsets`` (length ``num_head_runs + 1``) delimits the head runs;
      ``head_run``/``tail_run`` name each edge's runs.
    - ``head_rows``/``tail_rows`` name each run's entity, and
      ``head_bounds``/``tail_bounds`` (length ``num_relations + 1``) slice
      the runs per relation.
    - ``perm``/``offsets``/``rows`` coalesce the concatenated ``(head_rows,
      tail_rows)`` partials to the sorted unique touched entities.
    """

    head_offsets: np.ndarray
    head_run: np.ndarray
    head_rows: np.ndarray
    head_bounds: np.ndarray
    tail_run: np.ndarray
    tail_rows: np.ndarray
    tail_bounds: np.ndarray
    perm: np.ndarray
    offsets: np.ndarray
    rows: np.ndarray


class CSRAdjacency:
    """Edges sorted by head entity with per-head segment offsets.

    Attributes
    ----------
    heads, rels, tails:
        int64 edge arrays sorted by ``heads`` (stable, so relative edge
        order within a head is deterministic).
    offsets:
        int64 array of length ``num_entities + 1``; the edges of entity
        ``h`` are ``slice(offsets[h], offsets[h+1])``.
    """

    def __init__(self, store: TripleStore):
        order = np.argsort(store.heads, kind="stable")
        self._init_from_sorted(
            store.heads[order],
            store.rels[order],
            store.tails[order],
            store.num_entities,
            store.num_relations,
        )

    def _init_from_sorted(self, heads, rels, tails, num_entities, num_relations) -> None:
        self.heads = heads
        self.rels = rels
        self.tails = tails
        self.num_entities = num_entities
        self.num_relations = num_relations
        counts = np.bincount(self.heads, minlength=self.num_entities)
        self.offsets = np.zeros(self.num_entities + 1, dtype=np.int64)
        np.cumsum(counts, out=self.offsets[1:])
        # Per-edge head index replicated for segment ops that need it.
        self.edge_head = self.heads  # alias; already sorted by head
        self._relation_groups: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._relation_scatter: Optional[np.ndarray] = None
        self._attention_grad_groups: Optional[AttentionGradGroups] = None
        self._tail_rows: Optional[np.ndarray] = None

    @classmethod
    def from_arrays(
        cls,
        heads: np.ndarray,
        rels: np.ndarray,
        tails: np.ndarray,
        num_entities: int,
        num_relations: int,
        relation_groups: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> "CSRAdjacency":
        """Rehydrate an adjacency from already-head-sorted edge arrays.

        This is the artifact-store load path: the arrays come straight from
        a :class:`~repro.store.ArtifactStore` memory map, so construction
        must not re-sort (the stored order *is* the canonical order — a
        re-sort could only agree, and would force a copy of every page).
        ``relation_groups`` optionally pre-seeds the
        :meth:`relation_edge_groups` cache with stored arrays.
        """
        if not (len(heads) == len(rels) == len(tails)):
            raise ValueError("edge arrays must have equal length")
        if len(heads) and np.any(np.diff(heads) < 0):
            raise ValueError("heads must be sorted ascending")
        self = cls.__new__(cls)
        self._init_from_sorted(heads, rels, tails, int(num_entities), int(num_relations))
        if relation_groups is not None:
            order, bounds = relation_groups
            self._relation_groups = (order, bounds)
        return self

    @property
    def num_edges(self) -> int:
        return len(self.heads)

    def degree(self) -> np.ndarray:
        """Out-degree per entity."""
        return np.diff(self.offsets)

    def neighbors_of(self, entity: int) -> Tuple[np.ndarray, np.ndarray]:
        """(relations, tails) of the triples headed at ``entity``."""
        lo, hi = self.offsets[entity], self.offsets[entity + 1]
        return self.rels[lo:hi], self.tails[lo:hi]

    def relation_edge_groups(self) -> Tuple[np.ndarray, np.ndarray]:
        """Edge indices grouped by relation.

        Returns ``(order, bounds)`` where ``order`` permutes edges so equal
        relations are contiguous and ``bounds`` (length num_relations+1)
        delimits each relation's block.  CKAT applies the per-relation
        transform ``W_r`` with one batched matmul per relation using this
        grouping.

        The grouping is a pure function of the edge arrays (stable argsort),
        so it is deterministic across processes and cached after the first
        call — every consumer of a shared adjacency sees the same arrays.
        """
        if self._relation_groups is None:
            order = np.argsort(self.rels, kind="stable")
            counts = np.bincount(self.rels, minlength=self.num_relations)
            bounds = np.zeros(self.num_relations + 1, dtype=np.int64)
            np.cumsum(counts, out=bounds[1:])
            self._relation_groups = (order, bounds)
        return self._relation_groups

    def relation_scatter_index(self) -> np.ndarray:
        """Inverse of the :meth:`relation_edge_groups` permutation.

        ``inverse[order] == arange(num_edges)``: a vector computed in
        relation-grouped order scatters back to head-sorted edge order with
        one fancy index.  The graph is static across training, so this O(E)
        array is derived once and cached (it used to be rebuilt on every
        attention forward).
        """
        if self._relation_scatter is None:
            order, _ = self.relation_edge_groups()
            inverse = np.empty(self.num_edges, dtype=np.int64)
            inverse[order] = np.arange(self.num_edges, dtype=np.int64)
            self._relation_scatter = inverse
        return self._relation_scatter

    def warm_kernel_caches(self) -> "CSRAdjacency":
        """Materialize every derived layout the fused kernels read.

        All four caches are pure functions of the edge arrays; warming them
        at graph-preparation time moves the one-off sorts out of the first
        training step and lets every consumer of a shared adjacency hit the
        same arrays.  Returns ``self`` for chaining.
        """
        self.relation_edge_groups()
        self.relation_scatter_index()
        self.attention_grad_groups()
        self.tail_rows()
        return self

    def tail_rows(self) -> np.ndarray:
        """Sorted unique tail entities, cached.

        The rows with an incoming edge: the row set of the propagation's
        sparse embedding gradient (``weighted_neighbor_sum``'s backward),
        which is the same on every step.
        """
        if self._tail_rows is None:
            self._tail_rows = np.flatnonzero(
                np.bincount(self.tails, minlength=self.num_entities)
            )
        return self._tail_rows

    def attention_grad_groups(self) -> "AttentionGradGroups":
        """Run structure of the fused attention kernels, cached.

        ``tanh(W_r e_h + e_r)`` depends only on the (head, relation) pair
        and ``W_r e_t`` only on the (tail, relation) pair, so the forward
        computes one row per run and the backward reduces the score
        gradients to those rows with two CSR products (see DESIGN.md §10).
        Both runs are the unique ``(relation, entity)`` keys of the
        relation-grouped edges: sorted by relation, then entity, so head runs
        stay in edge order and the numbering is deterministic.  The coalesce
        arrays fold the per-run partials down to ``rows`` — the sorted unique
        touched entities, the exact row set the per-op oracle's sparse
        gradient touches.
        """
        if self._attention_grad_groups is None:
            order, bounds = self.relation_edge_groups()
            n = max(self.num_entities, 1)
            rels_r = np.repeat(
                np.arange(self.num_relations, dtype=np.int64), np.diff(bounds)
            )
            head_keys, head_run = np.unique(
                rels_r * n + self.heads[order], return_inverse=True
            )
            tail_keys, tail_run = np.unique(
                rels_r * n + self.tails[order], return_inverse=True
            )
            head_offsets = np.zeros(len(head_keys) + 1, dtype=np.int64)
            np.cumsum(np.bincount(head_run, minlength=len(head_keys)), out=head_offsets[1:])
            head_rows = head_keys % n
            tail_rows = tail_keys % n
            partial_rows = np.concatenate([head_rows, tail_rows])
            perm = np.argsort(partial_rows, kind="stable")
            sorted_rows = partial_rows[perm]
            starts = np.flatnonzero(np.diff(sorted_rows, prepend=-1))
            self._attention_grad_groups = AttentionGradGroups(
                head_offsets=head_offsets,
                head_run=head_run.astype(np.int64, copy=False),
                head_rows=head_rows,
                head_bounds=_run_bounds(head_keys // n, self.num_relations),
                tail_run=tail_run.astype(np.int64, copy=False),
                tail_rows=tail_rows,
                tail_bounds=_run_bounds(tail_keys // n, self.num_relations),
                perm=perm,
                offsets=np.r_[starts, partial_rows.size].astype(np.int64),
                rows=sorted_rows[starts],
            )
        return self._attention_grad_groups


def _run_bounds(run_relations: np.ndarray, num_relations: int) -> np.ndarray:
    """Per-relation slice bounds (length ``num_relations + 1``) over sorted runs."""
    bounds = np.zeros(num_relations + 1, dtype=np.int64)
    np.cumsum(np.bincount(run_relations, minlength=num_relations), out=bounds[1:])
    return bounds


def sample_fixed_neighbors(
    store: Union[TripleStore, CSRAdjacency],
    k: int,
    seed=0,
    num_entities: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Sample a fixed-size neighbor table (KGCN receptive fields).

    For every entity, draw ``k`` of its outgoing triples with replacement
    (uniformly).  Entities with no outgoing triples get self-loops with
    relation 0 — a benign sentinel: their aggregated neighborhood then
    equals their own embedding.

    ``store`` may be a raw :class:`~repro.kg.triples.TripleStore` or an
    already-built :class:`CSRAdjacency` (the shared-graph path: a
    :class:`~repro.kg.prepared.PreparedGraph` hands the same adjacency to
    every consumer instead of each rebuilding it).  Both spellings draw the
    same table for the same seed, because sampling only consumes the sorted
    edge layout.

    Returns
    -------
    neighbor_entities, neighbor_relations:
        int64 arrays of shape (num_entities, k).
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    rng = ensure_rng(seed)
    adj = store if isinstance(store, CSRAdjacency) else CSRAdjacency(store)
    n = num_entities if num_entities is not None else adj.num_entities
    degrees = adj.degree()
    neighbor_entities = np.tile(np.arange(n, dtype=np.int64)[:, None], (1, k))
    neighbor_relations = np.zeros((n, k), dtype=np.int64)
    connected = np.flatnonzero(degrees > 0)
    if connected.size:
        # Vectorized sampling: random position within each entity's segment.
        pos = rng.random((connected.size, k))
        starts = adj.offsets[connected][:, None]
        widths = degrees[connected][:, None]
        edge_idx = (starts + (pos * widths).astype(np.int64)).clip(max=adj.num_edges - 1)
        neighbor_entities[connected] = adj.tails[edge_idx]
        neighbor_relations[connected] = adj.rels[edge_idx]
    return neighbor_entities, neighbor_relations
