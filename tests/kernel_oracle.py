"""Per-op reference chains for the fused kernels of :mod:`repro.kernels.dispatch`.

Each fused op in ``dispatch.TENSOR_OPS`` has a drop-in here with the same
signature: the fine-grained autograd chain the fused kernel replaced, one
tape node per gather/matmul/tanh/mul/sum/concat step.  A drop-in makes the
same RNG draws as its fused op, so a run under :func:`oracle_kernels` follows
the fused run's trajectory up to reassociation.  The chains are the parity
oracles of ``tests/test_kernels.py`` and the baselines of the kernel speed
gates (``benchmarks/test_bench_kernels.py``).  Test code only.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, List, Optional, Union

import numpy as np

from repro.autograd import Tensor
from repro.autograd import functional as F
from repro.kernels import dispatch
from repro.models.embeddings import corrupt_triples


@contextlib.contextmanager
def oracle_kernels() -> Iterator[None]:
    """Run every ``dispatch`` fused op as its per-op chain while open."""
    saved = {name: getattr(dispatch, name) for name in dispatch.TENSOR_OPS}
    try:
        for name in dispatch.TENSOR_OPS:
            setattr(dispatch, name, globals()[name])
        yield
    finally:
        for name, fn in saved.items():
            setattr(dispatch, name, fn)


def edge_attention_scores(
    entity_emb: Tensor, relation_emb: Tensor, proj: Tensor, adj
) -> Tensor:
    """Unnormalized attention scores (Eq. 4) in head-sorted edge order.

    Edges are processed grouped by relation so each group shares one
    ``W_r`` matmul; the scores are scattered back to edge order.
    """
    order, bounds = adj.relation_edge_groups()
    pieces: List[Tensor] = []
    d = entity_emb.shape[1]
    for r in range(adj.num_relations):
        lo, hi = bounds[r], bounds[r + 1]
        if hi == lo:
            continue
        idx = order[lo:hi]
        Wr = F.reshape(F.take_rows(proj, np.array([r])), (proj.shape[1], d))  # (k, d)
        e_h = F.take_rows(entity_emb, adj.heads[idx])  # (m, d)
        e_t = F.take_rows(entity_emb, adj.tails[idx])
        r_vec = F.reshape(F.take_rows(relation_emb, np.array([r])), (1, proj.shape[1]))
        proj_h = e_h @ F.transpose(Wr)  # (m, k)
        proj_t = e_t @ F.transpose(Wr)
        scores = F.sum(F.mul(proj_t, F.tanh(F.add(proj_h, r_vec))), axis=1)  # (m,)
        pieces.append(scores)
    flat = F.concat(pieces, axis=0)
    # Scatter back from relation order to head-sorted edge order (cached:
    # concatenating the non-empty relation slices reproduces the full
    # grouping permutation, so its inverse is the precomputed scatter index).
    return F.take_rows(flat, adj.relation_scatter_index())


def weighted_neighbor_sum(
    embeddings: Tensor, edge_weights: Union[Tensor, np.ndarray], adj
) -> Tensor:
    """``gather(tails) → scale → segment-sum`` propagation step (Eq. 8)."""
    tails = F.take_rows(embeddings, adj.tails)  # (E, d_in)
    scale = F.reshape(F.astensor(edge_weights, embeddings), (adj.num_edges, 1))
    weighted = F.mul(tails, scale)
    return F.segment_sum(weighted, adj.offsets)  # (Ent, d_in)


def aggregate(
    self_emb: Tensor, neigh_emb: Tensor, weight: Tensor, bias: Tensor, mode: str,
    p: float = 0.0, rng: Optional[np.random.Generator] = None,
) -> Tensor:
    """``LeakyReLU(combine(e_h, e_Nh) @ W + b)`` then dropout (Eqs. 6–7)."""
    if mode == "concat":
        joint = F.concat([self_emb, neigh_emb], axis=1)
    else:
        joint = F.add(self_emb, neigh_emb)
    return F.dropout(F.leaky_relu(F.add(joint @ weight, bias)), p, rng)


def project(entity_emb: Tensor, proj: Tensor, rels: np.ndarray, entities: np.ndarray) -> Tensor:
    """``W_r e`` for parallel arrays of relation and entity ids, (B, k).

    Triples are grouped by relation so each group shares one (d → k)
    matmul.
    """
    relation_dim, entity_dim = proj.shape[1], proj.shape[2]
    rels = np.asarray(rels, dtype=np.int64)
    entities = np.asarray(entities, dtype=np.int64)
    order = np.argsort(rels, kind="stable")
    sorted_rels = rels[order]
    # Group boundaries of equal relations in the sorted batch.
    starts = np.flatnonzero(np.r_[True, sorted_rels[1:] != sorted_rels[:-1]])
    bounds = np.r_[starts, len(sorted_rels)]
    pieces = []
    for gi in range(len(starts)):
        lo, hi = bounds[gi], bounds[gi + 1]
        r = int(sorted_rels[lo])
        idx = order[lo:hi]
        e = F.take_rows(entity_emb, entities[idx])  # (m, d)
        Wr = F.reshape(F.take_rows(proj, np.array([r])), (relation_dim, entity_dim))
        pieces.append(e @ F.transpose(Wr))  # (m, k)
    flat = F.concat(pieces, axis=0)
    inverse = np.empty(len(rels), dtype=np.int64)
    inverse[order] = np.arange(len(rels), dtype=np.int64)
    return F.take_rows(flat, inverse)


def transr_energy(
    entity_emb: Tensor,
    relation_emb: Tensor,
    proj: Tensor,
    heads: np.ndarray,
    rels: np.ndarray,
    tails: np.ndarray,
) -> Tensor:
    """TransR plausibility ``‖W_r e_h + e_r − W_r e_t‖²`` (Eq. 1), shape (B,)."""
    ph = project(entity_emb, proj, rels, heads)
    pt = project(entity_emb, proj, rels, tails)
    r = F.take_rows(relation_emb, rels)
    diff = F.sub(F.add(ph, r), pt)
    return F.sum(F.mul(diff, diff), axis=1)


def transr_margin_loss(
    transr, heads: np.ndarray, rels: np.ndarray, tails: np.ndarray, rng: np.random.Generator
) -> Tensor:
    """``TransR.margin_loss`` with the positives and corruptions scored by
    two separate :func:`transr_energy` chains."""
    ch, ct = corrupt_triples(heads, tails, transr.num_entities, rng)
    params = (transr.entity_emb, transr.relation_emb, transr.proj)
    pos = transr_energy(*params, heads, rels, tails)
    neg = transr_energy(*params, ch, rels, ct)
    return F.margin_ranking_loss(pos, neg, transr.margin)
