"""CKAT building blocks: knowledge-aware attention and aggregators.

Knowledge-aware attention (Eqs. 4–5)
------------------------------------
For an edge (h, r, t) the unnormalized attention is

    fa(h, r, t) = (W_r e_t)ᵀ tanh(W_r e_h + e_r)

computed in the *relation space* of the TransR embedding layer, followed by
a softmax over each head entity's edge segment.  Because W_r projects from
the entity space, attention is a function of the layer-0 (TransR) embeddings
— scores are computed once per forward pass and shared across propagation
layers (the same design as the KGAT reference implementation, whose
attention matrix is refreshed from the embedding layer).

Aggregators (Eqs. 6–7)
----------------------
``ConcatAggregator``: LeakyReLU(W · (e_h ‖ e_Nh)), the paper's default;
``SumAggregator``:    LeakyReLU(W · (e_h + e_Nh)), the Table-IV alternative.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.autograd import Parameter, Tensor, xavier_uniform
from repro.autograd import functional as F
from repro.kernels import dispatch
from repro.kg.adjacency import CSRAdjacency

__all__ = [
    "compute_edge_attention",
    "uniform_edge_weights",
    "ConcatAggregator",
    "SumAggregator",
    "PropagationLayer",
]


def compute_edge_attention(
    entity_emb: Tensor,
    relation_emb: Tensor,
    proj: Tensor,
    adj: CSRAdjacency,
) -> Tensor:
    """Normalized attention weight per edge (Eqs. 4–5), shape (num_edges,).

    Edges are processed grouped by relation so each group shares one
    ``W_r`` matmul; results are scattered back to edge order (which is
    sorted by head, as :func:`repro.autograd.functional.segment_softmax`
    requires).  Fully differentiable: wrap in
    :func:`repro.autograd.tensor.no_grad` for frozen-attention training.
    """
    if adj.num_edges == 0:
        # F.concat rejects an empty piece list; a graph with no triples has
        # an empty (but well-formed) attention vector.
        return F.astensor(np.zeros(0, dtype=np.float64))
    if dispatch.fused_enabled():
        scores_sorted = dispatch.edge_attention_scores(entity_emb, relation_emb, proj, adj)
    else:
        scores_sorted = _edge_attention_scores_oracle(entity_emb, relation_emb, proj, adj)
    return F.segment_softmax(scores_sorted, adj.offsets)


def _edge_attention_scores_oracle(
    entity_emb: Tensor,
    relation_emb: Tensor,
    proj: Tensor,
    adj: CSRAdjacency,
) -> Tensor:
    """Per-op reference chain for the unnormalized scores (fusion oracle).

    This is the original fine-grained implementation — one autograd node per
    gather/matmul/tanh/mul/rowsum/concat/scatter step.  It stays as the
    parity and gradcheck oracle for
    :func:`repro.kernels.dispatch.edge_attention_scores` and runs when the
    ``oracle`` backend is selected.
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


def uniform_edge_weights(adj: CSRAdjacency) -> np.ndarray:
    """Degree-normalized uniform weights (the w/o-attention ablation).

    Each edge of head ``h`` gets weight ``1 / |N_h|`` — GCN-style mean
    aggregation, which is what CKAT degenerates to without the knowledge-
    aware attention mechanism (Table IV, row 3).
    """
    degrees = adj.degree()
    seg_ids = np.repeat(np.arange(adj.num_entities, dtype=np.int64), degrees)
    return 1.0 / degrees[seg_ids].astype(np.float64)


class ConcatAggregator:
    """Eq. 6: LeakyReLU(W (e_h ‖ e_Nh) + b)."""

    mode = "concat"

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator, name: str = "agg"):
        self.W = Parameter(xavier_uniform((2 * in_dim, out_dim), rng), name=f"{name}.W")
        self.b = Parameter(np.zeros(out_dim, dtype=np.float64), name=f"{name}.b")

    def parameters(self) -> List[Parameter]:
        return [self.W, self.b]

    def __call__(self, self_emb: Tensor, neigh_emb: Tensor) -> Tensor:
        joint = F.concat([self_emb, neigh_emb], axis=1)
        return F.leaky_relu(F.add(joint @ self.W, self.b))


class SumAggregator:
    """Eq. 7: LeakyReLU(W (e_h + e_Nh) + b)."""

    mode = "sum"

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator, name: str = "agg"):
        self.W = Parameter(xavier_uniform((in_dim, out_dim), rng), name=f"{name}.W")
        self.b = Parameter(np.zeros(out_dim, dtype=np.float64), name=f"{name}.b")

    def parameters(self) -> List[Parameter]:
        return [self.W, self.b]

    def __call__(self, self_emb: Tensor, neigh_emb: Tensor) -> Tensor:
        return F.leaky_relu(F.add(F.add(self_emb, neigh_emb) @ self.W, self.b))


class PropagationLayer:
    """One knowledge-aware attentive embedding propagation step (Eqs. 8–9).

    Given all-entity embeddings ``e^(l-1)`` and per-edge weights, computes

        e_Nh = Σ_{(h,r,t)∈N_h} fa(h,r,t) · e_t^(l-1)
        e^(l) = agg(e^(l-1), e_Nh)

    with optional message dropout and L2 normalization of the output (both
    standard in the KGAT family).  ``normalize`` controls whether the layer's
    output is L2-normalized where it enters the final layer concatenation —
    :meth:`repro.models.ckat.model.CKAT.propagate` consults the flag, since
    the *raw* output always feeds the next propagation step.
    """

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        aggregator: str,
        rng: np.random.Generator,
        dropout: float = 0.1,
        normalize: bool = True,
        name: str = "layer",
    ):
        if aggregator == "concat":
            self.aggregator = ConcatAggregator(in_dim, out_dim, rng, name=name)
        elif aggregator == "sum":
            self.aggregator = SumAggregator(in_dim, out_dim, rng, name=name)
        else:
            raise ValueError(f"aggregator must be 'concat' or 'sum', got {aggregator!r}")
        if not 0.0 <= dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {dropout}")
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.dropout = dropout
        self.normalize = normalize

    def parameters(self) -> List[Parameter]:
        return self.aggregator.parameters()

    def __call__(
        self,
        embeddings: Tensor,
        adj: CSRAdjacency,
        edge_weights,
        rng: Optional[np.random.Generator] = None,
        training: bool = False,
        sparse_matrix=None,
    ) -> Tensor:
        """Propagate one step.

        ``edge_weights`` may be a Tensor (differentiable attention, the
        exact Eq. 4–5 path) or a constant array; when ``sparse_matrix`` (a
        CSR matrix with the weights already scattered, see
        :func:`repro.kernels.dispatch.build_weighted_csr`) is supplied, the
        gather → weight → segment-sum pipeline runs as one sparse matmul
        instead.
        """
        if sparse_matrix is not None and not isinstance(edge_weights, Tensor):
            neigh = F.spmm(sparse_matrix, embeddings)
        elif dispatch.fused_enabled():
            # Fused gather → scale → segment-sum: the (E, d_in) weighted-
            # messages temporary is never materialized.
            neigh = dispatch.weighted_neighbor_sum(embeddings, edge_weights, adj)
        else:
            tails = F.take_rows(embeddings, adj.tails)  # (E, d_in)
            if isinstance(edge_weights, Tensor):
                weighted = F.mul(tails, F.reshape(edge_weights, (adj.num_edges, 1)))
            else:
                weighted = F.mul(tails, F.astensor(np.asarray(edge_weights)[:, None]))
            neigh = F.segment_sum(weighted, adj.offsets)  # (Ent, d_in)
        out = self.aggregator(embeddings, neigh)
        if training and self.dropout > 0 and rng is not None:
            out = F.dropout(out, self.dropout, rng, training=True)
        return out
