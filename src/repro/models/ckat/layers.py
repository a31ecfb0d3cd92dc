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
        # A graph with no triples has an empty (but well-formed) attention
        # vector; the per-op parity oracle's F.concat would reject it.
        return F.astensor(np.zeros(0, dtype=entity_emb.dtype))
    scores_sorted = dispatch.edge_attention_scores(entity_emb, relation_emb, proj, adj)
    return F.segment_softmax(scores_sorted, adj.offsets)


def uniform_edge_weights(adj: CSRAdjacency) -> np.ndarray:
    """Degree-normalized uniform weights (the w/o-attention ablation).

    Each edge of head ``h`` gets weight ``1 / |N_h|`` — GCN-style mean
    aggregation, which is what CKAT degenerates to without the knowledge-
    aware attention mechanism (Table IV, row 3).
    """
    degrees = adj.degree()
    seg_ids = np.repeat(np.arange(adj.num_entities, dtype=np.int64), degrees)
    return 1.0 / degrees[seg_ids].astype(np.float64)


class _Aggregator:
    """Eqs. 6–7 plus message dropout; ``mode`` names how the inputs combine."""

    mode = ""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator, name: str = "agg"):
        rows = 2 * in_dim if self.mode == "concat" else in_dim
        self.W = Parameter(xavier_uniform((rows, out_dim), rng), name=f"{name}.W")
        self.b = Parameter(np.zeros(out_dim, dtype=np.float64), name=f"{name}.b")

    def parameters(self) -> List[Parameter]:
        return [self.W, self.b]

    def __call__(
        self, self_emb: Tensor, neigh_emb: Tensor, p: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ) -> Tensor:
        """Aggregate, then drop each output entry with probability ``p``."""
        return dispatch.aggregate(self_emb, neigh_emb, self.W, self.b, self.mode, p, rng)


class ConcatAggregator(_Aggregator):
    """Eq. 6: LeakyReLU(W (e_h ‖ e_Nh) + b)."""

    mode = "concat"


class SumAggregator(_Aggregator):
    """Eq. 7: LeakyReLU(W (e_h + e_Nh) + b)."""

    mode = "sum"


_AGGREGATORS = {"concat": ConcatAggregator, "sum": SumAggregator}


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
        if aggregator not in _AGGREGATORS:
            raise ValueError(f"aggregator must be 'concat' or 'sum', got {aggregator!r}")
        self.aggregator = _AGGREGATORS[aggregator](in_dim, out_dim, rng, name=name)
        if not 0.0 <= dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {dropout}")
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
    ) -> Tensor:
        """Propagate one step.

        ``edge_weights`` may be a Tensor (differentiable attention, the
        exact Eq. 4–5 path) or a constant array (frozen attention, uniform
        weights).
        """
        # One CSR product: the (E, d_in) weighted-messages temporary is
        # never materialized.
        neigh = dispatch.weighted_neighbor_sum(embeddings, edge_weights, adj)
        p = self.dropout if training and rng is not None else 0.0
        return self.aggregator(embeddings, neigh, p, rng)
