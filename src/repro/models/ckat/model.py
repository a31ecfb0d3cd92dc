"""The CKAT recommendation model (Section V).

Architecture (Fig. 6a):

1. **Embedding layer** — TransR over the CKG (Eqs. 1–2).  The entity table is
   shared between the TransR objective and propagation, so structural
   knowledge regularizes the collaborative signal.
2. **Knowledge-aware attentive embedding propagation** — L stacked
   :class:`~repro.models.ckat.layers.PropagationLayer` steps over the
   inverse-augmented CKG with edge attention from
   :func:`~repro.models.ckat.layers.compute_edge_attention`.
3. **Prediction layer** — layer-concatenated representations (Eq. 10) scored
   by inner product (Eq. 11).

Optimization (Section V-D): L = L1 (TransR margin) + L2 (BPR) + λ‖Θ‖².
Following the KGAT reference implementation the two parts alternate — each
epoch runs a TransR phase over the graph's triples, then BPR minibatches; the
attention weights are refreshed from the current TransR parameters once per
epoch (``attention_mode="epoch"``, the default) or recomputed inside every
batch with full gradient flow (``attention_mode="batch"``, exact Eq. 4–5
backprop).  Both modes propagate through the same fused CSR product
(:func:`repro.kernels.dispatch.weighted_neighbor_sum`); batch mode adds the
attention forward and backward to every step, which makes its epoch about
1.4× the cost of an epoch-mode one (DESIGN.md §6).
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple

import numpy as np

from repro.autograd import Parameter, Tensor, no_grad
from repro.autograd import functional as F
from repro.kg.adjacency import CSRAdjacency
from repro.kg.ckg import CollaborativeKnowledgeGraph
from repro.kg.prepared import PreparedGraph
from repro.models.base import FitConfig, Recommender
from repro.models.ckat.layers import (
    PropagationLayer,
    compute_edge_attention,
    uniform_edge_weights,
)
from repro.models.embeddings import TransR
from repro.train.engine import StepFn
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_in_choices

__all__ = ["CKAT", "CKATConfig"]

#: The dtype of CKAT's parameters: the TransR tables and the aggregator
#: weights.  Their initial values are drawn by the float64 initialisers (so
#: the RNG stream does not depend on it) and stored in this dtype; the tape,
#: the fused kernels and Adam's moments follow it.  KGAT's reference
#: implementation trains in float32 too; float64 is the test reference.
PARAM_DTYPE = np.float32


@dataclasses.dataclass(frozen=True)
class CKATConfig:
    """CKAT hyperparameters (defaults follow Section VI-D).

    ``layer_dims`` gives the hidden dimension of each propagation layer —
    the paper uses depth 3 with (64, 32, 16).  ``use_attention=False`` swaps
    the knowledge-aware attention for degree-normalized uniform weights
    (Table IV ablation).
    """

    dim: int = 64
    relation_dim: int = 64
    layer_dims: Tuple[int, ...] = (64, 32, 16)
    aggregator: str = "concat"
    use_attention: bool = True
    attention_mode: str = "epoch"
    dropout: float = 0.1
    normalize: bool = True
    """L2-normalize each propagation layer's output before it enters the
    layer concatenation (Eq. 10).  ``False`` feeds the raw aggregator
    outputs through — the no-normalization ablation."""
    l2: float = 1e-5
    transr_margin: float = 1.0
    kg_batch_size: int = 2048
    kg_steps_per_epoch: int = 10

    def __post_init__(self):
        if self.dim <= 0 or self.relation_dim <= 0:
            raise ValueError("dim and relation_dim must be positive")
        if not self.layer_dims or any(d <= 0 for d in self.layer_dims):
            raise ValueError(f"layer_dims must be nonempty positive, got {self.layer_dims}")
        check_in_choices("aggregator", self.aggregator, ("concat", "sum"))
        check_in_choices("attention_mode", self.attention_mode, ("epoch", "batch"))
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")

    @property
    def depth(self) -> int:
        """Number of propagation layers L."""
        return len(self.layer_dims)


class CKAT(Recommender):
    """Collaborative knowledge-aware graph attention network."""

    name = "CKAT"

    def __init__(
        self,
        num_users: int,
        num_items: int,
        ckg: CollaborativeKnowledgeGraph,
        config: CKATConfig = CKATConfig(),
        seed=0,
        graph: Optional[PreparedGraph] = None,
    ):
        super().__init__(num_users, num_items)
        rng = ensure_rng(seed)
        self.config = config
        self.ckg = ckg
        # A shared PreparedGraph (table harness / artifact cache) supplies
        # the propagation adjacency pre-built; deriving it here is the
        # bit-identical fallback.
        if graph is not None:
            self.adj = graph.check_compatible(ckg).propagation
        else:
            self.adj = CSRAdjacency(ckg.propagation_store)
        self.transr = TransR(
            num_entities=ckg.num_entities,
            num_relations=max(ckg.propagation_store.num_relations, 1),
            entity_dim=config.dim,
            relation_dim=config.relation_dim,
            seed=rng,
            margin=config.transr_margin,
        )
        self.layers: List[PropagationLayer] = []
        in_dim = config.dim
        for li, out_dim in enumerate(config.layer_dims):
            self.layers.append(
                PropagationLayer(
                    in_dim,
                    out_dim,
                    aggregator=config.aggregator,
                    rng=rng,
                    dropout=config.dropout,
                    normalize=config.normalize,
                    name=f"ckat.layer{li}",
                )
            )
            in_dim = out_dim
        with no_grad():
            for p in self.parameters():
                p.data = p.data.astype(PARAM_DTYPE)
        self._user_entities = ckg.all_user_entities()
        self._item_entities = ckg.all_item_entities()
        self._dropout_rng = ensure_rng(rng.integers(2**31))
        self._edge_weights: Optional[np.ndarray] = None
        self.refresh_attention()

    # ------------------------------------------------------------ attention
    def refresh_attention(self) -> None:
        """Recompute frozen per-edge attention from current TransR params.

        Called at construction and after every epoch (``on_epoch_end``).  In
        the w/o-attention ablation the weights are degree-normalized
        constants and never change.
        """
        if not self.config.use_attention:
            self._edge_weights = uniform_edge_weights(self.adj)
        else:
            with no_grad():
                att = compute_edge_attention(
                    self.transr.entity_emb, self.transr.relation_emb, self.transr.proj, self.adj
                )
            self._edge_weights = att.data

    def on_epoch_end(self) -> None:
        if self.config.attention_mode == "epoch":
            self.refresh_attention()

    def extra_rng_state(self) -> dict:
        return {"dropout": self._dropout_rng.bit_generator.state}

    def restore_extra_rng_state(self, state: dict) -> None:
        self._dropout_rng.bit_generator.state = state["dropout"]

    # ----------------------------------------------------------- propagation
    def propagate(self, training: bool = False) -> Tensor:
        """All-entity final representations e* (Eq. 10), shape (Ent, Σdims)."""
        if self.config.attention_mode == "batch" and self.config.use_attention:
            weights = compute_edge_attention(
                self.transr.entity_emb, self.transr.relation_emb, self.transr.proj, self.adj
            )
        else:
            weights = self._edge_weights
        emb = self.transr.entity_emb
        # As in the KGAT reference: the raw layer outputs feed the next
        # propagation step, while L2-normalized copies enter the final
        # layer-concatenation (Eq. 10).
        outputs = [emb]
        current = emb
        for layer in self.layers:
            current = layer(
                current,
                self.adj,
                weights,
                rng=self._dropout_rng,
                training=training,
            )
            # Honor the per-layer normalize flag (the no-normalization
            # ablation); the raw output always feeds the next layer.
            outputs.append(
                F.l2_normalize(current, axis=1) if layer.normalize else current
            )
        return F.concat(outputs, axis=1)

    # -------------------------------------------------------------- training
    def parameters(self) -> List[Parameter]:
        params = list(self.transr.parameters())
        for layer in self.layers:
            params.extend(layer.parameters())
        return params

    def batch_loss(
        self, users: np.ndarray, pos: np.ndarray, neg: np.ndarray, rng: np.random.Generator
    ) -> Tensor:
        final = self.propagate(training=True)
        return F.bpr_objective(
            final,
            final,
            self._user_entities[users],
            self._item_entities[pos],
            self._item_entities[neg],
            self.config.l2,
        )

    def extra_epoch_step(
        self, step: StepFn, rng: np.random.Generator, config: FitConfig
    ) -> float:
        """The L1 (TransR) phase: margin loss over CKG triples (Eq. 2)."""
        store = self.ckg.propagation_store
        if len(store) == 0 or self.config.kg_steps_per_epoch <= 0:
            return 0.0
        total = 0.0
        for _ in range(self.config.kg_steps_per_epoch):
            h, r, t = self.transr.sample_triples(store, self.config.kg_batch_size, rng)
            total += step(lambda: self.transr.margin_loss(h, r, t, rng))
        return total / self.config.kg_steps_per_epoch

    # ------------------------------------------------------------- inference
    def score_users(self, users: np.ndarray) -> np.ndarray:
        users = np.asarray(users, dtype=np.int64)
        with no_grad():
            final = self.propagate(training=False).data
        u = final[self._user_entities[users]]
        v = final[self._item_entities]
        return u @ v.T

    def scoring_factors(self) -> Tuple[np.ndarray, np.ndarray]:
        """User/item rows of e* (Eq. 10-11): one propagation for a whole eval.

        ``score_users`` re-propagates per batch; the factor path runs the L
        propagation layers once and hands the evaluator two dense slices of
        the result.  Scores are identical — propagation is deterministic with
        dropout off.
        """
        with no_grad():
            final = self.propagate(training=False).data
        return final[self._user_entities], final[self._item_entities]

    def entity_representations(self) -> np.ndarray:
        """Final concatenated representations of all entities (no grad)."""
        with no_grad():
            return self.propagate(training=False).data.copy()
