"""CKE: Collaborative Knowledge-base Embedding (Zhang et al., 2016).

The regularization-based baseline: matrix factorization where each item's
representation is the sum of a collaborative latent vector and the item's
structural (TransR) knowledge embedding:

    score(u, v) = e_uᵀ (γ_v + e_v^TransR)

The TransR embeddings are trained on the item–attribute knowledge graph with
the margin loss; both objectives are optimized jointly (one TransR phase per
epoch via ``extra_epoch_step``, matching the alternating schedule used by
the KGAT-family reference code).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.autograd import Parameter, Tensor, xavier_uniform
from repro.autograd import functional as F
from repro.kg.ckg import CollaborativeKnowledgeGraph
from repro.kg.prepared import PreparedGraph
from repro.kg.subgraphs import INTERACT
from repro.models.base import FitConfig, Recommender, batch_l2
from repro.models.embeddings import TransR
from repro.train.engine import StepFn
from repro.utils.rng import ensure_rng

__all__ = ["CKE"]


class CKE(Recommender):
    """BPRMF + TransR item-knowledge regularization."""

    name = "CKE"

    def __init__(
        self,
        num_users: int,
        num_items: int,
        ckg: CollaborativeKnowledgeGraph,
        dim: int = 64,
        relation_dim: int = 64,
        l2: float = 1e-5,
        kg_batch_size: int = 1024,
        kg_steps_per_epoch: int = 20,
        seed=0,
        graph: Optional[PreparedGraph] = None,
    ):
        super().__init__(num_users, num_items)
        rng = ensure_rng(seed)
        self.dim = dim
        self.l2 = l2
        self.kg_batch_size = kg_batch_size
        self.kg_steps_per_epoch = kg_steps_per_epoch
        self.ckg = ckg
        # Knowledge triples only (drop the interact relation) — CKE's TransR
        # component models item structure, not interactions.  The filtered
        # store keeps the canonical triple order (TransR sampling indexes it
        # uniformly), which is exactly what PreparedGraph.canonical_kg
        # preserves on the shared/cached path.
        if graph is not None:
            self.kg_store = graph.check_compatible(ckg).canonical_kg
        else:
            kg_relations = [n for n in ckg.store.relations.names if n != INTERACT]
            self.kg_store = ckg.store.filter_relations(kg_relations)
        self.user_emb = Parameter(xavier_uniform((num_users, dim), rng), name="cke.user")
        self.item_emb = Parameter(xavier_uniform((num_items, dim), rng), name="cke.item")
        self.transr = TransR(
            num_entities=ckg.num_entities,
            num_relations=max(ckg.store.num_relations, 1),
            entity_dim=dim,
            relation_dim=relation_dim,
            seed=rng,
        )
        self._item_entities = ckg.all_item_entities()

    def parameters(self) -> List[Parameter]:
        return [self.user_emb, self.item_emb] + self.transr.parameters()

    def row_partitioned_parameters(self) -> List[Parameter]:
        # Only user_emb is gathered strictly at the batch's users; item and
        # TransR tables are touched by negatives/triples and stay shared.
        return [self.user_emb]

    def _item_repr(self, items: np.ndarray) -> Tensor:
        """γ_v + e_v^TransR for a batch of item indices."""
        base = F.take_rows(self.item_emb, items)
        structural = F.take_rows(self.transr.entity_emb, self._item_entities[items])
        return F.add(base, structural)

    def batch_loss(
        self, users: np.ndarray, pos: np.ndarray, neg: np.ndarray, rng: np.random.Generator
    ) -> Tensor:
        u = F.take_rows(self.user_emb, users)
        i = self._item_repr(pos)
        j = self._item_repr(neg)
        loss = F.bpr_loss(F.sum(F.mul(u, i), axis=1), F.sum(F.mul(u, j), axis=1))
        reg = F.mul(batch_l2(u, i, j), F.astensor(self.l2 / len(users), like=u))
        return F.add(loss, reg)

    def extra_epoch_step(
        self, step: StepFn, rng: np.random.Generator, config: FitConfig
    ) -> float:
        """One TransR phase per epoch over the knowledge triples."""
        if len(self.kg_store) == 0:
            return 0.0
        total = 0.0
        for _ in range(self.kg_steps_per_epoch):
            h, r, t = self.transr.sample_triples(self.kg_store, self.kg_batch_size, rng)
            total += step(lambda: self.transr.margin_loss(h, r, t, rng))
        return total / self.kg_steps_per_epoch

    def score_users(self, users: np.ndarray) -> np.ndarray:
        users = np.asarray(users, dtype=np.int64)
        item_repr = self.item_emb.data + self.transr.entity_emb.data[self._item_entities]
        return self.user_emb.data[users] @ item_repr.T
