"""CFKG: learning heterogeneous knowledge-base embeddings (Ai et al., 2018).

The unified-graph baseline: TransE is applied to the *whole* CKG including
the ``interact`` relation, so user–item preference becomes a translation —
``e_u + e_interact ≈ e_v`` for observed queries.  Recommendation scores are
negative translation distances.

Training has two parts, both per epoch: the standard TransE margin loss over
all triples (``extra_epoch_step``) and a BPR ranking loss over interaction
distances in ``batch_loss`` (ranking-calibrated distances substantially
stabilize top-K evaluation; the original paper ranks by distance as well).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.autograd import Parameter, Tensor
from repro.autograd import functional as F
from repro.kg.ckg import CollaborativeKnowledgeGraph
from repro.kg.prepared import PreparedGraph
from repro.kg.subgraphs import INTERACT
from repro.models.base import FitConfig, Recommender, batch_l2
from repro.models.embeddings import TransE
from repro.train.engine import StepFn
from repro.utils.rng import ensure_rng

__all__ = ["CFKG"]


class CFKG(Recommender):
    """TransE over the unified user–item–knowledge graph."""

    name = "CFKG"

    def __init__(
        self,
        num_users: int,
        num_items: int,
        ckg: CollaborativeKnowledgeGraph,
        dim: int = 64,
        l2: float = 1e-5,
        kg_batch_size: int = 1024,
        kg_steps_per_epoch: int = 20,
        seed=0,
        graph: Optional[PreparedGraph] = None,
    ):
        super().__init__(num_users, num_items)
        rng = ensure_rng(seed)
        self.l2 = l2
        self.kg_batch_size = kg_batch_size
        self.kg_steps_per_epoch = kg_steps_per_epoch
        self.ckg = ckg
        # CFKG trains TransE on ckg.store directly; a supplied graph is only
        # validated so the harness can pass one uniformly to every model.
        if graph is not None:
            graph.check_compatible(ckg)
        self.transe = TransE(
            num_entities=ckg.num_entities,
            num_relations=max(ckg.store.num_relations, 1),
            dim=dim,
            seed=rng,
        )
        self._interact_rel = ckg.store.relations.id_of(INTERACT)
        self._user_entities = ckg.all_user_entities()
        self._item_entities = ckg.all_item_entities()

    def parameters(self) -> List[Parameter]:
        return self.transe.parameters()

    def _pair_distance(self, users: np.ndarray, items: np.ndarray) -> Tensor:
        """‖e_u + e_interact − e_v‖² (lower = preferred)."""
        heads = self._user_entities[np.asarray(users, dtype=np.int64)]
        tails = self._item_entities[np.asarray(items, dtype=np.int64)]
        rels = np.full(len(heads), self._interact_rel, dtype=np.int64)
        return self.transe.energy(heads, rels, tails)

    def batch_loss(
        self, users: np.ndarray, pos: np.ndarray, neg: np.ndarray, rng: np.random.Generator
    ) -> Tensor:
        # As in Ai et al.: the interaction is just another triple
        # (u, interact, v) trained with the TransE margin loss — the sampled
        # negative item plays the corrupted-tail role.  (No BPR head; CFKG
        # models connectivity only at triple granularity, which is exactly
        # why the paper finds it weaker than the propagation models.)
        pos_d = self._pair_distance(users, pos)
        neg_d = self._pair_distance(users, neg)
        loss = F.margin_ranking_loss(pos_d, neg_d, self.transe.margin)
        u = F.take_rows(self.transe.entity_emb, self._user_entities[users])
        i = F.take_rows(self.transe.entity_emb, self._item_entities[pos])
        j = F.take_rows(self.transe.entity_emb, self._item_entities[neg])
        reg = F.mul(batch_l2(u, i, j), F.astensor(self.l2 / len(users), like=u))
        return F.add(loss, reg)

    def extra_epoch_step(
        self, step: StepFn, rng: np.random.Generator, config: FitConfig
    ) -> float:
        """TransE margin phase over the full CKG (knowledge + interact)."""
        store = self.ckg.store
        if len(store) == 0:
            return 0.0
        total = 0.0
        for _ in range(self.kg_steps_per_epoch):
            idx = rng.integers(0, len(store), size=self.kg_batch_size)
            total += step(
                lambda: self.transe.margin_loss(
                    store.heads[idx], store.rels[idx], store.tails[idx], rng
                )
            )
        return total / self.kg_steps_per_epoch

    def score_users(self, users: np.ndarray) -> np.ndarray:
        """Negative squared distance to every item, vectorized.

        ‖q_u − e_v‖² expands to ‖q_u‖² − 2 q_uᵀ e_v + ‖e_v‖² with
        q_u = e_u + e_interact, so scoring is one matrix product.
        """
        users = np.asarray(users, dtype=np.int64)
        E = self.transe.entity_emb.data
        q = E[self._user_entities[users]] + self.transe.relation_emb.data[self._interact_rel]
        items = E[self._item_entities]
        sq = (q**2).sum(axis=1)[:, None] - 2.0 * q @ items.T + (items**2).sum(axis=1)[None, :]
        return -sq
