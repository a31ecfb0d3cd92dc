"""Translation-based knowledge-graph embedding modules: TransR and TransE.

TransR (Section V-A, Eqs. 1–2) is CKAT's embedding layer: entities live in a
d-dimensional space, each relation r in its own k-dimensional space reached
through a projection matrix ``W_r``; a triple (h, r, t) is plausible when
``W_r e_h + e_r ≈ W_r e_t``.  Training minimizes the margin loss over
corrupted triples (Eq. 2).

TransE (used by the CFKG baseline) is the special case with identity
projection and shared dimensionality.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.autograd import Parameter, Tensor, xavier_uniform
from repro.autograd import functional as F
from repro.kernels import dispatch
from repro.kg.triples import TripleStore
from repro.utils.rng import ensure_rng

__all__ = ["TransR", "TransE", "corrupt_triples"]


def corrupt_triples(
    heads: np.ndarray,
    tails: np.ndarray,
    num_entities: int,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray]:
    """Corrupt each triple by replacing head or tail with a random entity.

    Follows the standard protocol (Bordes et al., 2013): for each triple a
    fair coin decides which side to replace; the replacement is uniform over
    the entity space.  (Collisions with true triples are rare at our scale
    and tolerated, as in the reference implementations.)
    """
    n = len(heads)
    corrupt_head = rng.random(n) < 0.5
    random_entities = rng.integers(0, num_entities, size=n)
    new_heads = np.where(corrupt_head, random_entities, heads)
    new_tails = np.where(corrupt_head, tails, random_entities)
    return new_heads.astype(np.int64), new_tails.astype(np.int64)


class TransR:
    """TransR embeddings over a triple store.

    Parameters
    ----------
    num_entities, num_relations:
        Sizes of the id spaces.
    entity_dim (d), relation_dim (k):
        Entity-space and relation-space dimensionalities.
    shared_entity_embedding:
        Optional externally-owned entity embedding Parameter to train
        against (CKAT shares one table between TransR and propagation).
    """

    def __init__(
        self,
        num_entities: int,
        num_relations: int,
        entity_dim: int = 64,
        relation_dim: int = 64,
        seed=0,
        shared_entity_embedding: Parameter = None,
        margin: float = 1.0,
    ):
        if num_entities <= 0 or num_relations <= 0:
            raise ValueError("num_entities and num_relations must be positive")
        if entity_dim <= 0 or relation_dim <= 0:
            raise ValueError("entity_dim and relation_dim must be positive")
        if margin < 0:
            raise ValueError("margin must be nonnegative")
        rng = ensure_rng(seed)
        self.num_entities = num_entities
        self.num_relations = num_relations
        self.entity_dim = entity_dim
        self.relation_dim = relation_dim
        self.margin = margin
        if shared_entity_embedding is not None:
            if shared_entity_embedding.shape != (num_entities, entity_dim):
                raise ValueError(
                    f"shared embedding shape {shared_entity_embedding.shape} != "
                    f"({num_entities}, {entity_dim})"
                )
            self.entity_emb = shared_entity_embedding
        else:
            self.entity_emb = Parameter(
                xavier_uniform((num_entities, entity_dim), rng), name="transr.entity"
            )
        self.relation_emb = Parameter(
            xavier_uniform((num_relations, relation_dim), rng), name="transr.relation"
        )
        # W_r ∈ R^{k×d} per relation, stored (R, k, d).
        self.proj = Parameter(
            xavier_uniform((num_relations, relation_dim, entity_dim), rng), name="transr.proj"
        )

    def parameters(self) -> List[Parameter]:
        return [self.entity_emb, self.relation_emb, self.proj]

    def energy(self, heads: np.ndarray, rels: np.ndarray, tails: np.ndarray) -> Tensor:
        """Plausibility score f_r(h, r, t) = ‖W_r e_h + e_r − W_r e_t‖² (Eq. 1).

        Lower is more plausible.  Returns shape (B,).
        """
        return dispatch.transr_energy(
            self.entity_emb, self.relation_emb, self.proj, heads, rels, tails
        )

    def margin_loss(
        self, heads: np.ndarray, rels: np.ndarray, tails: np.ndarray, rng: np.random.Generator
    ) -> Tensor:
        """Eq. 2: hinge over corrupted triples, mean-reduced.

        The positive‖corrupted batch is scored in one
        :func:`~repro.kernels.dispatch.transr_energy` call, so a pair shared
        by both halves is projected once.
        """
        ch, ct = corrupt_triples(heads, tails, self.num_entities, rng)
        n = len(heads)
        energy = dispatch.transr_energy(
            self.entity_emb, self.relation_emb, self.proj,
            np.concatenate([heads, ch]), np.concatenate([rels, rels]),
            np.concatenate([tails, ct]),
        )
        pos = F.take_rows(energy, np.arange(n, dtype=np.int64))
        neg = F.take_rows(energy, np.arange(n, 2 * n, dtype=np.int64))
        return F.margin_ranking_loss(pos, neg, self.margin)

    def sample_triples(
        self, store: TripleStore, batch_size: int, rng: np.random.Generator
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Uniformly sample a triple batch from ``store``."""
        if len(store) == 0:
            raise ValueError("triple store is empty")
        idx = rng.integers(0, len(store), size=batch_size)
        return store.heads[idx], store.rels[idx], store.tails[idx]


class TransE:
    """TransE embeddings: ``e_h + e_r ≈ e_t`` in one shared space.

    Used by CFKG, which folds the ``interact`` relation into the graph and
    ranks items by translation distance from ``e_u + e_interact``.
    """

    def __init__(
        self,
        num_entities: int,
        num_relations: int,
        dim: int = 64,
        seed=0,
        margin: float = 1.0,
    ):
        if num_entities <= 0 or num_relations <= 0 or dim <= 0:
            raise ValueError("sizes must be positive")
        rng = ensure_rng(seed)
        self.num_entities = num_entities
        self.num_relations = num_relations
        self.dim = dim
        self.margin = margin
        self.entity_emb = Parameter(xavier_uniform((num_entities, dim), rng), name="transe.entity")
        self.relation_emb = Parameter(
            xavier_uniform((num_relations, dim), rng), name="transe.relation"
        )

    def parameters(self) -> List[Parameter]:
        return [self.entity_emb, self.relation_emb]

    def energy(self, heads: np.ndarray, rels: np.ndarray, tails: np.ndarray) -> Tensor:
        """Squared translation distance ‖e_h + e_r − e_t‖², shape (B,)."""
        h = F.take_rows(self.entity_emb, heads)
        r = F.take_rows(self.relation_emb, rels)
        t = F.take_rows(self.entity_emb, tails)
        diff = F.sub(F.add(h, r), t)
        return F.sum(F.mul(diff, diff), axis=1)

    def margin_loss(
        self, heads: np.ndarray, rels: np.ndarray, tails: np.ndarray, rng: np.random.Generator
    ) -> Tensor:
        """Margin ranking loss over corrupted triples."""
        ch, ct = corrupt_triples(heads, tails, self.num_entities, rng)
        pos = self.energy(heads, rels, tails)
        neg = self.energy(ch, rels, ct)
        return F.margin_ranking_loss(pos, neg, self.margin)
