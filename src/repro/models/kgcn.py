"""KGCN: Knowledge Graph Convolutional Networks (Wang et al., 2019).

KGCN computes an item representation *conditioned on the user*: a fixed-size
neighborhood is sampled for every entity, and neighbors are aggregated with
user-specific relation attention

    π_r^u = u ᵀ e_r,    weights = softmax over the sampled neighbors,

followed by a sum aggregator ``σ(W (e_v + Σ w_i e_i) + b)``.  With ``n_iter``
hops the receptive field grows recursively.

The neighbor table is sampled once at construction (size ``(E, k)``), as in
the original minibatch implementation where re-sampling per batch changes
little at small k.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.autograd import Parameter, Tensor, xavier_uniform
from repro.autograd import functional as F
from repro.kg.adjacency import sample_fixed_neighbors
from repro.kg.ckg import CollaborativeKnowledgeGraph
from repro.kg.prepared import PreparedGraph
from repro.kg.subgraphs import INTERACT
from repro.models.base import Recommender, batch_l2
from repro.utils.rng import ensure_rng

__all__ = ["KGCN"]


class KGCN(Recommender):
    """Graph-convolutional item representations with user-relation attention."""

    name = "KGCN"

    def __init__(
        self,
        num_users: int,
        num_items: int,
        ckg: CollaborativeKnowledgeGraph,
        dim: int = 64,
        neighbor_size: int = 8,
        n_iter: int = 1,
        l2: float = 1e-5,
        seed=0,
        graph: Optional[PreparedGraph] = None,
    ):
        super().__init__(num_users, num_items)
        if dim <= 0 or neighbor_size <= 0 or n_iter <= 0:
            raise ValueError("dim, neighbor_size and n_iter must be positive")
        rng = ensure_rng(seed)
        self.dim = dim
        self.k = neighbor_size
        self.n_iter = n_iter
        self.l2 = l2
        self.ckg = ckg
        # The knowledge-only adjacency can come pre-built from a shared
        # PreparedGraph; the neighbor table itself is still drawn with this
        # model's rng (it is a modeling choice, not graph structure), and
        # both spellings sample identically from the same sorted layout.
        if graph is not None:
            kg_store = graph.check_compatible(ckg).knowledge
        else:
            kg_relations = [n for n in ckg.propagation_store.relations.names if n != INTERACT]
            kg_store = ckg.propagation_store.filter_relations(kg_relations)
        self.neigh_ent, self.neigh_rel = sample_fixed_neighbors(
            kg_store, k=neighbor_size, seed=rng, num_entities=ckg.num_entities
        )
        self._item_entities = ckg.all_item_entities()
        self.user_emb = Parameter(xavier_uniform((num_users, dim), rng), name="kgcn.user")
        self.entity_emb = Parameter(
            xavier_uniform((ckg.num_entities, dim), rng), name="kgcn.entity"
        )
        n_rel = max(kg_store.num_relations, 1)
        self.relation_emb = Parameter(xavier_uniform((n_rel, dim), rng), name="kgcn.rel")
        self.agg_W = [
            Parameter(xavier_uniform((dim, dim), rng), name=f"kgcn.W{i}") for i in range(n_iter)
        ]
        self.agg_b = [Parameter(np.zeros(dim, dtype=np.float64), name=f"kgcn.b{i}") for i in range(n_iter)]

    def parameters(self) -> List[Parameter]:
        return [self.user_emb, self.entity_emb, self.relation_emb] + self.agg_W + self.agg_b

    # -------------------------------------------------------------- internals
    def _item_repr(self, users: np.ndarray, item_entities: np.ndarray) -> Tensor:
        """User-conditioned item representations, shape (B, d).

        ``users`` and ``item_entities`` are parallel arrays; each row's
        receptive field is aggregated with that row's user attention.
        """
        B, k, d = len(users), self.k, self.dim
        u = F.take_rows(self.user_emb, users)  # (B, d)
        # Hop-0 entity list per row: the item itself, then recursively its
        # sampled neighbors.  entities[h] has shape (B, k^h).
        entities = [np.asarray(item_entities, dtype=np.int64)[:, None]]
        relations = []
        for h in range(self.n_iter):
            ents = entities[h]
            entities.append(self.neigh_ent[ents].reshape(B, -1))
            relations.append(self.neigh_rel[ents].reshape(B, -1))
        # Aggregate inside-out: at iteration i, vectors[h] holds the current
        # representation of hop-h entities.
        vectors = [F.take_rows(self.entity_emb, e.ravel()) for e in entities]
        vectors = [F.reshape(v, (B, -1, d)) for v, e in zip(vectors, entities)]
        for i in range(self.n_iter):
            W, b = self.agg_W[i], self.agg_b[i]
            new_vectors = []
            for h in range(self.n_iter - i):
                self_vec = vectors[h]  # (B, m, d)
                m = entities[h].shape[1]
                neigh_vec = F.reshape(vectors[h + 1], (B, m, k, d))
                rel = F.reshape(
                    F.take_rows(self.relation_emb, relations[h].ravel()), (B, m, k, d)
                )
                # π = u·r per neighbor, softmax over k.
                scores = F.sum(F.mul(rel, F.reshape(u, (B, 1, 1, d))), axis=3)  # (B, m, k)
                weights = F.softmax(scores, axis=2)
                agg_neigh = F.sum(F.mul(neigh_vec, F.reshape(weights, (B, m, k, 1))), axis=2)
                combined = F.add(self_vec, agg_neigh)  # sum aggregator
                out = F.tanh(
                    F.add(F.reshape(F.reshape(combined, (B * m, d)) @ W, (B, m, d)), b)
                )
                new_vectors.append(out)
            vectors = new_vectors
        return F.reshape(vectors[0], (B, d))

    def _pair_scores(self, users: np.ndarray, items: np.ndarray) -> Tensor:
        item_ent = self._item_entities[np.asarray(items, dtype=np.int64)]
        i_repr = self._item_repr(users, item_ent)
        u = F.take_rows(self.user_emb, users)
        return F.sum(F.mul(u, i_repr), axis=1)

    def batch_loss(
        self, users: np.ndarray, pos: np.ndarray, neg: np.ndarray, rng: np.random.Generator
    ) -> Tensor:
        loss = F.bpr_loss(self._pair_scores(users, pos), self._pair_scores(users, neg))
        u = F.take_rows(self.user_emb, users)
        vi = F.take_rows(self.entity_emb, self._item_entities[pos])
        vj = F.take_rows(self.entity_emb, self._item_entities[neg])
        reg = F.mul(batch_l2(u, vi, vj), F.astensor(self.l2 / len(users), like=u))
        return F.add(loss, reg)

    def score_users(self, users: np.ndarray, item_chunk: int = 512) -> np.ndarray:
        """Full-catalog scores, chunked over items to bound memory.

        For each user the item representation depends on the user's relation
        attention, so scores require user × item receptive-field evaluation;
        chunking keeps peak allocation at ``len(users) × item_chunk × k × d``.
        """
        users = np.asarray(users, dtype=np.int64)
        out = np.empty((len(users), self.num_items), dtype=np.float64)
        U = self.user_emb.data[users]  # (B, d)
        E = self.entity_emb.data
        R = self.relation_emb.data
        B, k, d = len(users), self.k, self.dim
        for start in range(0, self.num_items, item_chunk):
            items = np.arange(start, min(start + item_chunk, self.num_items), dtype=np.int64)
            ents = self._item_entities[items]  # (m,)
            m = len(items)
            hop_ents = [ents.reshape(1, m)]  # hop lists shared across users
            hop_rels = []
            for h in range(self.n_iter):
                e = hop_ents[h]
                hop_ents.append(self.neigh_ent[e].reshape(1, -1))
                hop_rels.append(self.neigh_rel[e].reshape(1, -1))
            # vectors[h]: (B, m*k^h, d) — user-independent at start.
            vectors = [np.broadcast_to(E[e[0]], (B,) + E[e[0]].shape).copy() for e in hop_ents]
            for i in range(self.n_iter):
                W, b = self.agg_W[i].data, self.agg_b[i].data
                new_vectors = []
                for h in range(self.n_iter - i):
                    mm = hop_ents[h].shape[1]
                    self_vec = vectors[h]
                    neigh_vec = vectors[h + 1].reshape(B, mm, k, d)
                    rel = R[hop_rels[h][0]].reshape(mm, k, d)
                    scores = np.einsum("bd,mkd->bmk", U, rel)
                    scores -= scores.max(axis=2, keepdims=True)
                    w = np.exp(scores)
                    w /= w.sum(axis=2, keepdims=True)
                    agg = np.einsum("bmkd,bmk->bmd", neigh_vec, w)
                    combined = self_vec + agg
                    new_vectors.append(np.tanh(combined @ W + b))
                vectors = new_vectors
            item_repr = vectors[0]  # (B, m, d)
            out[:, items] = np.einsum("bd,bmd->bm", U, item_repr)
        return out
