"""RippleNet: propagating user preferences over the knowledge graph
(Wang et al., 2018).

Each user's clicked items seed *ripple sets*: hop-1 is the set of KG triples
headed at the user's history items, hop-2 the triples headed at hop-1 tails,
and so on.  An item-aware attention over each hop's triples

    p_i = softmax_i( v ᵀ R_{r_i} h_i )

produces hop responses ``o^k = Σ_i p_i t_i``; the user representation is the
sum of hop responses and the score is its inner product with the item
embedding.

Per Section VI-D the embedding size is 16 (RippleNet's computational cost)
and ``n_hop = 2``.  Ripple sets are sampled once at construction with a fixed
memory size per hop, as in the reference implementation.  Training uses the
shared BPR protocol.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.autograd import Parameter, Tensor, xavier_uniform
from repro.autograd import functional as F
from repro.data.interactions import InteractionDataset
from repro.kg.adjacency import CSRAdjacency
from repro.kg.ckg import CollaborativeKnowledgeGraph
from repro.kg.prepared import PreparedGraph
from repro.kg.subgraphs import INTERACT
from repro.models.base import Recommender, batch_l2
from repro.utils.rng import ensure_rng

__all__ = ["RippleNet"]


class RippleNet(Recommender):
    """Preference propagation with per-user ripple memories."""

    name = "RippleNet"

    def __init__(
        self,
        num_users: int,
        num_items: int,
        ckg: CollaborativeKnowledgeGraph,
        train: InteractionDataset,
        dim: int = 16,
        n_hop: int = 2,
        n_memory: int = 32,
        l2: float = 1e-5,
        seed=0,
        graph: Optional[PreparedGraph] = None,
    ):
        super().__init__(num_users, num_items)
        if dim <= 0 or n_hop <= 0 or n_memory <= 0:
            raise ValueError("dim, n_hop and n_memory must be positive")
        rng = ensure_rng(seed)
        self.dim = dim
        self.n_hop = n_hop
        self.n_memory = n_memory
        self.l2 = l2
        self.ckg = ckg
        # Ripples flow over knowledge triples (+inverses), not interactions;
        # a shared PreparedGraph supplies that adjacency pre-built.
        if graph is not None:
            self._adj = graph.check_compatible(ckg).knowledge
        else:
            kg_relations = [n for n in ckg.propagation_store.relations.names if n != INTERACT]
            self._adj = CSRAdjacency(ckg.propagation_store.filter_relations(kg_relations))
        self._item_entities = ckg.all_item_entities()
        self.entity_emb = Parameter(
            xavier_uniform((ckg.num_entities, dim), rng), name="ripple.entity"
        )
        n_rel = max(self._adj.num_relations, 1)
        self.relation_mats = Parameter(
            xavier_uniform((n_rel, dim, dim), rng), name="ripple.R"
        )
        self.mem_h, self.mem_r, self.mem_t = self._build_ripple_sets(train, rng)

    def _build_ripple_sets(
        self, train: InteractionDataset, rng: np.random.Generator
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sample (U, n_hop, n_memory) ripple memories from train history.

        Users whose frontier dies out (no outgoing KG triples) repeat their
        previous hop's memories — the reference implementation's fallback.
        """
        U, H, M = self.num_users, self.n_hop, self.n_memory
        mem_h = np.zeros((U, H, M), dtype=np.int64)
        mem_r = np.zeros((U, H, M), dtype=np.int64)
        mem_t = np.zeros((U, H, M), dtype=np.int64)
        adj = self._adj
        for u in range(U):
            seeds = self._item_entities[train.items_of_user(u)]
            for hop in range(H):
                # Collect candidate edge index ranges for the frontier.
                if seeds.size:
                    starts = adj.offsets[seeds]
                    ends = adj.offsets[seeds + 1]
                    widths = ends - starts
                    valid = widths > 0
                    starts, widths = starts[valid], widths[valid]
                else:
                    starts = widths = np.zeros(0, dtype=np.int64)
                if starts.size == 0:
                    if hop > 0:
                        mem_h[u, hop] = mem_h[u, hop - 1]
                        mem_r[u, hop] = mem_r[u, hop - 1]
                        mem_t[u, hop] = mem_t[u, hop - 1]
                    else:
                        # Cold user: self-loops on a random item entity.
                        ent = self._item_entities[int(rng.integers(self.num_items))]
                        mem_h[u, hop] = ent
                        mem_t[u, hop] = ent
                    seeds = np.unique(mem_t[u, hop])
                    continue
                # Sample M edges: pick a seed proportional to its degree,
                # then a uniform edge within it.
                probs = widths / widths.sum()
                pick = rng.choice(len(starts), size=M, p=probs)
                offs = (rng.random(M) * widths[pick]).astype(np.int64)
                edge_idx = starts[pick] + offs
                mem_h[u, hop] = adj.heads[edge_idx]
                mem_r[u, hop] = adj.rels[edge_idx]
                mem_t[u, hop] = adj.tails[edge_idx]
                seeds = np.unique(mem_t[u, hop])
        return mem_h, mem_r, mem_t

    def parameters(self) -> List[Parameter]:
        return [self.entity_emb, self.relation_mats]

    # ----------------------------------------------------------------- score
    def _relation_grouped_Rh(self, h_ids: np.ndarray, r_ids: np.ndarray) -> "Tensor":
        """Compute R_r · e_h for flat parallel id arrays, grouped by relation.

        Avoids gathering a (B·M, d, d) stack of relation matrices — each
        relation's slots share one (d, d) matmul instead.
        """
        d = self.dim
        flat_r = r_ids.ravel()
        flat_h = h_ids.ravel()
        order = np.argsort(flat_r, kind="stable")
        sorted_r = flat_r[order]
        starts = np.flatnonzero(np.r_[True, sorted_r[1:] != sorted_r[:-1]])
        bounds = np.r_[starts, len(sorted_r)]
        pieces = []
        for gi in range(len(starts)):
            lo, hi = bounds[gi], bounds[gi + 1]
            r = int(sorted_r[lo])
            idx = order[lo:hi]
            h = F.take_rows(self.entity_emb, flat_h[idx])  # (m, d)
            Rm = F.reshape(F.take_rows(self.relation_mats, np.array([r])), (d, d))
            pieces.append(h @ F.transpose(Rm))
        flat = F.concat(pieces, axis=0)
        inverse = np.empty(len(flat_r), dtype=np.int64)
        inverse[order] = np.arange(len(flat_r), dtype=np.int64)
        return F.take_rows(flat, inverse)

    def _pair_scores(self, users: np.ndarray, items: np.ndarray) -> Tensor:
        """Differentiable scores for parallel (user, item) arrays."""
        B, M, d = len(users), self.n_memory, self.dim
        v = F.take_rows(self.entity_emb, self._item_entities[items])  # (B, d)
        user_repr = None
        for hop in range(self.n_hop):
            h_ids = self.mem_h[users, hop]  # (B, M)
            r_ids = self.mem_r[users, hop]
            t_ids = self.mem_t[users, hop]
            Rh = F.reshape(self._relation_grouped_Rh(h_ids, r_ids), (B, M, d))
            logits = F.sum(F.mul(Rh, F.reshape(v, (B, 1, d))), axis=2)  # (B, M)
            p = F.softmax(logits, axis=1)
            t = F.reshape(F.take_rows(self.entity_emb, t_ids.ravel()), (B, M, d))
            o = F.sum(F.mul(t, F.reshape(p, (B, M, 1))), axis=1)  # (B, d)
            user_repr = o if user_repr is None else F.add(user_repr, o)
        return F.sum(F.mul(user_repr, v), axis=1)

    def batch_loss(
        self, users: np.ndarray, pos: np.ndarray, neg: np.ndarray, rng: np.random.Generator
    ) -> Tensor:
        loss = F.bpr_loss(self._pair_scores(users, pos), self._pair_scores(users, neg))
        vi = F.take_rows(self.entity_emb, self._item_entities[pos])
        vj = F.take_rows(self.entity_emb, self._item_entities[neg])
        reg = F.mul(batch_l2(vi, vj), F.astensor(self.l2 / len(users), like=vi))
        return F.add(loss, reg)

    def score_users(self, users: np.ndarray) -> np.ndarray:
        """Full-catalog scores; item-aware attention computed per user."""
        users = np.asarray(users, dtype=np.int64)
        E = self.entity_emb.data
        R = self.relation_mats.data
        V = E[self._item_entities]  # (N, d)
        out = np.zeros((len(users), self.num_items), dtype=np.float64)
        for row, u in enumerate(users):
            user_repr = np.zeros((self.num_items, self.dim), dtype=np.float64)
            for hop in range(self.n_hop):
                h = E[self.mem_h[u, hop]]  # (M, d)
                Rm = R[self.mem_r[u, hop]]  # (M, d, d)
                Rh = np.einsum("mij,mj->mi", Rm, h)  # (M, d)
                logits = V @ Rh.T  # (N, M)
                logits -= logits.max(axis=1, keepdims=True)
                p = np.exp(logits)
                p /= p.sum(axis=1, keepdims=True)
                t = E[self.mem_t[u, hop]]  # (M, d)
                user_repr += p @ t  # (N, d)
            out[row] = (user_repr * V).sum(axis=1)
        return out
