"""Factorization Machines over user / item / KG-entity features.

Following the paper's baseline setup (Section VI-C): "we convert the user
IDs, data objects, and CKG entities as the input features".  A (user, item)
pair activates the binary features {user u} ∪ {item v} ∪ {attribute entities
of v in the item–attribute graph}.

With binary features, the FM score

    ŷ = w₀ + Σ_x w_x + ½ (‖Σ_x v_x‖² − Σ_x ‖v_x‖²)

decomposes over the user side and a per-item aggregate, so full-catalog
scoring is two matrix products (see :meth:`FM.score_users`).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.autograd import Parameter, Tensor, xavier_uniform
from repro.autograd import functional as F
from repro.kg.ckg import CollaborativeKnowledgeGraph
from repro.kg.subgraphs import INTERACT
from repro.models.base import Recommender, batch_l2
from repro.utils.rng import ensure_rng

__all__ = ["FM", "ItemFeatureTable"]


class ItemFeatureTable:
    """CSR table of each item's attribute entities in the CKG.

    Feature id space: CKG global entity ids — users, items and attribute
    entities all live in one embedding table, which is exactly the FM/NFM
    input design the paper describes.
    """

    def __init__(self, ckg: CollaborativeKnowledgeGraph):
        item_off, item_size = ckg.space.block("item")
        store = ckg.store
        interact_id = (
            store.relations.id_of(INTERACT) if INTERACT in store.relations else -1
        )
        is_item_head = (store.heads >= item_off) & (store.heads < item_off + item_size)
        mask = is_item_head & (store.rels != interact_id)
        item_local = store.heads[mask] - item_off
        attr_entity = store.tails[mask]
        order = np.argsort(item_local, kind="stable")
        self._items = item_local[order]
        self._attrs = attr_entity[order]
        counts = np.bincount(self._items, minlength=item_size)
        self.offsets = np.zeros(item_size + 1, dtype=np.int64)
        np.cumsum(counts, out=self.offsets[1:])
        self.num_items = item_size
        self.num_entities = ckg.num_entities
        self.item_offset = item_off
        self.user_offset = ckg.space.block("user")[0]

    def attrs_of(self, item: int) -> np.ndarray:
        """Attribute entity ids (global) of one item."""
        lo, hi = self.offsets[item], self.offsets[item + 1]
        return self._attrs[lo:hi]

    def batch_attrs(self, items: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Ragged gather: (flat attribute ids, segment offsets) for a batch."""
        items = np.asarray(items, dtype=np.int64)
        lengths = self.offsets[items + 1] - self.offsets[items]
        total = int(lengths.sum())
        flat = np.empty(total, dtype=np.int64)
        seg_offsets = np.zeros(len(items) + 1, dtype=np.int64)
        np.cumsum(lengths, out=seg_offsets[1:])
        pos = 0
        for idx, item in enumerate(items):
            lo, hi = self.offsets[item], self.offsets[item + 1]
            flat[pos : pos + hi - lo] = self._attrs[lo:hi]
            pos += hi - lo
        return flat, seg_offsets

    def max_attrs(self) -> int:
        """Largest attribute count of any item."""
        return int(np.max(np.diff(self.offsets))) if self.num_items else 0


class FM(Recommender):
    """Second-order Factorization Machine with KG-entity features."""

    name = "FM"

    def __init__(
        self,
        num_users: int,
        num_items: int,
        features: ItemFeatureTable,
        dim: int = 64,
        l2: float = 1e-5,
        seed=0,
    ):
        super().__init__(num_users, num_items)
        if dim <= 0:
            raise ValueError(f"dim must be positive, got {dim}")
        rng = ensure_rng(seed)
        self.features = features
        self.dim = dim
        self.l2 = l2
        n_feat = features.num_entities
        self.factors = Parameter(xavier_uniform((n_feat, dim), rng, gain=0.5), name="fm.v")
        self.linear = Parameter(np.zeros((n_feat, 1), dtype=np.float64), name="fm.w")
        self.bias = Parameter(np.zeros(1, dtype=np.float64), name="fm.w0")

    def parameters(self) -> List[Parameter]:
        return [self.factors, self.linear, self.bias]

    # ---------------------------------------------------------------- score
    def _user_feature_ids(self, users: np.ndarray) -> np.ndarray:
        return np.asarray(users, dtype=np.int64) + self.features.user_offset

    def _item_feature_ids(self, items: np.ndarray) -> np.ndarray:
        return np.asarray(items, dtype=np.int64) + self.features.item_offset

    def _pair_scores(self, users: np.ndarray, items: np.ndarray) -> Tensor:
        """Differentiable FM scores for parallel (user, item) arrays."""
        u_ids = self._user_feature_ids(users)
        i_ids = self._item_feature_ids(items)
        attr_flat, seg = self.features.batch_attrs(items)
        vu = F.take_rows(self.factors, u_ids)  # (B, d)
        vi = F.take_rows(self.factors, i_ids)  # (B, d)
        va = F.take_rows(self.factors, attr_flat)  # (A, d)
        attr_sum = F.segment_sum(va, seg)  # (B, d)
        attr_sq_sum = F.segment_sum(F.mul(va, va), seg)  # (B, d)
        total = F.add(F.add(vu, vi), attr_sum)
        sq_of_sum = F.sum(F.mul(total, total), axis=1)
        sum_of_sq = F.add(
            F.add(F.sum(F.mul(vu, vu), axis=1), F.sum(F.mul(vi, vi), axis=1)),
            F.sum(attr_sq_sum, axis=1),
        )
        pairwise = F.mul(F.sub(sq_of_sum, sum_of_sq), F.astensor(0.5, like=sq_of_sum))
        wu = F.reshape(F.take_rows(self.linear, u_ids), (len(users),))
        wi = F.reshape(F.take_rows(self.linear, i_ids), (len(users),))
        wa = F.reshape(
            F.segment_sum(F.take_rows(self.linear, attr_flat), seg), (len(users),)
        )
        return F.add(F.add(F.add(F.add(wu, wi), wa), pairwise), F.reshape(self.bias, (1,)))

    def batch_loss(
        self, users: np.ndarray, pos: np.ndarray, neg: np.ndarray, rng: np.random.Generator
    ) -> Tensor:
        pos_scores = self._pair_scores(users, pos)
        neg_scores = self._pair_scores(users, neg)
        loss = F.bpr_loss(pos_scores, neg_scores)
        vu = F.take_rows(self.factors, self._user_feature_ids(users))
        vi = F.take_rows(self.factors, self._item_feature_ids(pos))
        vj = F.take_rows(self.factors, self._item_feature_ids(neg))
        reg = F.mul(batch_l2(vu, vi, vj), F.astensor(self.l2 / len(users), like=vu))
        return F.add(loss, reg)

    def score_users(self, users: np.ndarray) -> np.ndarray:
        """Vectorized full-catalog scoring via item-side aggregates.

        Per item i: S_i = v_i + Σ_a v_a, L_i = w_i + Σ_a w_a,
        Q_i = ‖v_i‖² + Σ_a ‖v_a‖².  Then

            ŷ(u, i) = const_u + L_i + v_uᵀ S_i + ½(‖S_i‖² − Q_i)

        and const_u does not change the per-user ranking but is included for
        score interpretability.
        """
        users = np.asarray(users, dtype=np.int64)
        V = self.factors.data
        w = self.linear.data[:, 0]
        item_ids = self._item_feature_ids(np.arange(self.num_items, dtype=np.int64))
        S = V[item_ids].copy()
        L = w[item_ids].copy()
        Q = (V[item_ids] ** 2).sum(axis=1)
        flat, seg = self.features.batch_attrs(np.arange(self.num_items, dtype=np.int64))
        seg_ids = np.repeat(np.arange(self.num_items, dtype=np.int64), np.diff(seg))
        np.add.at(S, seg_ids, V[flat])
        np.add.at(L, seg_ids, w[flat])
        np.add.at(Q, seg_ids, (V[flat] ** 2).sum(axis=1))
        u_ids = self._user_feature_ids(users)
        vu = V[u_ids]
        const_u = float(self.bias.data[0]) + w[u_ids]
        cross = vu @ S.T
        item_term = L + 0.5 * ((S**2).sum(axis=1) - Q)
        return const_u[:, None] + cross + item_term[None, :]
