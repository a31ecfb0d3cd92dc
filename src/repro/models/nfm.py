"""Neural Factorization Machine (He & Chua, 2017).

NFM replaces FM's scalar pairwise term with a *bi-interaction pooling*
vector

    f_BI(x) = ½ [ (Σ_x v_x)² − Σ_x v_x² ]          (elementwise, ∈ R^d)

followed by an MLP; per the paper's setup "we employ one hidden layer on
input features" (Section VI-C).  Features are the same user / item /
KG-entity design as :class:`repro.models.fm.FM`.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.autograd import Parameter, Tensor, xavier_uniform
from repro.autograd import functional as F
from repro.models.base import Recommender, batch_l2
from repro.models.fm import ItemFeatureTable
from repro.utils.rng import ensure_rng

__all__ = ["NFM"]


class NFM(Recommender):
    """FM subsumed under a neural network with one hidden layer."""

    name = "NFM"

    def __init__(
        self,
        num_users: int,
        num_items: int,
        features: ItemFeatureTable,
        dim: int = 64,
        hidden_dim: int = 64,
        dropout: float = 0.1,
        l2: float = 1e-5,
        seed=0,
    ):
        super().__init__(num_users, num_items)
        if dim <= 0 or hidden_dim <= 0:
            raise ValueError("dim and hidden_dim must be positive")
        if not 0.0 <= dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {dropout}")
        rng = ensure_rng(seed)
        self.features = features
        self.dim = dim
        self.hidden_dim = hidden_dim
        self.dropout = dropout
        self.l2 = l2
        self._train_mode = True
        self._rng = ensure_rng(rng.integers(2**31))
        n_feat = features.num_entities
        self.factors = Parameter(xavier_uniform((n_feat, dim), rng, gain=0.5), name="nfm.v")
        self.linear = Parameter(np.zeros((n_feat, 1), dtype=np.float64), name="nfm.w")
        self.bias = Parameter(np.zeros(1, dtype=np.float64), name="nfm.w0")
        self.W1 = Parameter(xavier_uniform((dim, hidden_dim), rng), name="nfm.W1")
        self.b1 = Parameter(np.zeros(hidden_dim, dtype=np.float64), name="nfm.b1")
        self.h = Parameter(xavier_uniform((hidden_dim, 1), rng), name="nfm.h")

    def parameters(self) -> List[Parameter]:
        return [self.factors, self.linear, self.bias, self.W1, self.b1, self.h]

    def extra_rng_state(self) -> dict:
        return {"dropout": self._rng.bit_generator.state}

    def restore_extra_rng_state(self, state: dict) -> None:
        self._rng.bit_generator.state = state["dropout"]

    # ------------------------------------------------------------- internals
    def _bi_interaction(self, users: np.ndarray, items: np.ndarray) -> Tensor:
        """Bi-interaction pooled vector per pair, shape (B, d)."""
        u_ids = np.asarray(users, dtype=np.int64) + self.features.user_offset
        i_ids = np.asarray(items, dtype=np.int64) + self.features.item_offset
        attr_flat, seg = self.features.batch_attrs(items)
        vu = F.take_rows(self.factors, u_ids)
        vi = F.take_rows(self.factors, i_ids)
        va = F.take_rows(self.factors, attr_flat)
        attr_sum = F.segment_sum(va, seg)
        attr_sq = F.segment_sum(F.mul(va, va), seg)
        total = F.add(F.add(vu, vi), attr_sum)
        sum_sq = F.add(F.add(F.mul(vu, vu), F.mul(vi, vi)), attr_sq)
        return F.mul(F.sub(F.mul(total, total), sum_sq), F.astensor(0.5, like=total))

    def _linear_term(self, users: np.ndarray, items: np.ndarray) -> Tensor:
        u_ids = np.asarray(users, dtype=np.int64) + self.features.user_offset
        i_ids = np.asarray(items, dtype=np.int64) + self.features.item_offset
        attr_flat, seg = self.features.batch_attrs(items)
        wu = F.reshape(F.take_rows(self.linear, u_ids), (len(users),))
        wi = F.reshape(F.take_rows(self.linear, i_ids), (len(users),))
        wa = F.reshape(F.segment_sum(F.take_rows(self.linear, attr_flat), seg), (len(users),))
        return F.add(F.add(wu, wi), wa)

    def _pair_scores(self, users: np.ndarray, items: np.ndarray, training: bool) -> Tensor:
        bi = self._bi_interaction(users, items)
        if training and self.dropout > 0:
            bi = F.dropout(bi, self.dropout, self._rng, training=True)
        hidden = F.relu(F.add(bi @ self.W1, self.b1))
        mlp = F.reshape(hidden @ self.h, (len(users),))
        return F.add(F.add(self._linear_term(users, items), mlp), F.reshape(self.bias, (1,)))

    # -------------------------------------------------------------- training
    def batch_loss(
        self, users: np.ndarray, pos: np.ndarray, neg: np.ndarray, rng: np.random.Generator
    ) -> Tensor:
        pos_scores = self._pair_scores(users, pos, training=True)
        neg_scores = self._pair_scores(users, neg, training=True)
        loss = F.bpr_loss(pos_scores, neg_scores)
        vu = F.take_rows(self.factors, users + self.features.user_offset)
        vi = F.take_rows(self.factors, pos + self.features.item_offset)
        vj = F.take_rows(self.factors, neg + self.features.item_offset)
        reg = F.mul(
            batch_l2(vu, vi, vj, self.W1, self.h), F.astensor(self.l2 / len(users), like=vu)
        )
        return F.add(loss, reg)

    # ------------------------------------------------------------- inference
    def score_users(self, users: np.ndarray) -> np.ndarray:
        """Full-catalog scores; evaluated in item chunks without the tape.

        Unlike plain FM, the MLP makes the score non-decomposable, so each
        (user, item) pair's bi-interaction vector is materialized — chunked
        so peak memory stays at ``chunk × d`` per user.
        """
        users = np.asarray(users, dtype=np.int64)
        V = self.factors.data
        w = self.linear.data[:, 0]
        n = self.num_items
        # Precompute item-side aggregates once.
        item_ids = np.arange(n, dtype=np.int64) + self.features.item_offset
        S = V[item_ids].copy()  # Σ item-side factors
        L = w[item_ids].copy()
        Q = (V[item_ids] ** 2).sum(axis=1)
        flat, seg = self.features.batch_attrs(np.arange(n, dtype=np.int64))
        seg_ids = np.repeat(np.arange(n, dtype=np.int64), np.diff(seg))
        np.add.at(S, seg_ids, V[flat])
        np.add.at(L, seg_ids, w[flat])
        np.add.at(Q, seg_ids, (V[flat] ** 2).sum(axis=1))
        item_sq = V[item_ids] ** 2  # Σ_x v_x² per item over {item} ∪ attrs, (n, d)
        np.add.at(item_sq, seg_ids, V[flat] ** 2)
        out = np.empty((len(users), n), dtype=np.float64)
        W1, b1, h = self.W1.data, self.b1.data, self.h.data[:, 0]
        bias = float(self.bias.data[0])
        for row, user in enumerate(users):
            vu = V[user + self.features.user_offset]
            total = vu[None, :] + S  # (n, d)
            bi = 0.5 * (total**2 - ((vu**2)[None, :] + item_sq))
            hidden = np.maximum(bi @ W1 + b1, 0.0)
            out[row] = bias + w[user + self.features.user_offset] + L + hidden @ h
        return out
