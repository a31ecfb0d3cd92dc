"""BPRMF: Bayesian-Personalized-Ranking matrix factorization.

The collaborative-filtering baseline of Table II (Rendle et al., 2012):
user and item embeddings, inner-product scoring, pairwise BPR loss.  Uses no
knowledge graph — its gap to the KG-aware models is the paper's evidence for
the value of auxiliary knowledge.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.autograd import Parameter, Tensor, xavier_uniform
from repro.autograd import functional as F
from repro.models.base import Recommender
from repro.utils.rng import ensure_rng

__all__ = ["BPRMF"]


class BPRMF(Recommender):
    """Pairwise matrix factorization from implicit feedback."""

    name = "BPRMF"

    def __init__(self, num_users: int, num_items: int, dim: int = 64, l2: float = 1e-5, seed=0):
        super().__init__(num_users, num_items)
        if dim <= 0:
            raise ValueError(f"dim must be positive, got {dim}")
        rng = ensure_rng(seed)
        self.dim = dim
        self.l2 = l2
        self.user_emb = Parameter(xavier_uniform((num_users, dim), rng), name="bprmf.user")
        self.item_emb = Parameter(xavier_uniform((num_items, dim), rng), name="bprmf.item")

    def parameters(self) -> List[Parameter]:
        return [self.user_emb, self.item_emb]

    def row_partitioned_parameters(self) -> List[Parameter]:
        # batch_loss gathers user_emb rows only at the batch's users, which a
        # sharded sampler keeps within one user shard — item rows are shared.
        return [self.user_emb]

    def batch_loss(
        self, users: np.ndarray, pos: np.ndarray, neg: np.ndarray, rng: np.random.Generator
    ) -> Tensor:
        return F.bpr_objective(self.user_emb, self.item_emb, users, pos, neg, self.l2)

    def score_users(self, users: np.ndarray) -> np.ndarray:
        users = np.asarray(users, dtype=np.int64)
        return self.user_emb.data[users] @ self.item_emb.data.T

    def scoring_factors(self):
        return self.user_emb.data, self.item_emb.data
