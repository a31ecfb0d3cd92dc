"""Frozen score index: a trained model compiled into two dense matrices.

A :class:`ScoreIndex` is the serving-side artifact of a training run: the
``(num_users, d)`` / ``(num_items, d)`` factor matrices a model exposes via
``scoring_factors()`` (for CKAT these are the layer-concat e* vectors after
propagation), plus the training-interaction CSR used as the exclusion mask.
Freezing happens once, at startup or offline; every request afterwards is a
block of inner products — no graph, no autograd, no model object.

Indexes persist through the content-addressed
:class:`~repro.store.artifacts.ArtifactStore` (kind ``score_index``): the
fingerprint covers the *builder config* (model/dataset/seed/epochs or
checkpoint), the arrays are uncompressed ``.npy`` served memory-mapped, and
a restarted server can reload by digest with neither the original dataset
nor the model code path present (see :meth:`ScoreIndex.by_digest`).

Retrieval scores each row with its own GEMV, then masks and selects the
whole block through the dispatch funnel's ``masked_select`` — the selection
half of the evaluator's fused ``masked_topk``.  A row's ids and scores are
therefore bit-identical whichever batch it rides in; against the offline
path the tested guarantee is ranking agreement with
``Recommender.recommend`` (``test_topk_users_matches_recommend``).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.kernels import dispatch
from repro.store import Artifact, ArtifactStore

__all__ = ["ScoreIndex"]


class ScoreIndex:
    """Precomputed user/item factor matrices plus the train-exclusion CSR.

    Scores factor as ``user_vecs[u] @ item_vecs.T``; the CSR
    (``train_indptr``/``train_indices``) lists each user's training positives,
    masked out of every response exactly as evaluation masks them.
    """

    KIND = "score_index"
    SCHEMA_VERSION = 1

    def __init__(
        self,
        user_vecs: np.ndarray,
        item_vecs: np.ndarray,
        train_indptr: np.ndarray,
        train_indices: np.ndarray,
        meta: Optional[dict] = None,
    ):
        user_vecs = np.asarray(user_vecs)
        item_vecs = np.asarray(item_vecs)
        if user_vecs.ndim != 2 or item_vecs.ndim != 2:
            raise ValueError("user_vecs and item_vecs must be 2-D factor matrices")
        if user_vecs.shape[1] != item_vecs.shape[1]:
            raise ValueError(
                f"factor dim mismatch: user {user_vecs.shape} vs item {item_vecs.shape}"
            )
        train_indptr = np.asarray(train_indptr, dtype=np.int64)
        train_indices = np.asarray(train_indices, dtype=np.int64)
        if train_indptr.shape != (user_vecs.shape[0] + 1,):
            raise ValueError(
                f"train_indptr must have num_users+1 entries, got {train_indptr.shape}"
            )
        if train_indices.size and (
            train_indices.min() < 0 or train_indices.max() >= item_vecs.shape[0]
        ):
            raise ValueError("train_indices contains item ids outside the index")
        self.user_vecs = user_vecs
        self.item_vecs = item_vecs
        self.train_indptr = train_indptr
        self.train_indices = train_indices
        self.meta = dict(meta or {})

    # ------------------------------------------------------------ properties
    @property
    def num_users(self) -> int:
        return self.user_vecs.shape[0]

    @property
    def num_items(self) -> int:
        return self.item_vecs.shape[0]

    @property
    def dim(self) -> int:
        return self.item_vecs.shape[1]

    def seen_items(self, user: int) -> np.ndarray:
        """Training positives of ``user`` (the ids masked from its responses)."""
        if not 0 <= user < self.num_users:
            raise ValueError(f"user {user} out of range [0, {self.num_users})")
        return self.train_indices[self.train_indptr[user] : self.train_indptr[user + 1]]

    # ---------------------------------------------------------------- freeze
    @classmethod
    def from_model(cls, model, train, meta: Optional[dict] = None) -> "ScoreIndex":
        """Freeze a trained :class:`~repro.models.base.Recommender`.

        Requires ``scoring_factors()`` (CKAT, BPRMF, CKE, CFKG — every model
        the evaluator fast-paths); ``train`` supplies the exclusion CSR.
        Factors are copied to contiguous float64 so the frozen index is
        independent of the live model's parameter buffers.
        """
        factors = model.scoring_factors()
        if factors is None:
            raise ValueError(
                f"{type(model).__name__} does not expose scoring_factors(); "
                "only inner-product-factorable models can be frozen into a "
                "ScoreIndex"
            )
        user_vecs, item_vecs = factors
        if train.num_users != user_vecs.shape[0] or train.num_items != item_vecs.shape[0]:
            raise ValueError(
                f"dataset shape ({train.num_users}×{train.num_items}) does not match "
                f"factors ({user_vecs.shape[0]}×{item_vecs.shape[0]})"
            )
        info = {"model": getattr(model, "name", type(model).__name__), "dim": user_vecs.shape[1]}
        info.update(meta or {})
        # np.array (not ascontiguousarray) to force a copy even when the
        # factors are already contiguous float64 — BPRMF hands back its live
        # parameter tables, and an aliased index would drift if the model
        # kept training.
        return cls(
            np.array(user_vecs, dtype=np.float64, order="C"),
            np.array(item_vecs, dtype=np.float64, order="C"),
            train.user_offsets,
            train.item_ids,
            meta=info,
        )

    # --------------------------------------------------------------- persist
    def _arrays(self) -> Dict[str, np.ndarray]:
        return {
            "user_vecs": self.user_vecs,
            "item_vecs": self.item_vecs,
            "train_indptr": self.train_indptr,
            "train_indices": self.train_indices,
        }

    def save(self, store: ArtifactStore, config: dict) -> Artifact:
        """Persist under ``config``'s content address; returns the artifact."""
        return store.put(self.KIND, config, self.SCHEMA_VERSION, self._arrays(), meta=self.meta)

    @classmethod
    def from_artifact(cls, artifact: Artifact) -> "ScoreIndex":
        """Rehydrate from a store entry; arrays stay memory-mapped."""
        return cls(
            artifact.array("user_vecs"),
            artifact.array("item_vecs"),
            artifact.array("train_indptr"),
            artifact.array("train_indices"),
            meta=artifact.meta,
        )

    @classmethod
    def load(cls, store: ArtifactStore, config: dict) -> Optional["ScoreIndex"]:
        """Load the index frozen under ``config``; ``None`` on miss."""
        artifact = store.get(cls.KIND, config, cls.SCHEMA_VERSION)
        return None if artifact is None else cls.from_artifact(artifact)

    @classmethod
    def by_digest(cls, store: ArtifactStore, digest_prefix: str) -> Optional["ScoreIndex"]:
        """Load by (a unique prefix of) the artifact digest.

        This is the kill-and-restart path: a server restarted with only the
        store and a digest reloads the exact frozen index without the
        original dataset, model code, or builder config at hand.
        """
        matches = [
            info for info in store.ls([cls.KIND]) if info.digest.startswith(digest_prefix)
        ]
        if not matches:
            return None
        if len(matches) > 1:
            raise ValueError(
                f"digest prefix {digest_prefix!r} is ambiguous: "
                f"{[m.digest[:16] for m in matches]}"
            )
        artifact = store.get(cls.KIND, matches[0].config, cls.SCHEMA_VERSION)
        return None if artifact is None else cls.from_artifact(artifact)

    # -------------------------------------------------------------- retrieval
    def topk_vectors(
        self,
        vecs: np.ndarray,
        k: int,
        mask_rows: np.ndarray,
        mask_cols: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rank arbitrary ``(B, d)`` user vectors against the frozen items.

        ``mask_rows``/``mask_cols`` are parallel index arrays of the
        ``(row, item)`` cells to mask (+inf) before selection — training
        positives for known users, observed interactions for fold-in users;
        repeated pairs are harmless.  Returns ``(ids, scores, valid)``:
        ``(B, k)`` item ids best-first, their scores, and per-row counts of
        *real* (unmasked) candidates; entries past ``valid[i]`` are masked
        filler carrying ``-inf`` scores.

        Bit-identity contract: each row is scored by its own GEMV into a
        per-call buffer, and masking and selection work row by row, so a
        row's ids *and scores* are byte-equal no matter which batch it rode
        in — the property the micro-batching front end relies on.
        """
        vecs = np.ascontiguousarray(vecs, dtype=np.float64)
        rows = vecs.shape[0]
        item_vecs = self.item_vecs
        num_items = item_vecs.shape[0]
        if not 0 < k <= num_items:
            raise ValueError(f"k must be in [1, {num_items}], got {k}")
        neg = np.empty((rows, num_items), dtype=np.float64)
        neg_vecs = -vecs  # exact, so each row holds -(item_vecs @ v) bitwise
        for r in range(rows):
            np.matmul(item_vecs, neg_vecs[r], out=neg[r])
        valid = np.empty(rows, dtype=np.int64)
        ids, neg_top = dispatch.masked_select(neg, k, mask_rows, mask_cols, valid_out=valid)
        # Masked columns hold +inf in the negated block; negating recovers
        # true scores with -inf flagging filler entries past each row's
        # valid count.
        return ids, -neg_top, valid

    def topk_users(self, users: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Top-``k`` for known users, training positives excluded.

        Gathers each user's vector and training-CSR row, then scores through
        :meth:`topk_vectors` — one funnel, so bulk results match
        per-request results bit-for-bit.
        """
        users = np.asarray(users, dtype=np.int64)
        if users.size and (users.min() < 0 or users.max() >= self.num_users):
            raise ValueError(f"user ids outside [0, {self.num_users})")
        mask_rows, mask_cols = dispatch.mask_pairs(
            self.train_indptr, self.train_indices, users
        )
        return self.topk_vectors(self.user_vecs[users], k, mask_rows, mask_cols)
