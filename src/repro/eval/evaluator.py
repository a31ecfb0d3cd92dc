"""Vectorized full-ranking evaluator.

For each batch of test users the evaluator writes the batch's negated
(users × items) scores into a reusable float64 buffer, masks the users'
training items and takes each row's top K through
:func:`repro.kernels.dispatch.masked_select` (the package's one selection),
then accumulates recall/ndcg/precision/hit vectorized across the batch.

The hot path is loop-free (DESIGN.md §6):

- train/test interactions are indexed as CSR (``indptr``/``indices``) once at
  construction; per batch, ``mask_pairs`` turns the batch's training rows
  into (row, item) cells and ``masked_select`` masks them in one assignment;
- hit flags come from a single ``searchsorted`` of the batch's top-K
  ``user * num_items + item`` keys against the globally sorted test keys —
  no per-row ``np.isin``;
- per-user metrics accumulate into preallocated arrays, and the dense score
  matrix lives in a reusable buffer, so steady-state evaluation performs no
  per-batch ``users × items`` allocation.

Only users with at least one test interaction are evaluated (the paper's
protocol: metrics are means over test users).  Because every step is
row-wise, per-user metric values are independent of batching — the property
the sharded evaluator (:mod:`repro.eval.sharded`) relies on for exactness.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from repro.data.interactions import InteractionDataset
from repro.kernels import dispatch

__all__ = ["EvaluationResult", "PerUserMetrics", "RankingEvaluator"]


@dataclasses.dataclass(frozen=True)
class EvaluationResult:
    """Aggregated ranking metrics over the evaluated users."""

    recall: float
    ndcg: float
    precision: float
    hit: float
    k: int
    num_users: int

    def as_dict(self) -> Dict[str, float]:
        return {
            f"recall@{self.k}": self.recall,
            f"ndcg@{self.k}": self.ndcg,
            f"precision@{self.k}": self.precision,
            f"hit@{self.k}": self.hit,
        }

    def __str__(self) -> str:
        return (
            f"recall@{self.k}={self.recall:.4f} ndcg@{self.k}={self.ndcg:.4f} "
            f"({self.num_users} users)"
        )


@dataclasses.dataclass(frozen=True)
class PerUserMetrics:
    """Per-user metric vectors, aligned with ``users``.

    This is the mergeable form of an evaluation: concatenating the
    per-user vectors of contiguous user shards (in shard order) rebuilds
    exactly the arrays a single serial pass would produce, so the reduced
    means are bit-identical — the exactness contract of
    :func:`repro.eval.sharded.sharded_evaluate`.
    """

    users: np.ndarray
    recall: np.ndarray
    ndcg: np.ndarray
    precision: np.ndarray
    hit: np.ndarray
    k: int

    def reduce(self) -> EvaluationResult:
        """Mean the per-user vectors into an :class:`EvaluationResult`."""
        if self.users.size == 0:
            raise ValueError("cannot reduce an empty PerUserMetrics")
        return EvaluationResult(
            recall=float(np.mean(self.recall)),
            ndcg=float(np.mean(self.ndcg)),
            precision=float(np.mean(self.precision)),
            hit=float(np.mean(self.hit)),
            k=self.k,
            num_users=int(self.users.size),
        )

    @staticmethod
    def concatenate(parts: Sequence["PerUserMetrics"]) -> "PerUserMetrics":
        """Stitch shard results back together in shard order."""
        if not parts:
            raise ValueError("no shard results to concatenate")
        ks = {p.k for p in parts}
        if len(ks) != 1:
            raise ValueError(f"shards evaluated at different k: {sorted(ks)}")
        return PerUserMetrics(
            users=np.concatenate([p.users for p in parts]),
            recall=np.concatenate([p.recall for p in parts]),
            ndcg=np.concatenate([p.ndcg for p in parts]),
            precision=np.concatenate([p.precision for p in parts]),
            hit=np.concatenate([p.hit for p in parts]),
            k=parts[0].k,
        )


class RankingEvaluator:
    """Evaluates a scoring function against a train/test interaction pair.

    Parameters
    ----------
    train, test:
        Interaction datasets sharing id spaces.  Training items are masked
        from rankings; test items are the relevance sets.
    k:
        Cutoff (paper default 20).
    user_batch:
        Number of users scored per model call — bounds the dense score
        matrix to ``user_batch × num_items`` floats.
    """

    def __init__(
        self,
        train: InteractionDataset,
        test: InteractionDataset,
        k: int = 20,
        user_batch: int = 256,
    ):
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        if user_batch <= 0:
            raise ValueError(f"user_batch must be positive, got {user_batch}")
        if train.num_users != test.num_users or train.num_items != test.num_items:
            raise ValueError("train and test must share id spaces")
        self.train = train
        self.test = test
        self.k = k
        self.user_batch = user_batch
        self.eval_users = test.active_users()
        # CSR views over the (already user-sorted) interaction arrays.
        self._train_indptr = train.user_offsets
        self._train_indices = train.item_ids
        self._test_indptr = test.user_offsets
        self._test_degree = test.user_degree()
        # Test membership keys: user-major, item-minor — globally sorted
        # because the dataset arrays are lexsorted by (user, item).
        self._test_keys = test.user_ids * np.int64(test.num_items) + test.item_ids
        # DCG position discounts and the IDCG lookup (index = min(rel, k) - 1).
        self._discounts = 1.0 / np.log2(np.arange(2, k + 2, dtype=np.float64))
        self._idcg = np.cumsum(self._discounts)
        # Reusable score buffer, grown lazily to (user_batch, num_items).
        self._score_buf: Optional[np.ndarray] = None

    # ------------------------------------------------------------ internals
    def _resolve_users(self, users: Optional[np.ndarray]) -> np.ndarray:
        """Default to all test-active users; strictly validate subsets.

        An explicit ``users=`` array must contain in-range users that all
        have test interactions — silently dropping empty-test users would
        make ``num_users`` (and the metric means) lie about the requested
        population.
        """
        if users is None:
            return self.eval_users
        users = np.asarray(users, dtype=np.int64)
        if users.size:
            if users.min() < 0 or users.max() >= self.test.num_users:
                bad = users[(users < 0) | (users >= self.test.num_users)]
                raise ValueError(f"user ids out of range: {np.unique(bad).tolist()}")
            empty = users[self._test_degree[users] == 0]
            if empty.size:
                raise ValueError(
                    "users with no test interactions cannot be evaluated: "
                    f"{np.unique(empty).tolist()}"
                )
        return users

    def _score_buffer(self, rows: int) -> np.ndarray:
        """A reusable (rows, num_items) view of the internal score buffer."""
        n_items = self.train.num_items
        if self._score_buf is None or self._score_buf.shape[0] < rows:
            self._score_buf = np.empty((rows, n_items), dtype=np.float64)
        return self._score_buf[:rows]

    def _rank_batches(
        self,
        users: Optional[np.ndarray],
        rank_batch: Callable[[np.ndarray, np.ndarray], np.ndarray],
    ) -> PerUserMetrics:
        """The protocol's batch loop, shared by the score-function and factor
        paths so both feed the identical metric pipeline.

        ``rank_batch(batch, neg_buf)`` fills the reusable float64 buffer rows
        with the batch's negated scores and returns their masked top-``k`` ids
        (``(len(batch), k)``, best first).  Hit flags come from one
        ``searchsorted`` of the batch's (user, item) keys against the sorted
        global test keys.
        """
        users = self._resolve_users(users)
        if users.size == 0:
            raise ValueError("no users to evaluate")
        k = self.k
        n_items = self.train.num_items
        if k > n_items:
            raise ValueError(f"k={k} exceeds the number of items {n_items}")
        recall, ndcg, precision, hit = np.empty((4, len(users)), dtype=np.float64)
        for start in range(0, len(users), self.user_batch):
            batch = users[start : start + self.user_batch]
            top = rank_batch(batch, self._score_buffer(len(batch)))
            keys = (batch[:, None] * np.int64(n_items) + top).ravel()
            idx = np.minimum(np.searchsorted(self._test_keys, keys), len(self._test_keys) - 1)
            gains = (self._test_keys[idx] == keys).astype(np.float64).reshape(len(batch), k)
            n_hit = gains.sum(axis=1)
            rel = self._test_degree[batch]
            sl = slice(start, start + len(batch))
            recall[sl] = n_hit / rel
            precision[sl] = n_hit / k
            hit[sl] = n_hit > 0
            ndcg[sl] = (gains @ self._discounts) / self._idcg[np.minimum(rel, k) - 1]
        return PerUserMetrics(
            users=users, recall=recall, ndcg=ndcg, precision=precision, hit=hit, k=k
        )

    # -------------------------------------------------------------- protocol
    def evaluate_per_user(
        self, score_fn, users: Optional[np.ndarray] = None
    ) -> PerUserMetrics:
        """Run the protocol, returning per-user metric vectors.

        Parameters
        ----------
        score_fn:
            Callable ``(user_ids: int64[B]) -> float[B, num_items]``.
        users:
            Subset of users to evaluate; defaults to all test-active users.
            Every explicit user must have at least one test interaction.
        """
        n_items = self.train.num_items
        held = None

        def rank_batch(batch: np.ndarray, neg_scores: np.ndarray) -> np.ndarray:
            nonlocal held
            raw = np.asarray(score_fn(batch))
            if raw.shape != (len(batch), n_items):
                raise ValueError(
                    f"score_fn returned shape {raw.shape}, expected {(len(batch), n_items)}"
                )
            # Fused copy + negate into the reusable buffer: one pass, no
            # per-batch (users × items) allocation.
            np.multiply(raw, -1.0, out=neg_scores)
            # Free each score block only once the next one exists.  A
            # multi-MB block freed at the top of the heap is trimmed back to
            # the OS (glibc), so the next batch would page-fault a fresh one:
            # 1.7x slower ``evaluate`` on the 2k-user problem of
            # ``benchmarks/test_bench_eval.py`` (2-vCPU x86 VM, one BLAS thread).
            held = raw
            mask_rows, mask_cols = dispatch.mask_pairs(
                self._train_indptr, self._train_indices, batch
            )
            return dispatch.masked_select(neg_scores, self.k, mask_rows, mask_cols)[0]

        return self._rank_batches(users, rank_batch)

    def evaluate(self, score_fn, users: Optional[np.ndarray] = None) -> EvaluationResult:
        """Run the protocol and reduce to metric means (the paper's numbers)."""
        return self.evaluate_per_user(score_fn, users).reduce()

    # --------------------------------------------------------- factor scoring
    def evaluate_factors_per_user(
        self,
        user_vecs: np.ndarray,
        item_vecs: np.ndarray,
        users: Optional[np.ndarray] = None,
    ) -> PerUserMetrics:
        """Protocol over inner-product factors ``scores = user_vecs @ item_vecsᵀ``.

        For models whose scores factor through embedding matrices (CKAT,
        BPR-MF, …) this skips the score-function indirection: per batch the
        fused :func:`repro.kernels.dispatch.masked_topk` writes the negated
        product straight into the reusable score buffer and selects through
        ``masked_select`` — no raw ``(B, N)`` score matrix or separate
        copy-negate pass.  float32 factors (CKAT) are multiplied at their own
        precision and widened into the float64 buffer, exactly as a float32
        ``score_fn`` is on :meth:`evaluate_per_user`.
        """
        user_vecs = np.asarray(user_vecs)
        item_vecs = np.asarray(item_vecs)
        n_items = self.train.num_items
        if user_vecs.ndim != 2 or user_vecs.shape[0] != self.train.num_users:
            raise ValueError(
                f"user_vecs must be (num_users, dim), got {user_vecs.shape}"
            )
        if item_vecs.ndim != 2 or item_vecs.shape != (n_items, user_vecs.shape[1]):
            raise ValueError(
                f"item_vecs must be ({n_items}, {user_vecs.shape[1]}), got {item_vecs.shape}"
            )
        return self._rank_batches(
            users,
            lambda batch, neg_buf: dispatch.masked_topk(
                user_vecs[batch],
                item_vecs,
                self.k,
                neg_buf,
                self._train_indptr,
                self._train_indices,
                batch,
            ),
        )

    def evaluate_factors(
        self,
        user_vecs: np.ndarray,
        item_vecs: np.ndarray,
        users: Optional[np.ndarray] = None,
    ) -> EvaluationResult:
        """Factor-path protocol reduced to metric means."""
        return self.evaluate_factors_per_user(user_vecs, item_vecs, users).reduce()

    def evaluate_model(self, model, users: Optional[np.ndarray] = None) -> EvaluationResult:
        """Evaluate a :class:`~repro.models.base.Recommender` the fastest way.

        Models exposing :meth:`~repro.models.base.Recommender.scoring_factors`
        take the factor path (one representation pass for the whole
        evaluation); everything else goes through ``score_users``.
        """
        factors = model.scoring_factors()
        if factors is not None:
            return self.evaluate_factors(*factors, users=users)
        return self.evaluate(model.score_users, users)
