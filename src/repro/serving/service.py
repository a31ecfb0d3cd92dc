"""Request-level recommendation service over a frozen :class:`ScoreIndex`.

One :meth:`RecommendService.recommend_many` call scores a whole micro-batch
of requests — known users and fold-in handles mixed freely — through one
:meth:`ScoreIndex.topk_vectors` call per distinct ``k``: a GEMV per request
row, then one masked selection over the group.  Sub-batching by ``k``
is a correctness decision, not a convenience: selecting ``k_max`` candidates
and truncating each row to its own ``k`` is *not* tie-identical to selecting
``k`` directly (the partial selection may admit a different member of a
tied cohort at the wider cut), and the service promises batched responses
bit-identical to single-request scoring.

Known users resolve their vector through an LRU cache (copying the row out
of the memory-mapped index once), and their training positives are masked.
Fold-in users carry a private vector from :class:`FoldInEngine` and mask the
interactions they folded in on.  A group's exclusions go to the selection as
(row, item) pairs, built with one ``repeat`` and one ``concatenate``
whatever the group's size.  Every response row is truncated to its
real-candidate count, and the group's kept scores are asserted finite in
one check — a masked id can never escape.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.serving.cache import LRUCache
from repro.serving.foldin import FoldInConfig, FoldInEngine, content_digest
from repro.serving.index import ScoreIndex

__all__ = ["RecommendService"]


class RecommendService:
    """Validates, batches, and scores recommendation requests."""

    def __init__(
        self,
        index: ScoreIndex,
        foldin_config: Optional[FoldInConfig] = None,
        cache_capacity: int = 512,
    ):
        self.index = index
        self.foldin = FoldInEngine(index, foldin_config or FoldInConfig())
        self.user_cache = LRUCache(cache_capacity)
        # handle -> (vector, observed item ids); private per-handle state,
        # never written back into the shared index.
        self._foldin_users: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
        self.requests_served = 0
        self.batches = 0
        self.kernel_calls = 0
        self.max_batch = 0

    # ------------------------------------------------------------ validation
    def validate_request(self, request: dict) -> None:
        """Raise ``ValueError`` for a malformed request dict.

        A request names exactly one of ``user`` (known id) or ``handle``
        (fold-in), plus a positive ``k``.  Called per request *before*
        batching so one bad request 400s alone instead of failing its batch.
        """
        has_user = request.get("user") is not None
        has_handle = request.get("handle") is not None
        if has_user == has_handle:
            raise ValueError("request must name exactly one of 'user' or 'handle'")
        if has_user:
            user = int(request["user"])
            if not 0 <= user < self.index.num_users:
                raise ValueError(
                    f"user {user} out of range [0, {self.index.num_users})"
                )
        else:
            handle = str(request["handle"])
            if handle not in self._foldin_users:
                raise ValueError(f"unknown fold-in handle {handle!r}")
        k = int(request.get("k", 0))
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")

    # --------------------------------------------------------------- fold-in
    def fold_in(self, item_ids) -> str:
        """Embed a new user from observed interactions; returns a handle.

        The handle is content-derived (seed + sorted item ids), so folding
        in the same interaction set — in any order, before or after a
        restart — yields the same handle and the same vector.  Observing
        *more* interactions mints a new handle with a refreshed embedding.
        """
        items = self.foldin.observed(item_ids)
        digest = content_digest(self.foldin.config.seed, items)
        handle = "foldin-" + digest.hex()[:12]
        self._foldin_users[handle] = (self.foldin.refine(items, digest), items)
        return handle

    # ------------------------------------------------------------- resolution
    def _resolve(self, request: dict) -> Tuple[np.ndarray, np.ndarray]:
        """(vector, exclusion item ids) for one validated request.

        A known user's pair is cached: the vector copied out of the
        memory-mapped index once, with its training-CSR row beside it.
        """
        user = request.get("user")
        if user is None:
            return self._foldin_users[str(request["handle"])]
        user = int(user)
        cached = self.user_cache.get(user)
        if cached is None:
            cached = (
                np.array(self.index.user_vecs[user], dtype=np.float64),
                self.index.seen_items(user),
            )
            self.user_cache.put(user, cached)
        return cached

    # ---------------------------------------------------------------- scoring
    def recommend_many(self, requests: List[dict]) -> List[dict]:
        """Score a micro-batch; responses align with ``requests``.

        Each response carries the request identity, the effective ``k``, and
        parallel ``items``/``scores`` lists truncated to real candidates.
        """
        for request in requests:
            self.validate_request(request)
        responses: List[Optional[dict]] = [None] * len(requests)
        by_k: Dict[int, List[int]] = {}
        num_items = self.index.num_items
        for i, request in enumerate(requests):
            by_k.setdefault(min(int(request["k"]), num_items), []).append(i)
        for k, members in by_k.items():
            vecs = np.empty((len(members), self.index.dim), dtype=np.float64)
            excludes = []
            for row, i in enumerate(members):
                vecs[row], seen = self._resolve(requests[i])
                excludes.append(seen)
            mask_rows = np.arange(len(members), dtype=np.int64).repeat(
                [e.size for e in excludes]
            )
            ids, scores, valid = self.index.topk_vectors(
                vecs, k, mask_rows, np.concatenate(excludes)
            )
            self.kernel_calls += 1
            if not np.isfinite(scores[np.arange(k) < valid[:, None]]).all():
                raise AssertionError(
                    "masked (-inf) candidate survived into a response row — "
                    "valid-count truncation contract violated"
                )
            for i, n, row_ids, row_scores in zip(
                members, valid.tolist(), ids.tolist(), scores.tolist()
            ):
                response = {"k": k, "items": row_ids[:n], "scores": row_scores[:n]}
                request = requests[i]
                if request.get("user") is not None:
                    response["user"] = int(request["user"])
                else:
                    response["handle"] = str(request["handle"])
                responses[i] = response
        self.requests_served += len(requests)
        self.batches += 1
        self.max_batch = max(self.max_batch, len(requests))
        return responses  # type: ignore[return-value]

    def recommend_one(self, request: dict) -> dict:
        """Single-request path; by construction identical to batch member."""
        return self.recommend_many([request])[0]

    # ------------------------------------------------------------------ stats
    def stats(self) -> dict:
        return {
            "requests_served": self.requests_served,
            "batches": self.batches,
            "kernel_calls": self.kernel_calls,
            "max_batch": self.max_batch,
            "foldin_users": len(self._foldin_users),
            "user_cache": self.user_cache.stats(),
            "index": {
                "num_users": self.index.num_users,
                "num_items": self.index.num_items,
                "dim": self.index.dim,
            },
        }
