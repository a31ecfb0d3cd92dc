"""Fold-in: embed a brand-new user against the frozen item table.

A facility user with no training history sends their first few interactions;
retraining the model for them is off the table at serving time.  Instead the
engine places them in the *existing* embedding space:

1. **Warm start** — the mean of the observed items' frozen vectors, i.e. the
   centroid of what they touched.  Already a usable query point.
2. **Refinement** — a few BPR steps (Eq. 12) on the user vector ``w``
   against *frozen* item vectors.  With ``n`` (positive, negative) pairs
   and row differences ``D = P − N``, the objective ``mean(−log σ(D·w)) +
   l2·n·‖w‖²`` has the closed-form gradient ``−(σ(−D·w) @ D)/n +
   2·l2·n·w``, set as the dense grad of a ``(dim,)`` parameter stepped by
   the shared :class:`Adam` — no per-step graph.  All steps' negatives are
   drawn in one call, uniformly from the complement of the observed set.

The item table stays frozen on purpose: serving-time updates to shared item
vectors would silently shift every other user's rankings and break the
bit-identity contract between the frozen index and offline evaluation.  The
new user's vector is private state; nothing global moves.

Determinism: the negative-sampling RNG is seeded from :func:`content_digest`
of the engine seed and the (sorted, deduplicated) observed item ids — the
same digest the service derives fold-in handles from — so folding in the
same interaction set always yields the same vector, restarts included.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np

from repro.autograd import Adam, Parameter
from repro.serving.index import ScoreIndex

__all__ = ["FoldInConfig", "FoldInEngine", "content_digest"]


def content_digest(seed: int, items: np.ndarray) -> bytes:
    """SHA-256 of the seed and the sorted unique observed ``items``."""
    key = f"{seed}:" + ",".join(str(i) for i in items.tolist())
    return hashlib.sha256(key.encode("utf-8")).digest()


@dataclasses.dataclass(frozen=True)
class FoldInConfig:
    """Refinement hyperparameters; defaults tuned for a handful of items."""

    steps: int = 15
    lr: float = 0.05
    l2: float = 1e-4
    negatives_per_pos: int = 4
    seed: int = 0

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError(f"steps must be >= 0, got {self.steps}")
        if self.lr <= 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if self.l2 < 0:
            raise ValueError(f"l2 must be nonnegative, got {self.l2}")
        if self.negatives_per_pos <= 0:
            raise ValueError(
                f"negatives_per_pos must be positive, got {self.negatives_per_pos}"
            )


class FoldInEngine:
    """Embeds new users into a :class:`ScoreIndex`'s factor space."""

    def __init__(self, index: ScoreIndex, config: FoldInConfig = FoldInConfig()):
        self.index = index
        self.config = config

    def observed(self, item_ids) -> np.ndarray:
        """Sorted unique ``item_ids``; ``ValueError`` if empty or out of range."""
        num_items = self.index.num_items
        try:
            items = np.unique(np.asarray(item_ids, dtype=np.int64))
        except OverflowError:  # an id past int64 is out of range too
            bad = sorted({int(i) for i in item_ids if not 0 <= int(i) < num_items})
        else:
            if items.size == 0:
                raise ValueError("fold-in requires at least one observed item")
            bad = items[(items < 0) | (items >= num_items)].tolist()
        if bad:
            raise ValueError(f"fold-in item ids outside [0, {num_items}): {bad[:10]}")
        return items

    def negatives(self, items: np.ndarray) -> np.ndarray:
        """Row ``s``: step ``s``'s negative for each of ``np.repeat(items,
        negatives_per_pos)``, drawn from the complement of ``items``."""
        free = np.ones(self.index.num_items, dtype=bool)
        free[items] = False
        complement = np.flatnonzero(free)
        rng = np.random.default_rng(
            int.from_bytes(content_digest(self.config.seed, items)[:8], "little")
        )
        shape = (self.config.steps, self.config.negatives_per_pos * items.size)
        return complement[rng.integers(0, complement.size, size=shape)]

    def embed(self, item_ids) -> np.ndarray:
        """Return a ``(dim,)`` user vector for the observed ``item_ids``."""
        items = self.observed(item_ids)
        item_table = np.asarray(self.index.item_vecs)
        warm = item_table[items].mean(axis=0)
        if self.config.steps == 0 or items.size >= self.index.num_items:
            # Nothing to refine, or no negatives exist (BPR is undefined).
            return np.ascontiguousarray(warm, dtype=np.float64)
        pos = np.repeat(item_table[items], self.config.negatives_per_pos, axis=0)
        pairs = pos.shape[0]
        l2_scale = 2.0 * self.config.l2 * pairs
        user = Parameter(warm.copy(), name="foldin.user")
        optimizer = Adam([user], lr=self.config.lr)
        for neg in self.negatives(items):
            diff = pos - item_table[neg]
            # σ(−D·w) as exp(−softplus(D·w)): accurate even where it is tiny.
            sig_neg = np.exp(-np.logaddexp(0.0, diff @ user.data))
            user.grad = l2_scale * user.data - (sig_neg @ diff) / pairs
            optimizer.step()
        return np.ascontiguousarray(user.data, dtype=np.float64)
