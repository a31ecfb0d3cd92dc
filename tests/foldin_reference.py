"""The step-by-step fold-in — the bit oracle for the one-pass serving path.

:func:`reference_fold_in` runs fold-in the plain way: the complement of the
observed set as a ``num_items``-long boolean mask plus ``flatnonzero``, a
per-step gather and difference, and the user vector as a ``Parameter``
stepped by ``Adam``.  ``RecommendService.fold_in`` must return the same
handle and the same vector bytes.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import Adam, Parameter
from repro.serving.foldin import FoldInConfig, content_digest
from repro.serving.index import ScoreIndex


def reference_negatives(index: ScoreIndex, config: FoldInConfig, items: np.ndarray) -> np.ndarray:
    """Row ``s``: step ``s``'s negatives, drawn from the masked complement."""
    free = np.ones(index.num_items, dtype=bool)
    free[items] = False
    complement = np.flatnonzero(free)
    rng = np.random.default_rng(
        int.from_bytes(content_digest(config.seed, items)[:8], "little")
    )
    shape = (config.steps, config.negatives_per_pos * items.size)
    return complement[rng.integers(0, complement.size, size=shape)]


def reference_embed(index: ScoreIndex, config: FoldInConfig, items: np.ndarray) -> np.ndarray:
    """The ``(dim,)`` vector for sorted unique ``items``, one step at a time."""
    item_table = np.asarray(index.item_vecs)
    warm = item_table[items].mean(axis=0)
    if config.steps == 0 or items.size >= index.num_items:
        return np.ascontiguousarray(warm, dtype=np.float64)
    pos = np.repeat(item_table[items], config.negatives_per_pos, axis=0)
    pairs = pos.shape[0]
    l2_scale = 2.0 * config.l2 * pairs
    user = Parameter(warm.copy(), name="foldin.user")
    optimizer = Adam([user], lr=config.lr)
    for neg in reference_negatives(index, config, items):
        diff = pos - item_table[neg]
        sig_neg = np.exp(-np.logaddexp(0.0, diff @ user.data))
        user.grad = l2_scale * user.data - (sig_neg @ diff) / pairs
        optimizer.step()
    return np.ascontiguousarray(user.data, dtype=np.float64)


def reference_fold_in(index: ScoreIndex, config: FoldInConfig, item_ids):
    """``(handle, vector)`` as ``RecommendService.fold_in`` minted them."""
    items = np.unique(np.asarray(item_ids, dtype=np.int64))
    vector = reference_embed(index, config, items)
    return "foldin-" + content_digest(config.seed, items).hex()[:12], vector
