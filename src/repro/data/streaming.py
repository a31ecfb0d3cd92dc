"""Chunked (out-of-core) constructors for the dataset path.

Companions to :mod:`repro.facility.stream`: given a
:class:`~repro.facility.stream.TraceReader` these build the same
:class:`~repro.data.interactions.InteractionDataset` and train/test split the
monolithic path builds, without ever materializing the raw trace.  Bounded
scratch is the design rule throughout — per-block arrays plus degree-vector
accumulators; the only full-size allocation is the *output*.

Bit-identity arguments (each locked by tests):

- **Dedup.**  Blocks partition the user space in ascending order, so each
  block's sorted unique ``user * num_items + item`` keys occupy a disjoint,
  ascending key interval; their concatenation equals the globally sorted
  global unique — exactly what ``QueryTrace.unique_pairs`` produces (both
  call :func:`~repro.facility.trace.sorted_unique_pairs`).
- **Filtering.**  Both paths call the same
  :func:`~repro.data.interactions.kcore_filter_masks` fixed point; chunking
  only changes the order degree counts accumulate in (integer adds —
  associative).
- **Splitting.**  :func:`blocked_per_user_split` is a vectorized protocol
  with the same per-user guarantees as ``per_user_split`` (ceil train
  fraction, ≥1 test item for users with ≥2, singletons to train) but a
  different RNG realization — it ranks one uniform draw per interaction
  instead of ``rng.choice`` per user, which is what makes it O(n log n)
  total instead of a million-iteration Python loop.  It is therefore a
  *separate* function: cached splits produced by ``per_user_split`` keep
  their bits.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.data.interactions import (
    InteractionDataset,
    KCORE_MAX_ROUNDS,
    kcore_filter_masks,
)
from repro.data.sampling import check_pair_key_space
from repro.data.split import TrainTestSplit
from repro.facility.stream import TraceReader
from repro.facility.trace import sorted_unique_pairs
from repro.utils.rng import ensure_rng

__all__ = [
    "streamed_trace_to_interactions",
    "blocked_per_user_split",
]


def streamed_trace_to_interactions(
    reader: TraceReader,
    min_user_interactions: int = 5,
    min_item_interactions: int = 1,
    max_rounds: int = KCORE_MAX_ROUNDS,
) -> InteractionDataset:
    """Chunked ``trace_to_interactions``: dedup and filter block by block.

    Bit-identical to ``trace_to_interactions(reader.materialize())`` (same
    pairs, same order) while touching only one block of raw records at a
    time.  The deduplicated per-block pairs are retained across the k-core
    rounds — that working set is the size class of the *output*, not of the
    raw trace, which at query-trace densities is an order of magnitude
    smaller.
    """
    if min_user_interactions < 1 or min_item_interactions < 1:
        raise ValueError("minimum interaction counts must be >= 1")
    check_pair_key_space(reader.num_users, reader.num_objects)
    chunks: List[Tuple[np.ndarray, np.ndarray]] = [
        sorted_unique_pairs(users, objects, reader.num_objects)
        for users, objects in reader.pair_chunks()
    ]
    user_keep, item_keep = kcore_filter_masks(
        lambda: iter(chunks),
        reader.num_users,
        reader.num_objects,
        min_user_interactions,
        min_item_interactions,
        max_rounds=max_rounds,
    )
    kept_users: List[np.ndarray] = []
    kept_items: List[np.ndarray] = []
    for users, items in chunks:
        alive = user_keep[users] & item_keep[items]
        kept_users.append(users[alive])
        kept_items.append(items[alive])
    return InteractionDataset(
        np.concatenate(kept_users) if kept_users else np.zeros(0, np.int64),
        np.concatenate(kept_items) if kept_items else np.zeros(0, np.int64),
        reader.num_users,
        reader.num_objects,
    )


def blocked_per_user_split(
    data: InteractionDataset, train_fraction: float = 0.8, seed=0
) -> TrainTestSplit:
    """Vectorized per-user train/test split (the streaming protocol).

    Per-user guarantees match ``per_user_split`` exactly: each user with
    ``d ≥ 2`` interactions contributes ``min(ceil(d * train_fraction),
    d - 1)`` to train and the rest to test; singletons go to train.  The
    mechanism differs — each interaction draws one uniform and a user's
    lowest draws train — so the two functions realize different (equally
    valid) splits from the same seed; pick one per experiment and key caches
    accordingly.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    rng = ensure_rng(seed)
    n = len(data)
    draws = rng.random(n)
    # data is user-major, so lexsort by (user, draw) orders each user's
    # segment by draw; an interaction's within-segment position is its rank.
    order = np.lexsort((draws, data.user_ids))
    within = np.arange(n, dtype=np.int64) - data.user_offsets[data.user_ids]
    ranks = np.empty(n, dtype=np.int64)
    ranks[order] = within
    degree = data.user_degree()
    n_train = np.where(
        degree <= 1,
        degree,
        np.minimum(np.ceil(degree * train_fraction).astype(np.int64), degree - 1),
    )
    train_mask = ranks < n_train[data.user_ids]
    train = InteractionDataset(
        data.user_ids[train_mask], data.item_ids[train_mask], data.num_users, data.num_items
    )
    test = InteractionDataset(
        data.user_ids[~train_mask], data.item_ids[~train_mask], data.num_users, data.num_items
    )
    return TrainTestSplit(train=train, test=test)
