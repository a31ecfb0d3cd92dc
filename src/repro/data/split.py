"""Train/test splitting.

Section VI-A: "For each dataset, we randomly select 80% of each user's query
history for the training set and treat the remaining percentage as the test
set."  The split is therefore *per user*, and users with a single interaction
keep it in training (an empty training history would make them untrainable
and an empty test history makes them unevaluable — we prefer the former).
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from repro.data.interactions import InteractionDataset
from repro.utils.rng import ensure_rng

__all__ = ["TrainTestSplit", "per_user_split"]


@dataclasses.dataclass(frozen=True)
class TrainTestSplit:
    """A train/test pair of interaction datasets over the same id spaces."""

    train: InteractionDataset
    test: InteractionDataset

    def __post_init__(self):
        if (
            self.train.num_users != self.test.num_users
            or self.train.num_items != self.test.num_items
        ):
            raise ValueError("train and test must share id spaces")

    def assert_disjoint(self) -> None:
        """Raise if any (user, item) pair appears in both splits."""
        n = self.train.num_items
        train_keys = set((self.train.user_ids * n + self.train.item_ids).tolist())
        test_keys = set((self.test.user_ids * n + self.test.item_ids).tolist())
        overlap = train_keys & test_keys
        if overlap:
            raise AssertionError(f"{len(overlap)} interactions leak between splits")


def per_user_split(
    data: InteractionDataset, train_fraction: float = 0.8, seed=0
) -> TrainTestSplit:
    """Randomly split each user's interactions into train/test.

    Every user with ≥2 interactions contributes at least one to each side
    (ceil for train, at least 1 test), matching the paper's evaluation
    protocol where all retained users are rankable.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    rng = ensure_rng(seed)
    train_mask = np.zeros(len(data), dtype=bool)
    offsets = data.user_offsets.tolist()
    for lo, hi in zip(offsets[:-1], offsets[1:]):
        count = hi - lo
        if count == 0:
            continue
        if count == 1:
            train_mask[lo] = True
            continue
        n_train = math.ceil(count * train_fraction)
        n_train = min(n_train, count - 1)  # keep at least one test item
        chosen = rng.choice(count, size=n_train, replace=False)
        train_mask[lo + chosen] = True
    train = InteractionDataset(
        data.user_ids[train_mask], data.item_ids[train_mask], data.num_users, data.num_items
    )
    test = InteractionDataset(
        data.user_ids[~train_mask], data.item_ids[~train_mask], data.num_users, data.num_items
    )
    return TrainTestSplit(train=train, test=test)
