"""Implicit-feedback interaction dataset.

The paper preprocesses its query traces "building on the mechanisms used by
existing efforts for benchmark datasets, e.g., MovieLens" (Section VI-A):
repeated queries collapse to a single positive interaction ``y_uv = 1``, and
users below a minimum interaction count are dropped (they carry no learnable
signal and would make recall@20 degenerate).
"""

from __future__ import annotations


import numpy as np
import scipy.sparse as sp

from repro.facility.trace import QueryTrace

__all__ = [
    "InteractionDataset",
    "trace_to_interactions",
    "kcore_filter_masks",
    "check_pair_key_space",
    "KCORE_MAX_ROUNDS",
]


class InteractionDataset:
    """Deduplicated user–item pairs with CSR indexing by user.

    Attributes
    ----------
    user_ids, item_ids:
        Parallel int64 arrays of interaction pairs, sorted by user then item.
    num_users, num_items:
        Id-space sizes (row/column counts of the interaction matrix).
    """

    def __init__(self, user_ids: np.ndarray, item_ids: np.ndarray, num_users: int, num_items: int):
        user_ids = np.asarray(user_ids, dtype=np.int64)
        item_ids = np.asarray(item_ids, dtype=np.int64)
        if user_ids.shape != item_ids.shape:
            raise ValueError("user_ids and item_ids must have equal length")
        if user_ids.size:
            if user_ids.min() < 0 or user_ids.max() >= num_users:
                raise ValueError("user id out of range")
            if item_ids.min() < 0 or item_ids.max() >= num_items:
                raise ValueError("item id out of range")
        if _is_sorted_pairs(user_ids, item_ids):
            # The dedup and split outputs arrive sorted; copy so the dataset
            # owns its arrays, as the gather below does.
            self.user_ids = user_ids.copy()
            self.item_ids = item_ids.copy()
        else:
            order = np.lexsort((item_ids, user_ids))
            self.user_ids = user_ids[order]
            self.item_ids = item_ids[order]
        self.num_users = num_users
        self.num_items = num_items
        counts = np.bincount(self.user_ids, minlength=num_users)
        self.user_offsets = np.zeros(num_users + 1, dtype=np.int64)
        np.cumsum(counts, out=self.user_offsets[1:])

    def __len__(self) -> int:
        return len(self.user_ids)

    def items_of_user(self, user: int) -> np.ndarray:
        """Sorted item ids this user interacted with."""
        lo, hi = self.user_offsets[user], self.user_offsets[user + 1]
        return self.item_ids[lo:hi]

    def user_degree(self) -> np.ndarray:
        """Interactions per user."""
        return np.diff(self.user_offsets)

    def item_degree(self) -> np.ndarray:
        """Interactions per item (item popularity)."""
        return np.bincount(self.item_ids, minlength=self.num_items)

    def to_csr(self) -> sp.csr_matrix:
        """Binary interaction matrix as ``scipy.sparse.csr_matrix``."""
        data = np.ones(len(self.user_ids), dtype=np.float64)
        return sp.csr_matrix(
            (data, (self.user_ids, self.item_ids)), shape=(self.num_users, self.num_items)
        )

    def density(self) -> float:
        """Fraction of the user×item matrix that is observed."""
        total = self.num_users * self.num_items
        return len(self) / total if total else 0.0

    def active_users(self) -> np.ndarray:
        """Users with at least one interaction."""
        return np.flatnonzero(self.user_degree() > 0)

    def __repr__(self) -> str:
        return (
            f"InteractionDataset({len(self)} interactions, "
            f"{self.num_users} users × {self.num_items} items, "
            f"density {self.density():.4f})"
        )


def _is_sorted_pairs(users: np.ndarray, items: np.ndarray) -> bool:
    """Whether pairs ascend by user, then item (repeats allowed), in O(n).

    Compares neighbours instead of forming ``user * num_items + item`` keys,
    which could wrap.  Sorted input is what a stable ``lexsort`` would
    return unchanged.
    """
    if len(users) < 2:
        return True
    step = users[1:] - users[:-1]  # ids are range-checked, so no wrap
    if (step < 0).any():
        return False
    return bool(((step > 0) | (items[1:] >= items[:-1])).all())


def check_pair_key_space(num_users: int, num_items: int) -> None:
    """Guard the ``user * num_items + item`` key encoding against overflow.

    The largest key is ``num_users * num_items - 1``; past ``2**63 - 1`` the
    int64 product wraps silently and membership tests start comparing
    garbage.  No plausible catalog gets there by accident, but a mistyped id
    space does — fail loudly at construction, not probabilistically at
    sample time.
    """
    if int(num_users) * int(num_items) - 1 > np.iinfo(np.int64).max:
        raise ValueError(
            f"user/item key space {num_users} * {num_items} overflows int64; "
            "pair-membership keys (user * num_items + item) would wrap"
        )


#: Safety bound on k-core rounds.  Each round that does not converge drops at
#: least one user or item, so ``max(num_users, num_items)`` rounds always
#: suffice; this constant only exists to turn a logic bug into a loud error
#: instead of an unbounded loop.
KCORE_MAX_ROUNDS = 10_000


def kcore_filter_masks(
    users: np.ndarray,
    items: np.ndarray,
    num_users: int,
    num_items: int,
    min_user_interactions: int,
    min_item_interactions: int,
    max_rounds: int = KCORE_MAX_ROUNDS,
) -> "tuple[np.ndarray, np.ndarray]":
    """Fixed point of the alternating item/user degree filter.

    ``users`` and ``items`` are the deduplicated pairs.  Each round recounts
    item degrees over surviving pairs, drops items below
    ``min_item_interactions``, then does the same for users — the
    item-then-user order of the original single pass — until neither mask
    changes.  Returns boolean ``(user_keep, item_keep)``.
    """
    user_keep = np.ones(num_users, dtype=bool)
    item_keep = np.ones(num_items, dtype=bool)
    for _ in range(max_rounds):
        changed = False
        alive = user_keep[users] & item_keep[items]
        item_deg = np.bincount(items[alive], minlength=num_items)
        new_item = item_keep & (item_deg >= min_item_interactions)
        if not np.array_equal(new_item, item_keep):
            item_keep = new_item
            changed = True
        alive = user_keep[users] & item_keep[items]
        user_deg = np.bincount(users[alive], minlength=num_users)
        new_user = user_keep & (user_deg >= min_user_interactions)
        if not np.array_equal(new_user, user_keep):
            user_keep = new_user
            changed = True
        if not changed:
            return user_keep, item_keep
    raise RuntimeError(
        f"k-core filtering did not converge within {max_rounds} rounds "
        "(every non-final round must drop a user or item — this is a bug)"
    )


def trace_to_interactions(
    trace: QueryTrace,
    min_user_interactions: int = 5,
    min_item_interactions: int = 1,
) -> InteractionDataset:
    """MovieLens-style preprocessing: dedup, then k-core filtering.

    Users with fewer than ``min_user_interactions`` distinct items and items
    below ``min_item_interactions`` distinct users are removed, alternating
    item and user passes **to a fixed point**: dropping a thin user lowers
    item degrees, which can push items back under ``min_item_interactions``
    (and vice versa), so a single pass of each is not enough on heavy-tailed
    traces.  With the default ``min_item_interactions=1`` the fixed point
    coincides with the historical single pass — dropping a user cannot
    reduce a *surviving* item's degree to zero without deleting the item's
    last pair — so cached splits keep their bits.  Id spaces are preserved:
    filtered users/items simply have no pairs, and catalog indices stay
    valid.
    """
    if min_user_interactions < 1 or min_item_interactions < 1:
        raise ValueError("minimum interaction counts must be >= 1")
    check_pair_key_space(trace.num_users, trace.num_objects)
    users, items = trace.unique_pairs()
    user_keep, item_keep = kcore_filter_masks(
        users,
        items,
        trace.num_users,
        trace.num_objects,
        min_user_interactions,
        min_item_interactions,
    )
    alive = user_keep[users] & item_keep[items]
    return InteractionDataset(users[alive], items[alive], trace.num_users, trace.num_objects)
