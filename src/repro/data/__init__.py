"""Dataset pipeline: trace → implicit-feedback interactions → splits → batches.

Follows the paper's Section VI-A protocol: MovieLens-style preprocessing of
the raw query trace into deduplicated user–item pairs (with a minimum-
interaction filter), an 80/20 per-user random split, and BPR negative
sampling that pairs each observed interaction with an item the user has not
consumed.
"""

from repro.data.interactions import (
    InteractionDataset,
    check_pair_key_space,
    trace_to_interactions,
)
from repro.data.sampling import BPRSampler
from repro.data.split import TrainTestSplit, per_user_split

__all__ = [
    "InteractionDataset",
    "trace_to_interactions",
    "TrainTestSplit",
    "per_user_split",
    "BPRSampler",
    "check_pair_key_space",
]
