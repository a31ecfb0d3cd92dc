"""Persistence: save/load model weights and training checkpoints.

Everything serializes to NumPy ``.npz`` archives — no pickle, so files are
portable, inspectable, and safe to load from untrusted sources.
"""

from repro.io.checkpoints import (
    TrainingCheckpoint,
    load_parameters,
    load_training_checkpoint,
    normalize_checkpoint_path,
    save_parameters,
    save_training_checkpoint,
)

__all__ = [
    "save_parameters",
    "load_parameters",
    "normalize_checkpoint_path",
    "TrainingCheckpoint",
    "save_training_checkpoint",
    "load_training_checkpoint",
]
