"""Shared model interface over the :mod:`repro.train` engine.

Every model implements three hooks:

- ``parameters()`` — trainable :class:`~repro.autograd.tensor.Parameter` list;
- ``batch_loss(users, pos, neg, rng)`` — the training objective for one
  minibatch of (user, positive item, negative item) triples;
- ``score_users(users)`` — dense float scores (B × num_items) for ranking.

:meth:`Recommender.fit` drives the paper's optimization recipe — Adam, batch
size 512, epoch-wise BPR batches with fresh negative sampling — by
delegating to :class:`repro.train.TrainEngine`, whose
:class:`~repro.train.SerialExecutor` reproduces the historical in-process
loop bit-for-bit.  Models with auxiliary objectives (TransR/TransE phases
in CKE, CFKG, CKAT) override ``extra_epoch_step`` to run their alternating
phase once per epoch through the engine-provided step callable — model code
never touches the optimizer directly (reprolint RPL015).

``FitConfig``/``FitResult`` live in :mod:`repro.train.engine` and are
re-exported here for compatibility.
"""

from __future__ import annotations

import pathlib
from typing import Callable, List, Optional, Tuple, Union

import numpy as np

from repro.autograd import Parameter, Tensor
from repro.autograd import functional as F
from repro.data.interactions import InteractionDataset
from repro.kernels import dispatch
from repro.train.engine import FitConfig, FitResult, StepFn, TrainEngine
from repro.utils.telemetry import RunLogger

__all__ = ["FitConfig", "FitResult", "Recommender", "batch_l2"]

PathLike = Union[str, pathlib.Path]


def batch_l2(*tensors: Tensor) -> Tensor:
    """Sum of squared norms of the given (batch-gathered) tensors.

    The paper's λ‖Θ‖² regularizer is applied per batch to the embeddings the
    batch touched — standard BPR practice, which regularizes active rows
    proportionally to how often they are trained.
    """
    total = F.squared_norm(tensors[0])
    for t in tensors[1:]:
        total = F.add(total, F.squared_norm(t))
    return total


class Recommender:
    """Base class for all recommendation models."""

    name: str = "recommender"

    def __init__(self, num_users: int, num_items: int):
        if num_users <= 0 or num_items <= 0:
            raise ValueError("num_users and num_items must be positive")
        self.num_users = num_users
        self.num_items = num_items

    # ------------------------------------------------------------ interface
    def parameters(self) -> List[Parameter]:
        """Trainable parameters (used to build the optimizer)."""
        raise NotImplementedError

    def batch_loss(
        self, users: np.ndarray, pos: np.ndarray, neg: np.ndarray, rng: np.random.Generator
    ) -> Tensor:
        """Scalar training loss for one (user, pos, neg) batch."""
        raise NotImplementedError

    def score_users(self, users: np.ndarray) -> np.ndarray:
        """Dense prediction scores, shape (len(users), num_items)."""
        raise NotImplementedError

    def scoring_factors(self) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Optional factorization of ``score_users`` as an inner product.

        Models whose scores are ``user_vecs[u] @ item_vecs.T`` return the two
        dense factor matrices ``(user_vecs, item_vecs)`` — shapes
        ``(num_users, d)`` and ``(num_items, d)`` — letting
        :meth:`repro.eval.evaluator.RankingEvaluator.evaluate_model` compute
        representations once per evaluation and rank through the fused
        score+mask+top-k kernel.  Default ``None``: scores do not factor (or
        nobody has bothered), so evaluation falls back to ``score_users``.
        """
        return None

    def extra_epoch_step(
        self, step: StepFn, rng: np.random.Generator, config: FitConfig
    ) -> float:
        """Auxiliary per-epoch training phase (e.g. TransR); returns its loss.

        ``step`` is the engine-provided optimization funnel:
        ``step(loss_fn)`` zero-grads, evaluates ``loss_fn()``,
        backpropagates, applies the optimizer, and returns the loss value.
        Models run their alternating phase through it instead of holding the
        optimizer (reprolint RPL015), so every update stays visible to the
        engine's step count and checkpoints.  Default: nothing to do.
        """
        return 0.0

    def on_epoch_end(self) -> None:
        """Hook invoked after each epoch (CKAT refreshes attention here)."""

    def extra_rng_state(self) -> Optional[dict]:
        """State of model-owned generators beyond the training-loop RNG.

        Models that seed private generators at construction (CKAT's and
        NFM's dropout RNGs) return a JSON-serializable dict of
        ``bit_generator.state`` dicts keyed by their own labels, so
        checkpoints capture *all* randomness and kill-and-resume stays
        bit-identical even with dropout active.  Default: ``None`` (no
        private generators).
        """
        return None

    def restore_extra_rng_state(self, state: dict) -> None:
        """Restore the generator states captured by :meth:`extra_rng_state`.

        Only called with a non-``None`` state; the default raises because a
        checkpoint carrying extra RNG state but a model with nowhere to put
        it means the save/restore hooks are out of sync.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement restore_extra_rng_state "
            "but the checkpoint carries extra RNG state"
        )

    # ------------------------------------------------------------- training
    def fit(
        self,
        train: InteractionDataset,
        config: Optional[FitConfig] = None,
        eval_callback: Optional[Callable[[], dict]] = None,
        *,
        checkpoint_every: int = 0,
        checkpoint_path: Optional[PathLike] = None,
        resume_from: Optional[PathLike] = None,
        logger: Optional[RunLogger] = None,
    ) -> FitResult:
        """Train with epoch-wise BPR minibatches and Adam.

        Thin wrapper over :class:`repro.train.TrainEngine`; bit-identical to
        the historical in-process loop.

        Parameters
        ----------
        train:
            Training interactions (num_users/num_items must match the model).
        config:
            Hyperparameters; defaults to :class:`FitConfig`.
        eval_callback:
            Optional callable returning a metrics dict, invoked every
            ``config.eval_every`` epochs (and recorded in the result).
        checkpoint_every:
            If >0, write a full :class:`~repro.io.checkpoints.TrainingCheckpoint`
            (parameters, Adam moments, RNG state, histories, best snapshot) to
            ``checkpoint_path`` every this many epochs.
        checkpoint_path:
            Destination for periodic checkpoints (overwritten atomically each
            time); required when ``checkpoint_every > 0``.
        resume_from:
            Resume a killed run from this checkpoint.  The restored run is
            **bit-identical** to the uninterrupted one: all training
            randomness flows through generators whose states the checkpoint
            captured.  Checkpoints stamped by the since-deleted
            data-parallel engine are refused.
        logger:
            Optional :class:`~repro.utils.telemetry.RunLogger`; emits one
            JSONL event per epoch plus run/eval/checkpoint events.
        """
        return TrainEngine(self).fit(
            train,
            config,
            eval_callback,
            checkpoint_every=checkpoint_every,
            checkpoint_path=checkpoint_path,
            resume_from=resume_from,
            logger=logger,
        )

    # ------------------------------------------------------------ inference
    def recommend(self, user: int, k: int = 20, exclude: Optional[np.ndarray] = None) -> np.ndarray:
        """Top-``k`` item ids for one user, optionally excluding seen items.

        The user's row, scored alone, goes through the same train-mask →
        top-k selection as the evaluator and the serving index
        (:func:`repro.kernels.dispatch.masked_select`), with ``exclude`` as
        the row's mask.  Fewer than ``k`` ids come back when fewer items
        remain rankable.
        """
        if not 0 <= user < self.num_users:
            raise ValueError(f"user {user} out of range")
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        exclude = np.asarray([] if exclude is None else exclude, dtype=np.int64)
        # Validate before masking: a negative id wraps around and masks the
        # wrong item; an id >= num_items raises a bare IndexError deep in
        # numpy.  Both reach here straight from serving-layer request
        # payloads, so fail loudly with the offending ids.
        bad = exclude[(exclude < 0) | (exclude >= self.num_items)]
        if bad.size:
            raise ValueError(
                f"exclude contains item ids outside [0, {self.num_items}): "
                f"{np.unique(bad).tolist()[:10]}"
            )
        neg = np.negative(self.score_users(np.array([user])), dtype=np.float64)
        valid = np.empty(1, dtype=np.int64)
        top, _ = dispatch.masked_select(
            neg, min(k, self.num_items), 0, exclude, valid_out=valid
        )
        return top[0, : valid[0]]
