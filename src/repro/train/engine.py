"""The training engine: epoch loop, resume, telemetry, checkpoints.

Historically the epoch loop lived inside ``Recommender.fit``; it now lives
here.  ``Recommender.fit`` is a thin wrapper over :class:`TrainEngine`, and
:class:`SerialExecutor` runs the historical loop **bit-for-bit**: the same
single RNG drives sampling in the same order, the optimizer sees the same
gradients in the same sequence, and checkpoints round-trip through the
unchanged :mod:`repro.io.checkpoints` format.  The engine owns everything
around the epoch — validation, sampler/optimizer construction, resume,
evaluation and best-epoch snapshots, periodic checkpoints, JSONL telemetry —
while :meth:`SerialExecutor.run_epoch` owns the steps inside it.

Optimizer funnel (reprolint RPL015): model code does not call
``Optimizer.step`` / ``zero_grad`` itself.  Auxiliary per-epoch phases
(TransR/TransE in CKE, CFKG, CKAT) receive a *step callable* built by
:func:`make_step_fn` — ``step(loss_fn) -> float`` runs zero-grad /
forward / backward / optimizer-step and returns the loss value — so every
parameter update in the codebase flows through this module.
"""

from __future__ import annotations

import dataclasses
import pathlib
import time
from typing import Callable, List, Optional, Union

import numpy as np

from repro.autograd import Adam, no_grad
from repro.io.checkpoints import (
    SERIAL_EXECUTOR_FINGERPRINT,
    TrainingCheckpoint,
    check_executor_compatible,
    load_training_checkpoint,
    parameter_keys,
    save_training_checkpoint,
)
from repro.utils.rng import ensure_rng
from repro.utils.telemetry import RunLogger

__all__ = [
    "FitConfig",
    "FitResult",
    "SerialExecutor",
    "TrainEngine",
    "make_step_fn",
]

PathLike = Union[str, pathlib.Path]

#: An engine-provided "run one optimization step" callable handed to model
#: auxiliary phases: ``step(loss_fn)`` zeroes grads, evaluates ``loss_fn()``
#: (a scalar Tensor), backpropagates, applies the optimizer, and returns the
#: loss as a float.
StepFn = Callable[[Callable[[], object]], float]


def make_step_fn(optimizer) -> StepFn:
    """Build the step callable models use for auxiliary training phases."""

    def step(loss_fn: Callable[[], object]) -> float:
        optimizer.zero_grad()
        loss = loss_fn()
        loss.backward()
        optimizer.step()
        return float(loss.item())

    return step


@dataclasses.dataclass
class FitConfig:
    """Training hyperparameters (defaults follow Section VI-D)."""

    epochs: int = 40
    batch_size: int = 512
    lr: float = 0.01
    l2: float = 1e-5
    seed: int = 0
    verbose: bool = False
    eval_every: int = 0
    """If >0 and an evaluator callback is given to fit(), evaluate every
    this many epochs."""
    keep_best_metric: str = ""
    """When set (e.g. ``"recall@20"``) together with ``eval_every`` and an
    eval callback, parameters are snapshotted at each evaluation and the
    best-scoring snapshot is restored after the final epoch — the best-epoch
    selection protocol of the KGAT-family reference implementations."""

    def __post_init__(self):
        if self.epochs <= 0 or self.batch_size <= 0:
            raise ValueError("epochs and batch_size must be positive")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.l2 < 0:
            raise ValueError("l2 must be nonnegative")
        if self.eval_every < 0:
            raise ValueError(f"eval_every must be >= 0, got {self.eval_every}")
        if self.keep_best_metric and self.eval_every <= 0:
            raise ValueError(
                "keep_best_metric requires eval_every > 0 — without evaluations no "
                "snapshot is ever taken, silently corrupting best-epoch results"
            )

    def fingerprint(self) -> dict:
        """The fields a resumed run must match for bit-identical replay."""
        return {
            "epochs": self.epochs,
            "batch_size": self.batch_size,
            "lr": self.lr,
            "l2": self.l2,
            "seed": self.seed,
            "eval_every": self.eval_every,
            "keep_best_metric": self.keep_best_metric,
        }


@dataclasses.dataclass
class FitResult:
    """Training record: per-epoch losses and wall-clock time."""

    losses: List[float]
    extra_losses: List[float]
    seconds: float
    eval_history: List[dict]

    @property
    def final_loss(self) -> float:
        return self.losses[-1] if self.losses else float("nan")


# A class only because perfbench/tracing.py wraps run_epoch; fold into TrainEngine with it.
class SerialExecutor:
    """One epoch of optimization steps: the historical in-process loop.

    ``run_epoch`` performs exactly the sequence the pre-engine
    ``Recommender.fit`` ran — auxiliary phase first, then one optimizer
    step per sampler batch, all randomness drawn from the single training
    RNG in the same order — so an engine run is bit-identical to the
    historical code path (locked by the resume/training test suites).
    """

    def __init__(self, model, config: FitConfig, sampler):
        self.model = model
        self.config = config
        self.sampler = sampler

    def run_epoch(self, epoch: int, optimizer, rng: np.random.Generator):
        config = self.config
        extra = self.model.extra_epoch_step(make_step_fn(optimizer), rng, config)
        epoch_loss, n_batches = 0.0, 0
        for users, pos, neg in self.sampler.epoch_batches(config.batch_size, seed=rng):
            optimizer.zero_grad()
            loss = self.model.batch_loss(users, pos, neg, rng)
            loss.backward()
            optimizer.step()
            epoch_loss += loss.item()
            n_batches += 1
        return epoch_loss / max(n_batches, 1), extra


class TrainEngine:
    """Drives training of one model through :class:`SerialExecutor`.

    The engine is model-agnostic: anything implementing the
    :class:`~repro.models.base.Recommender` training hooks (``parameters``,
    ``batch_loss``, ``extra_epoch_step``, ``on_epoch_end``,
    ``extra_rng_state``/``restore_extra_rng_state``) trains here.
    """

    def __init__(self, model):
        self.model = model

    # ------------------------------------------------------------ internals
    def _restore_checkpoint(
        self,
        ckpt: TrainingCheckpoint,
        config: FitConfig,
        params,
        keys: List[str],
        optimizer: Adam,
        rng: np.random.Generator,
    ) -> None:
        """Load a :class:`TrainingCheckpoint` into live training state.

        Validates that the checkpoint matches the architecture (same
        parameter keys, shapes and dtypes), the replay-relevant config fields, *and*
        the executor stamp — resuming under a different batch size,
        learning rate or seed, or from a data-parallel checkpoint, could not
        possibly reproduce the uninterrupted run, so it raises instead.
        """
        fp = config.fingerprint()
        saved = ckpt.config
        mismatched = {
            k: (saved.get(k), fp[k]) for k in fp if k != "epochs" and saved.get(k) != fp[k]
        }
        if mismatched:
            raise ValueError(
                f"cannot resume: config mismatch {mismatched} (checkpoint vs current); "
                "resume-exactness requires identical training configuration"
            )
        check_executor_compatible(saved, SERIAL_EXECUTOR_FINGERPRINT)
        if config.epochs < ckpt.epoch:
            raise ValueError(
                f"cannot resume: checkpoint has {ckpt.epoch} completed epochs but the "
                f"config only trains {config.epochs}"
            )
        if set(ckpt.params) != set(keys):
            raise ValueError(
                f"cannot resume: parameter set mismatch (checkpoint {sorted(ckpt.params)}, "
                f"model {sorted(keys)})"
            )
        with no_grad():
            for key, p in zip(keys, params):
                arr = ckpt.params[key]
                if arr.shape != p.data.shape:
                    raise ValueError(
                        f"cannot resume: shape mismatch for {key}: "
                        f"checkpoint {arr.shape} vs model {p.data.shape}"
                    )
                if arr.dtype != p.data.dtype:
                    raise ValueError(
                        f"cannot resume: dtype mismatch for {key}: "
                        f"checkpoint {arr.dtype} vs model {p.data.dtype}"
                    )
                p.data[...] = arr
        optimizer.load_state_dict(ckpt.optimizer_state)
        rng.bit_generator.state = ckpt.rng_state
        if ckpt.extra_rng_state is not None:
            self.model.restore_extra_rng_state(ckpt.extra_rng_state)
        self.model.on_epoch_end()  # rebuild derived state (e.g. CKAT attention)

    # -------------------------------------------------------------- training
    def fit(
        self,
        train,
        config: Optional[FitConfig] = None,
        eval_callback: Optional[Callable[[], dict]] = None,
        *,
        checkpoint_every: int = 0,
        checkpoint_path: Optional[PathLike] = None,
        resume_from: Optional[PathLike] = None,
        logger: Optional[RunLogger] = None,
    ) -> FitResult:
        """Train ``self.model``; see ``Recommender.fit`` for the parameters."""
        model = self.model
        config = config or FitConfig()
        if hasattr(model, "num_users") and (
            train.num_users != model.num_users or train.num_items != model.num_items
        ):
            raise ValueError(
                f"dataset shape ({train.num_users}×{train.num_items}) does not match model "
                f"({model.num_users}×{model.num_items})"
            )
        if config.eval_every < 0:
            raise ValueError(f"eval_every must be >= 0, got {config.eval_every}")
        if config.keep_best_metric and (config.eval_every <= 0 or eval_callback is None):
            raise ValueError(
                "keep_best_metric requires eval_every > 0 and an eval_callback — "
                "without both no snapshot is ever taken, silently corrupting "
                "best-epoch results"
            )
        if checkpoint_every < 0:
            raise ValueError(f"checkpoint_every must be >= 0, got {checkpoint_every}")
        if checkpoint_every > 0 and checkpoint_path is None:
            raise ValueError("checkpoint_every > 0 requires checkpoint_path")
        rng = ensure_rng(config.seed)
        from repro.data.sampling import BPRSampler  # deferred: keeps layering acyclic

        sampler = BPRSampler(train)
        params = model.parameters()
        keys = parameter_keys(params)
        optimizer = Adam(params, lr=config.lr)
        losses: List[float] = []
        extra_losses: List[float] = []
        eval_history: List[dict] = []
        best_score = -np.inf
        best_snapshot: Optional[List[np.ndarray]] = None
        start_epoch = 0
        base_seconds = 0.0
        executor = SerialExecutor(model, config, sampler)
        ckpt_config = dict(config.fingerprint())
        ckpt_config["executor"] = dict(SERIAL_EXECUTOR_FINGERPRINT)
        if resume_from is not None:
            ckpt = load_training_checkpoint(resume_from)
            self._restore_checkpoint(ckpt, config, params, keys, optimizer, rng)
            losses = list(ckpt.losses)
            extra_losses = list(ckpt.extra_losses)
            eval_history = list(ckpt.eval_history)
            best_score = ckpt.best_score
            if ckpt.best_snapshot is not None:
                best_snapshot = [ckpt.best_snapshot[key].copy() for key in keys]
            start_epoch = ckpt.epoch
            base_seconds = ckpt.seconds
            if logger is not None:
                logger.log("resume", epoch=start_epoch, path=str(resume_from))
        start = time.perf_counter()
        if logger is not None:
            logger.log(
                "run_start",
                model=model.name,
                start_epoch=start_epoch,
                **config.fingerprint(),
            )
        for epoch in range(start_epoch, config.epochs):
            epoch_start = time.perf_counter()
            mean_loss, extra = executor.run_epoch(epoch, optimizer, rng)
            extra_losses.append(extra)
            losses.append(mean_loss)
            model.on_epoch_end()
            if logger is not None:
                logger.log(
                    "epoch",
                    epoch=epoch + 1,
                    loss=losses[-1],
                    aux_loss=extra,
                    seconds=time.perf_counter() - epoch_start,
                )
            if config.verbose:
                msg = f"[{model.name}] epoch {epoch + 1}/{config.epochs} loss={losses[-1]:.4f}"
                if extra:
                    msg += f" aux={extra:.4f}"
                print(msg)
            if (
                eval_callback is not None
                and config.eval_every
                and (epoch + 1) % config.eval_every == 0
            ):
                metrics = eval_callback()
                metrics["epoch"] = epoch + 1
                eval_history.append(metrics)
                if logger is not None:
                    logger.log("eval", **metrics)
                if config.verbose:
                    print(f"[{model.name}]   eval: {metrics}")
                if config.keep_best_metric:
                    score = metrics.get(config.keep_best_metric)
                    if score is None:
                        raise KeyError(
                            f"keep_best_metric {config.keep_best_metric!r} missing from "
                            f"eval callback result {sorted(metrics)}"
                        )
                    if score > best_score:
                        best_score = score
                        best_snapshot = [p.data.copy() for p in params]
                        if logger is not None:
                            logger.log("best_snapshot", epoch=epoch + 1, score=float(score))
            if checkpoint_every and (epoch + 1) % checkpoint_every == 0:
                ckpt = TrainingCheckpoint(
                    epoch=epoch + 1,
                    params={key: np.array(p.data, copy=True) for key, p in zip(keys, params)},
                    optimizer_state=optimizer.state_dict(),
                    rng_state=rng.bit_generator.state,
                    extra_rng_state=model.extra_rng_state(),
                    losses=list(losses),
                    extra_losses=list(extra_losses),
                    eval_history=list(eval_history),
                    best_score=float(best_score),
                    best_snapshot=(
                        {key: arr.copy() for key, arr in zip(keys, best_snapshot)}
                        if best_snapshot is not None
                        else None
                    ),
                    seconds=base_seconds + (time.perf_counter() - start),
                    config=dict(ckpt_config),
                )
                written = save_training_checkpoint(checkpoint_path, ckpt)
                if logger is not None:
                    logger.log("checkpoint", epoch=epoch + 1, path=str(written))
        if best_snapshot is not None:
            with no_grad():
                for p, data in zip(params, best_snapshot):
                    p.data[...] = data
            model.on_epoch_end()  # refresh derived state (e.g. CKAT attention)
        seconds = base_seconds + (time.perf_counter() - start)
        if logger is not None:
            logger.log(
                "run_end",
                model=model.name,
                epochs=config.epochs,
                seconds=seconds,
                final_loss=losses[-1] if losses else None,
            )
        return FitResult(
            losses=losses,
            extra_losses=extra_losses,
            seconds=seconds,
            eval_history=eval_history,
        )
