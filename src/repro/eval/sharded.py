"""Process-parallel evaluation sharding.

Full-ranking evaluation is embarrassingly parallel over users: each user's
metrics depend only on their own score row, train positives, and test set.
This module splits the eval-user list into contiguous shards
(:func:`repro.parallel.chunk_indices`), evaluates each shard in a
worker process, and merges by concatenating the per-user metric vectors in
shard order.  Because every evaluator step is row-wise (see
:mod:`repro.eval.evaluator`), the concatenated vectors are identical to a
single serial pass, so the reduced means are **bit-identical** to the
in-process shard loop and to :meth:`RankingEvaluator.evaluate`.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.data.interactions import InteractionDataset
from repro.eval.evaluator import EvaluationResult, PerUserMetrics, RankingEvaluator
from repro.parallel import ProcessExecutor, chunk_indices
from repro.utils.telemetry import RunLogger

__all__ = ["EvalShard", "sharded_evaluate"]


@dataclasses.dataclass(frozen=True)
class EvalShard:
    """Picklable work unit: evaluate one contiguous user shard."""

    train: InteractionDataset
    test: InteractionDataset
    users: np.ndarray
    score_fn: Callable[[np.ndarray], np.ndarray]
    k: int
    user_batch: int


def _evaluate_shard(shard: EvalShard) -> Tuple[PerUserMetrics, float]:
    """Worker entry point (module-level so process pools can pickle it).

    Returns the per-user metrics plus the shard's worker-side wall-clock,
    measured here so process-pool timings reflect actual evaluation work,
    not queueing.
    """
    start = time.perf_counter()
    evaluator = RankingEvaluator(
        shard.train, shard.test, k=shard.k, user_batch=shard.user_batch
    )
    metrics = evaluator.evaluate_per_user(shard.score_fn, users=shard.users)
    return metrics, time.perf_counter() - start


def sharded_evaluate(
    evaluator: RankingEvaluator,
    score_fn: Callable[[np.ndarray], np.ndarray],
    num_shards: int,
    executor: Optional[ProcessExecutor] = None,
    users: Optional[np.ndarray] = None,
    logger: Optional[RunLogger] = None,
) -> EvaluationResult:
    """Evaluate ``score_fn`` with users split across ``num_shards`` workers.

    Parameters
    ----------
    evaluator:
        Configured :class:`RankingEvaluator`; supplies train/test, ``k`` and
        ``user_batch`` to every shard.
    score_fn:
        Scoring callable.  With a :class:`ProcessExecutor` it must be
        picklable, e.g. a module-level class holding the score factors.
    num_shards:
        Number of contiguous user shards (typically the worker count).
    executor:
        Optional :class:`ProcessExecutor` to fan the shards out to; ``None``
        evaluates them in a plain in-process loop, the reference the
        parallel result is guaranteed to match exactly.
    users:
        Optional explicit user subset (validated like
        :meth:`RankingEvaluator.evaluate`).
    logger:
        Optional :class:`~repro.utils.telemetry.RunLogger`; emits one
        ``eval_shard`` event per shard (index, user count, worker-side
        seconds) plus a closing ``eval_sharded`` total.

    Returns
    -------
    EvaluationResult equal — bit-for-bit — to
    ``evaluator.evaluate(score_fn, users)``.
    """
    if num_shards <= 0:
        raise ValueError(f"num_shards must be positive, got {num_shards}")
    all_users = evaluator._resolve_users(users)
    if all_users.size == 0:
        raise ValueError("no users to evaluate")
    shards = [
        EvalShard(
            train=evaluator.train,
            test=evaluator.test,
            users=all_users[chunk.start : chunk.stop],
            score_fn=score_fn,
            k=evaluator.k,
            user_batch=evaluator.user_batch,
        )
        for chunk in chunk_indices(len(all_users), num_shards)
    ]
    start = time.perf_counter()
    timed: List[Tuple[PerUserMetrics, float]] = (
        [_evaluate_shard(shard) for shard in shards]
        if executor is None
        else executor.map(_evaluate_shard, shards)
    )
    if logger is not None:
        for i, (shard, (_, seconds)) in enumerate(zip(shards, timed)):
            logger.log("eval_shard", shard=i, num_users=int(shard.users.size), seconds=seconds)
        logger.log(
            "eval_sharded",
            num_shards=len(shards),
            num_users=int(all_users.size),
            seconds=time.perf_counter() - start,
        )
    return PerUserMetrics.concatenate([metrics for metrics, _ in timed]).reduce()
