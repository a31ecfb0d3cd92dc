"""Failure-aware ProcessExecutor tests: retry, pool restart, in-process fallback.

The worker functions fail only when executed in a *worker* process (pid
differs from the pid baked into the item), so the in-process fallback
succeeds — modelling worker-environment failures (OOM kills, missing GPU,
corrupted worker state) rather than deterministic bad input.
"""

import os

import numpy as np
import pytest

from repro.eval import RankingEvaluator, sharded_evaluate
from repro.parallel import ProcessExecutor


def _double(x):
    return x * 2


def _raise_in_worker(item):
    parent_pid, x = item
    if os.getpid() != parent_pid:
        raise RuntimeError(f"worker cannot handle {x}")
    return x * 2


def _raise_for_three_in_worker(item):
    parent_pid, x = item
    if x == 3 and os.getpid() != parent_pid:
        raise RuntimeError("worker cannot handle 3")
    return x * 2


def _exit_in_worker(item):
    parent_pid, x = item
    if os.getpid() != parent_pid:
        os._exit(17)  # hard crash: breaks the pool, not just the task
    return x * 2


class _CrashyScorer:
    """score_fn that fails in workers but works in the parent process."""

    def __init__(self, table, parent_pid):
        self.table = table
        self.parent_pid = parent_pid

    def __call__(self, users):
        if os.getpid() != self.parent_pid:
            raise RuntimeError("worker-side scoring failure")
        return self.table[users]


class TestWorkerExceptionRecovery:
    def test_single_bad_item_falls_back(self):
        items = [(os.getpid(), x) for x in range(6)]
        with ProcessExecutor(max_workers=2) as pool:
            out = pool.map(_raise_for_three_in_worker, items)
            assert pool.failure_count >= 1
        assert out == [x * 2 for x in range(6)]

    def test_all_items_fall_back_to_serial_result(self):
        items = [(os.getpid(), x) for x in range(4)]
        with ProcessExecutor(max_workers=2) as pool:
            out = pool.map(_raise_in_worker, items)
        assert out == [_raise_in_worker(item) for item in items]

    def test_deterministic_failure_still_propagates(self):
        """A function that fails everywhere (including in-process) raises."""

        with ProcessExecutor(max_workers=2) as pool:
            with pytest.raises(ValueError):
                pool.map(_always_raise, [1])

    def test_healthy_map_unaffected(self):
        with ProcessExecutor(max_workers=2) as pool:
            assert pool.map(_double, [1, 2, 3]) == [2, 4, 6]
            assert pool.failure_count == 0


def _always_raise(x):
    raise ValueError(f"bad item {x}")


class TestWorkerCrashRecovery:
    def test_hard_crash_restarts_pool_and_falls_back(self):
        """os._exit in a worker breaks the pool; map must still return."""
        items = [(os.getpid(), x) for x in range(3)]
        with ProcessExecutor(max_workers=2) as pool:
            out = pool.map(_exit_in_worker, items)
            assert pool.failure_count >= 1
        assert out == [x * 2 for x in range(3)]

    def test_pool_usable_after_crash(self):
        items = [(os.getpid(), 1)]
        with ProcessExecutor(max_workers=2) as pool:
            pool.map(_exit_in_worker, items)
            # The replaced pool must handle healthy work again.
            assert pool.map(_double, [5]) == [10]


class TestShardedEvalSurvivesWorkerFailure:
    def test_sharded_evaluate_degrades_not_aborts(self, ooi_split):
        ev = RankingEvaluator(ooi_split.train, ooi_split.test, k=5)
        rng = np.random.default_rng(0)
        table = rng.normal(size=(ooi_split.train.num_users, ooi_split.train.num_items))
        scorer = _CrashyScorer(table, os.getpid())
        reference = sharded_evaluate(ev, scorer, num_shards=3)
        with ProcessExecutor(max_workers=2) as pool:
            survived = sharded_evaluate(ev, scorer, num_shards=3, executor=pool)
            assert pool.failure_count >= 1
        assert survived.recall == reference.recall
        assert survived.ndcg == reference.ndcg
