"""Evaluation-pipeline micro-benchmarks.

How much faster is the loop-free evaluator than the per-user-loop baseline
it replaced (``_per_user_loop`` below), on a synthetic dataset big enough to
expose the asymptotics (2k+ users)?  ``test_vectorized_speedup`` asserts
≥ 3× and agreement to 1e-12; it carries the ``gate_smoke`` marker, so
``make bench-smoke`` runs it.  It times both paths in a fresh subprocess
with one BLAS/OpenMP thread (run as a script, this file prints that
measurement), so the thread pools and heap other benchmarks leave in the
pytest process do not move it.  The pytest-benchmark cases track both
paths' absolute times.

Run with ``pytest benchmarks/test_bench_eval.py --benchmark-only`` for the
tracked numbers; the speedup assertion also runs in plain mode.
"""

import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import write_bench_json, write_result

from repro.data.interactions import InteractionDataset
from repro.eval.evaluator import EvaluationResult, RankingEvaluator

ROOT = pathlib.Path(__file__).resolve().parents[1]

N_USERS = 2048
N_ITEMS = 1200
TRAIN_PER_USER = 30
TEST_PER_USER = 8
DIM = 32


class MatrixScorer:
    """Picklable factorized scorer: scores = U[users] @ V.T."""

    def __init__(self, U: np.ndarray, V: np.ndarray):
        self.U = U
        self.V = V

    def __call__(self, users: np.ndarray) -> np.ndarray:
        return self.U[users] @ self.V.T


def _synthetic_eval_problem(seed=0):
    """A ≥2k-user train/test pair plus a deterministic scorer."""
    rng = np.random.default_rng(seed)
    train_u = np.repeat(np.arange(N_USERS), TRAIN_PER_USER)
    train_i = rng.integers(0, N_ITEMS, size=train_u.size)
    test_u = np.repeat(np.arange(N_USERS), TEST_PER_USER)
    test_i = rng.integers(0, N_ITEMS, size=test_u.size)
    train = InteractionDataset(train_u, train_i, N_USERS, N_ITEMS)
    test = InteractionDataset(test_u, test_i, N_USERS, N_ITEMS)
    scorer = MatrixScorer(rng.normal(size=(N_USERS, DIM)), rng.normal(size=(N_ITEMS, DIM)))
    return train, test, scorer


@pytest.fixture(scope="module")
def eval_problem():
    return _synthetic_eval_problem()


def _per_user_loop(ev: RankingEvaluator, score_fn) -> EvaluationResult:
    """The evaluator before vectorization: per-user Python loops over the
    protocol, the baseline of the ≥ 3× gate."""
    k = ev.k
    users = ev.eval_users
    recalls, ndcgs, precisions, hits = [], [], [], []
    ideal_discounts = 1.0 / np.log2(np.arange(2, k + 2, dtype=np.float64))
    for start in range(0, len(users), ev.user_batch):
        batch = users[start : start + ev.user_batch]
        scores = np.array(score_fn(batch), dtype=np.float64, copy=True)
        for row, user in enumerate(batch):
            scores[row, ev.train.items_of_user(int(user))] = -np.inf
        top = np.argpartition(-scores, k - 1, axis=1)[:, :k]
        row_idx = np.arange(len(batch), dtype=np.int64)[:, None]
        order = np.argsort(-scores[row_idx, top], axis=1, kind="stable")
        top = top[row_idx, order]
        for row, user in enumerate(batch):
            relevant = ev.test.items_of_user(int(user))
            gains = np.isin(top[row], relevant).astype(np.float64)
            n_hit = gains.sum()
            recalls.append(n_hit / len(relevant))
            precisions.append(n_hit / k)
            hits.append(1.0 if n_hit > 0 else 0.0)
            idcg = float(ideal_discounts[: min(len(relevant), k)].sum())
            ndcgs.append(float((gains * ideal_discounts).sum()) / idcg)
    return EvaluationResult(
        recall=float(np.mean(recalls)),
        ndcg=float(np.mean(ndcgs)),
        precision=float(np.mean(precisions)),
        hit=float(np.mean(hits)),
        k=k,
        num_users=len(recalls),
    )


#: Interleaved timing rounds of the ≥3× gate.  CPU speed can change between
#: back-to-back timings, so both sides are timed in the same rounds and
#: compared by their medians.
ROUNDS = 5


def _time(fn):
    t0 = time.perf_counter()
    value = fn()
    return time.perf_counter() - t0, value


def _interleaved_times(seed: int = 0) -> dict:
    """Per-round seconds of the per-user loop and the vectorized path.

    Each side gets an untimed warm-up, so neither pays the cold start; the
    rounds interleave the two, so machine drift hits both sides.
    """
    train, test, scorer = _synthetic_eval_problem(seed)
    ev = RankingEvaluator(train, test, k=20)
    _per_user_loop(ev, scorer)
    ev.evaluate(scorer)
    times = {"legacy": [], "fast": []}
    for _ in range(ROUNDS):
        elapsed, legacy = _time(lambda: _per_user_loop(ev, scorer))
        times["legacy"].append(elapsed)
        elapsed, fast = _time(lambda: ev.evaluate(scorer))
        times["fast"].append(elapsed)
    return {
        "legacy_seconds_all": times["legacy"],
        "fast_seconds_all": times["fast"],
        "recall_gap": abs(fast.recall - legacy.recall),
        "ndcg_gap": abs(fast.ndcg - legacy.ndcg),
        "num_users": [fast.num_users, legacy.num_users],
        "recall": fast.recall,
        "ndcg": fast.ndcg,
    }


@pytest.mark.gate_smoke
def test_vectorized_speedup():
    """The loop-free path must beat the per-user loop by ≥ 3×.

    Measured by :func:`_interleaved_times` in a fresh subprocess with one
    BLAS/OpenMP thread.
    """
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, __file__],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    stats = json.loads(proc.stdout)
    assert stats["recall_gap"] < 1e-12
    assert stats["ndcg_gap"] < 1e-12
    assert stats["num_users"][0] == stats["num_users"][1]
    t_legacy = statistics.median(stats["legacy_seconds_all"])
    t_fast = statistics.median(stats["fast_seconds_all"])
    speedup = t_legacy / t_fast
    write_result(
        "bench_eval_vectorized",
        f"full-ranking evaluation, {N_USERS} users x {N_ITEMS} items, k=20, 1 BLAS thread\n"
        f"  per-user loop : {t_legacy * 1e3:8.1f} ms  (median of {ROUNDS})\n"
        f"  vectorized    : {t_fast * 1e3:8.1f} ms  ({speedup:.1f}x)\n"
        f"  recall@20={stats['recall']:.4f} ndcg@20={stats['ndcg']:.4f}",
    )
    write_bench_json(
        "eval",
        {
            "legacy_seconds": t_legacy,
            "fast_seconds": t_fast,
            "legacy_seconds_all": stats["legacy_seconds_all"],
            "fast_seconds_all": stats["fast_seconds_all"],
            "speedup": speedup,
            "gate": 3.0,
            "users": N_USERS,
            "items": N_ITEMS,
            "blas_threads": 1,
        },
    )
    assert speedup >= 3.0, f"vectorized path only {speedup:.2f}x faster than legacy"


def test_bench_eval_legacy(benchmark, eval_problem):
    train, test, scorer = eval_problem
    ev = RankingEvaluator(train, test, k=20)
    result = benchmark(_per_user_loop, ev, scorer)
    assert result.num_users == N_USERS


def test_bench_eval_vectorized(benchmark, eval_problem):
    train, test, scorer = eval_problem
    ev = RankingEvaluator(train, test, k=20)
    result = benchmark(ev.evaluate, scorer)
    assert result.num_users == N_USERS



if __name__ == "__main__":
    print(json.dumps(_interleaved_times()))
