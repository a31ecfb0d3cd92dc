"""Parallel-utilities tests: balanced chunking and the process-pool map."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel import ProcessExecutor, chunk_indices


def _triple(x):
    """Module-level map function (picklable for process pools)."""
    return x * 3


class _TableScorer:
    """Picklable score_fn over a fixed score table."""

    def __init__(self, table):
        self.table = table

    def __call__(self, users):
        return self.table[users]


class TestChunkIndices:
    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(0, 300), num_chunks=st.integers(1, 400))
    def test_property_balanced_contiguous_cover(self, n, num_chunks):
        chunks = chunk_indices(n, num_chunks)
        assert [i for c in chunks for i in c] == list(range(n))
        assert all(len(c) > 0 and c.step == 1 for c in chunks)
        sizes = [len(c) for c in chunks]
        assert not sizes or max(sizes) - min(sizes) <= 1
        assert len(chunks) == min(n, num_chunks)

    def test_covers_range(self):
        chunks = chunk_indices(10, 3)
        flat = [i for c in chunks for i in c]
        assert flat == list(range(10))

    def test_single_chunk_is_whole_range(self):
        assert chunk_indices(7, 1) == [range(0, 7)]

    def test_zero_items_any_chunks(self):
        assert chunk_indices(0, 1) == []
        assert chunk_indices(0, 100) == []

    def test_chunks_far_exceed_items(self):
        chunks = chunk_indices(3, 100)
        assert [list(c) for c in chunks] == [[0], [1], [2]]

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            chunk_indices(-1, 2)

    def test_balanced(self):
        sizes = [len(c) for c in chunk_indices(10, 3)]
        assert max(sizes) - min(sizes) <= 1

    def test_more_chunks_than_items(self):
        chunks = chunk_indices(2, 5)
        assert sum(len(c) for c in chunks) == 2

    def test_zero_items(self):
        assert chunk_indices(0, 3) == []

    def test_invalid(self):
        with pytest.raises(ValueError):
            chunk_indices(5, 0)


class TestExecutors:
    def test_process_executor_validation(self):
        with pytest.raises(ValueError):
            ProcessExecutor(max_workers=0)

    def test_process_executor_round_trip_preserves_order(self):
        items = list(range(40))
        with ProcessExecutor(max_workers=2) as pool:
            out = pool.map(_triple, items)
        assert out == [3 * i for i in items]

    def test_process_executor_matches_serial_on_eval_shard_merge(self):
        """The eval-shard merge is executor-independent, bit-for-bit."""
        from repro.data import InteractionDataset
        from repro.eval import RankingEvaluator, sharded_evaluate

        rng = np.random.default_rng(0)
        n_users, n_items = 9, 25
        train = InteractionDataset(
            np.repeat(np.arange(n_users), 4),
            rng.integers(0, n_items, 4 * n_users),
            n_users,
            n_items,
        )
        test = InteractionDataset(
            np.repeat(np.arange(n_users), 2),
            rng.integers(0, n_items, 2 * n_users),
            n_users,
            n_items,
        )
        scorer = _TableScorer(rng.normal(size=(n_users, n_items)))
        ev = RankingEvaluator(train, test, k=5)
        reference = sharded_evaluate(ev, scorer, num_shards=3)
        with ProcessExecutor(max_workers=2) as pool:
            parallel = sharded_evaluate(ev, scorer, num_shards=3, executor=pool)
        assert parallel == reference
        assert reference == ev.evaluate(scorer)
