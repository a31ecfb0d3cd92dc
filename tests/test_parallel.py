"""Parallel-utilities tests: executors, partitions, sharded propagation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix

from repro.autograd import Tensor
from repro.kernels import dispatch
from repro.kg.adjacency import CSRAdjacency
from repro.kg.triples import TripleStore
from repro.parallel import (
    EdgePartition,
    SerialExecutor,
    partition_edges,
    sharded_segment_sum,
)
from repro.parallel.executor import ProcessExecutor, chunk_indices


def _triple(x):
    """Module-level map function (picklable for process pools)."""
    return x * 3


class _TableScorer:
    """Picklable score_fn over a fixed score table."""

    def __init__(self, table):
        self.table = table

    def __call__(self, users):
        return self.table[users]


def random_store(seed, n_entities=30, n_edges=120):
    rng = np.random.default_rng(seed)
    store = TripleStore(num_entities=n_entities)
    store.add_triples(
        "r", rng.integers(0, n_entities, n_edges), rng.integers(0, n_entities, n_edges)
    )
    return store


class TestChunkIndices:
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
    def test_serial_map(self):
        ex = SerialExecutor()
        assert ex.map(lambda x: x * 2, [1, 2, 3]) == [2, 4, 6]

    def test_serial_preserves_order(self):
        ex = SerialExecutor()
        assert ex.map(str, range(5)) == ["0", "1", "2", "3", "4"]

    def test_process_executor_validation(self):
        with pytest.raises(ValueError):
            ProcessExecutor(max_workers=0)

    def test_process_executor_round_trip_preserves_order(self):
        items = list(range(40))
        with ProcessExecutor(max_workers=2) as pool:
            out = pool.map(_triple, items)
        assert out == SerialExecutor().map(_triple, items)
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
        reference = sharded_evaluate(ev, scorer, num_shards=3, executor=SerialExecutor())
        with ProcessExecutor(max_workers=2) as pool:
            parallel = sharded_evaluate(ev, scorer, num_shards=3, executor=pool)
        assert parallel == reference
        assert reference == ev.evaluate(scorer)


class TestPartition:
    @pytest.mark.parametrize("strategy", ["contiguous", "hash"])
    def test_every_edge_assigned_once(self, strategy):
        store = random_store(0)
        part = partition_edges(store, num_shards=4, strategy=strategy)
        counts = np.bincount(part.shard_of_edge, minlength=4)
        assert counts.sum() == len(store)

    def test_contiguous_balance(self):
        store = random_store(1)
        part = partition_edges(store, num_shards=4, strategy="contiguous")
        assert part.load_balance() <= 1.1

    def test_hash_keeps_head_on_one_shard(self):
        store = random_store(2)
        part = partition_edges(store, num_shards=3, strategy="hash")
        for shard_a in range(3):
            heads_a = set(store.heads[part.edge_indices(shard_a)].tolist())
            for shard_b in range(shard_a + 1, 3):
                heads_b = set(store.heads[part.edge_indices(shard_b)].tolist())
                assert not (heads_a & heads_b)

    def test_replication_factor_at_least_one(self):
        store = random_store(3)
        part = partition_edges(store, num_shards=4)
        rf = part.replication_factor(store.heads, store.tails)
        assert rf >= 1.0

    def test_single_shard_replication_is_one(self):
        store = random_store(4)
        part = partition_edges(store, num_shards=1)
        assert part.replication_factor(store.heads, store.tails) == pytest.approx(1.0)

    def test_invalid_inputs(self):
        store = random_store(5)
        with pytest.raises(ValueError):
            partition_edges(store, num_shards=0)
        with pytest.raises(ValueError):
            partition_edges(store, num_shards=2, strategy="round-robin")
        part = partition_edges(store, num_shards=2)
        with pytest.raises(ValueError):
            part.edge_indices(5)


class TestShardedPropagation:
    def _monolithic(self, heads, tails, weights, emb):
        out = np.zeros_like(emb)
        np.add.at(out, heads, weights[:, None] * emb[tails])
        return out

    @pytest.mark.parametrize("strategy", ["contiguous", "hash"])
    @pytest.mark.parametrize("num_shards", [1, 2, 5])
    def test_sharded_equals_monolithic(self, strategy, num_shards):
        store = random_store(6)
        rng = np.random.default_rng(7)
        weights = rng.random(len(store))
        emb = rng.normal(size=(store.num_entities, 8))
        part = partition_edges(store, num_shards=num_shards, strategy=strategy)
        sharded = sharded_segment_sum(store.heads, store.tails, weights, emb, part)
        mono = self._monolithic(store.heads, store.tails, weights, emb)
        np.testing.assert_allclose(sharded, mono, atol=1e-10)

    def test_mismatched_lengths_rejected(self):
        store = random_store(10)
        part = partition_edges(store, num_shards=2)
        with pytest.raises(ValueError):
            sharded_segment_sum(
                store.heads, store.tails, np.ones(3), np.zeros((store.num_entities, 2)), part
            )

    @pytest.mark.parametrize(
        "shard_of_edge",
        [np.array([0, 1]), np.array([0, 2, 1]), np.array([0, -1, 1])],
        ids=["short", "id-too-large", "negative-id"],
    )
    def test_partition_must_cover_every_edge(self, shard_of_edge):
        """A partition that would drop an edge is rejected, not summed short."""
        heads, tails = np.array([0, 1, 2]), np.array([1, 2, 0])
        part = EdgePartition(num_shards=2, shard_of_edge=shard_of_edge, strategy="test")
        with pytest.raises(ValueError, match="partition"):
            sharded_segment_sum(heads, tails, np.ones(3), np.ones((3, 1)), part)

    def test_matches_ckat_layer_neighborhood(self, ooi_ckg_best):
        """Sharded sum reproduces CKAT's frozen-attention neighborhood sum."""
        from repro.models.ckat.layers import uniform_edge_weights

        adj = CSRAdjacency(ooi_ckg_best.propagation_store)
        weights = uniform_edge_weights(adj)
        emb = np.random.default_rng(0).normal(size=(adj.num_entities, 4))
        A = coo_matrix((weights, (adj.heads, adj.tails)), shape=(adj.num_entities,) * 2)
        store = ooi_ckg_best.propagation_store
        part = partition_edges(store, num_shards=4, strategy="hash")
        # Careful: sharded sum works in the store's edge order; build weights
        # in that order (uniform weights depend only on head degree).
        degrees = np.bincount(store.heads, minlength=store.num_entities)
        w_store = 1.0 / degrees[store.heads]
        sharded = sharded_segment_sum(store.heads, store.tails, w_store, emb, part)
        np.testing.assert_allclose(sharded, A @ emb, atol=1e-9)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 1000), shards=st.integers(1, 6))
def test_sharded_sum_property(seed, shards):
    """Property: sharding is exact for any random graph and shard count.

    Two references: the scatter-add over all edges, and the fused kernel
    CKAT's propagation layer runs on the monolithic adjacency.
    """
    store = random_store(seed, n_entities=15, n_edges=40)
    rng = np.random.default_rng(seed + 1)
    weights = rng.random(len(store))
    emb = rng.normal(size=(15, 3))
    part = partition_edges(store, num_shards=shards, strategy="hash")
    sharded = sharded_segment_sum(store.heads, store.tails, weights, emb, part)
    mono = np.zeros_like(emb)
    np.add.at(mono, store.heads, weights[:, None] * emb[store.tails])
    np.testing.assert_allclose(sharded, mono, atol=1e-10)
    adj = CSRAdjacency(store)
    head_order = np.argsort(store.heads, kind="stable")  # the adjacency's edge order
    fused = dispatch.weighted_neighbor_sum(Tensor(emb), weights[head_order], adj)
    np.testing.assert_allclose(sharded, fused.data, atol=1e-10)
