"""Out-of-core dataset path: streamed traces, chunked builders, shard sampling.

The contracts locked here (see DESIGN.md §13):

- streamed generation is bit-identical across block sizes (block size is a
  pure performance knob) and round-trips through the artifact store;
- the chunked constructors (interactions, CSR adjacency) are bit-identical
  to their monolithic counterparts;
- the scale-exposed bugfixes stay fixed: empty-key membership probes return
  all-False, the int64 pair-key space is guarded at construction, and k-core
  filtering runs to a fixed point.
"""

import numpy as np
import pytest

from repro.data.interactions import (
    InteractionDataset,
    KCORE_MAX_ROUNDS,
    kcore_filter_masks,
    trace_to_interactions,
)
from repro.data.sampling import (
    BPRSampler,
    ShardedBPRSampler,
    _sorted_membership,
    check_pair_key_space,
)
from repro.data.streaming import (
    blocked_per_user_split,
    interaction_pair_chunks,
    streamed_trace_to_interactions,
)
from repro.facility.affinity import OOI_AFFINITY
from repro.facility.ooi import OOIConfig, build_ooi_catalog
from repro.facility.stream import (
    TRACE_BLOCK_KIND,
    TRACE_STREAM_SCHEMA,
    TraceReader,
    _block_config,
    load_trace_stream,
    stream_config,
    stream_trace,
)
from repro.facility.trace import QueryTrace
from repro.facility.users import build_user_population
from repro.kg.adjacency import CSRAdjacency
from repro.kg.subgraphs import INTERACT, EntitySpace, build_uig
from repro.models.base import FitConfig
from repro.models.bprmf import BPRMF
from repro.store import ArtifactStore

SEED = 11
BLOCK_SIZES = [1, 7, 10_000]


@pytest.fixture(scope="module")
def facility():
    catalog = build_ooi_catalog(OOIConfig(num_sites=30), seed=SEED)
    population = build_user_population(
        catalog, num_users=150, num_orgs=12, num_cities=6, seed=SEED + 1
    )
    return catalog, population


def _stream(facility, block_size, store=None, recipe=None, seed=SEED):
    catalog, population = facility
    return stream_trace(
        catalog,
        population,
        OOI_AFFINITY,
        seed=seed,
        queries_per_user_mean=25.0,
        block_size=block_size,
        store=store,
        recipe=recipe,
    )


@pytest.fixture(scope="module")
def reader(facility):
    return _stream(facility, block_size=64)


# ------------------------------------------------------------ stream generation
class TestStreamGeneration:
    def test_block_size_is_a_pure_perf_knob(self, facility, reader):
        """Identical bits at block sizes 1, 7 and 10⁴ (tentpole contract)."""
        base = reader.materialize()
        for block_size in BLOCK_SIZES:
            other = _stream(facility, block_size).materialize()
            np.testing.assert_array_equal(other.user_ids, base.user_ids)
            np.testing.assert_array_equal(other.object_ids, base.object_ids)
            np.testing.assert_array_equal(other.timestamps, base.timestamps)

    def test_user_major_layout(self, reader):
        """Blocks partition the user space; timestamps ascend within a user."""
        seen_hi = 0
        for block in reader.iter_blocks():
            assert block.user_lo == seen_hi
            seen_hi = block.user_hi
            if len(block):
                assert block.user_ids.min() >= block.user_lo
                assert block.user_ids.max() < block.user_hi
                assert np.all(np.diff(block.user_ids) >= 0)
                same_user = np.diff(block.user_ids) == 0
                assert np.all(np.diff(block.timestamps)[same_user] >= 0)
        assert seen_hi == reader.num_users

    def test_record_accounting(self, reader):
        assert reader.num_blocks == len(reader.records_per_block)
        assert reader.num_records == sum(len(b) for b in reader.iter_blocks())
        users, objects = zip(*reader.pair_chunks())
        assert sum(len(u) for u in users) == reader.num_records
        trace = reader.materialize()
        assert len(trace.user_ids) == reader.num_records
        assert trace.num_objects == reader.num_objects

    def test_different_seeds_differ(self, facility, reader):
        other = _stream(facility, block_size=64, seed=SEED + 99).materialize()
        base = reader.materialize()
        assert len(other.user_ids) != len(base.user_ids) or not np.array_equal(
            other.object_ids, base.object_ids
        )

    def test_rejects_bad_params(self, facility):
        catalog, population = facility
        with pytest.raises(ValueError, match="block_size"):
            _stream(facility, block_size=0)
        with pytest.raises(ValueError, match="queries_per_user_mean"):
            stream_trace(catalog, population, OOI_AFFINITY, queries_per_user_mean=0.0)
        with pytest.raises(ValueError, match="recipe"):
            stream_trace(catalog, population, OOI_AFFINITY, store=object())  # type: ignore[arg-type]

    def test_reader_needs_exactly_one_source(self):
        with pytest.raises(ValueError, match="exactly one"):
            TraceReader(10, 5, 4, np.zeros(3, np.int64))


# ----------------------------------------------------------- store-backed path
class TestStoreBackedStream:
    RECIPE = {"name": "unit", "seed": SEED}

    def _stream_with_store(self, facility, tmp_path, block_size=64):
        store = ArtifactStore(tmp_path / "cache")
        reader = _stream(facility, block_size, store=store, recipe=self.RECIPE)
        return store, reader

    def test_warm_reload_is_bit_identical(self, facility, tmp_path):
        store, built = self._stream_with_store(facility, tmp_path)
        warm = load_trace_stream(store, self.RECIPE, 64)
        assert warm is not None
        base, again = built.materialize(), warm.materialize()
        np.testing.assert_array_equal(again.user_ids, base.user_ids)
        np.testing.assert_array_equal(again.object_ids, base.object_ids)
        np.testing.assert_array_equal(again.timestamps, base.timestamps)

    def test_store_blocks_match_memory_blocks(self, facility, tmp_path):
        store, stored = self._stream_with_store(facility, tmp_path)
        mem = _stream(facility, block_size=64)
        for a, b in zip(stored.iter_blocks(), mem.iter_blocks()):
            np.testing.assert_array_equal(a.user_ids, b.user_ids)
            np.testing.assert_array_equal(a.object_ids, b.object_ids)

    def test_missing_manifest_is_a_miss(self, facility, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        assert load_trace_stream(store, self.RECIPE, 64) is None

    def test_corrupt_block_is_a_miss(self, facility, tmp_path):
        store, built = self._stream_with_store(facility, tmp_path)
        entry = store.entry_path(
            TRACE_BLOCK_KIND, _block_config(self.RECIPE, 64, 0), TRACE_STREAM_SCHEMA
        )
        payload = entry / "user_ids.npy"
        raw = payload.read_bytes()
        payload.write_bytes(raw[:-1] + bytes([raw[-1] ^ 0xFF]))
        assert load_trace_stream(store, self.RECIPE, 64) is None

    def test_wrong_block_size_is_a_miss(self, facility, tmp_path):
        store, _ = self._stream_with_store(facility, tmp_path, block_size=64)
        assert load_trace_stream(store, self.RECIPE, 32) is None


# -------------------------------------------------------- chunked constructors
class TestChunkedInteractions:
    @pytest.mark.parametrize("block_size", BLOCK_SIZES)
    def test_bit_identical_to_monolithic(self, facility, block_size):
        reader = _stream(facility, block_size)
        mono = trace_to_interactions(
            reader.materialize(), min_user_interactions=3, min_item_interactions=2
        )
        chunked = streamed_trace_to_interactions(
            reader, min_user_interactions=3, min_item_interactions=2
        )
        assert len(chunked) > 0
        np.testing.assert_array_equal(chunked.user_ids, mono.user_ids)
        np.testing.assert_array_equal(chunked.item_ids, mono.item_ids)
        assert (chunked.num_users, chunked.num_items) == (mono.num_users, mono.num_items)

    def test_default_filter_matches_too(self, facility, reader):
        mono = trace_to_interactions(reader.materialize())
        chunked = streamed_trace_to_interactions(reader)
        np.testing.assert_array_equal(chunked.user_ids, mono.user_ids)
        np.testing.assert_array_equal(chunked.item_ids, mono.item_ids)

    def test_rejects_bad_minimums(self, reader):
        with pytest.raises(ValueError, match=">= 1"):
            streamed_trace_to_interactions(reader, min_user_interactions=0)

    def test_pair_chunk_views_cover_dataset(self, facility, reader):
        data = streamed_trace_to_interactions(reader)
        for users_per_chunk in (1, 17, 10_000):
            chunks = list(interaction_pair_chunks(data, users_per_chunk))
            users = np.concatenate([u for u, _ in chunks])
            items = np.concatenate([i for _, i in chunks])
            np.testing.assert_array_equal(users, data.user_ids)
            np.testing.assert_array_equal(items, data.item_ids)
        with pytest.raises(ValueError, match="users_per_chunk"):
            list(interaction_pair_chunks(data, 0))


def _divergence_trace():
    """A trace where one filter pass is not enough (satellite regression).

    With ``min_user=2, min_item=2``: the first item pass drops item 0
    (degree 1), the first user pass then drops users 0 and 2 — which lowers
    items 1 and 2 to degree 1, *still violating* the item constraint.  The
    fixed point must continue until only the stable clique
    ``{u3, u4} × {d=3, e=4}`` survives.
    """
    users = np.array([0, 0, 1, 1, 2, 3, 3, 4, 4], dtype=np.int64)
    items = np.array([0, 1, 1, 2, 2, 3, 4, 3, 4], dtype=np.int64)
    stamps = np.arange(len(users), dtype=np.float64)
    return QueryTrace(users, items, stamps, num_users=5, num_objects=5)


class TestKCoreFixedPoint:
    def test_single_pass_leaves_violations_fixed_point_does_not(self):
        trace = _divergence_trace()
        data = trace_to_interactions(trace, min_user_interactions=2, min_item_interactions=2)
        assert data.item_degree()[data.item_degree() > 0].min() >= 2
        assert data.user_degree()[data.user_degree() > 0].min() >= 2
        np.testing.assert_array_equal(data.user_ids, [3, 3, 4, 4])
        np.testing.assert_array_equal(data.item_ids, [3, 4, 3, 4])

    def test_masks_converge_to_stable_core(self):
        trace = _divergence_trace()
        pairs = lambda: iter([(trace.user_ids, trace.object_ids)])  # noqa: E731
        user_keep, item_keep = kcore_filter_masks(pairs, 5, 5, 2, 2)
        np.testing.assert_array_equal(user_keep, [False, False, False, True, True])
        np.testing.assert_array_equal(item_keep, [False, False, False, True, True])

    def test_max_rounds_bound_is_loud(self):
        trace = _divergence_trace()
        pairs = lambda: iter([(trace.user_ids, trace.object_ids)])  # noqa: E731
        with pytest.raises(RuntimeError, match="did not converge"):
            kcore_filter_masks(pairs, 5, 5, 2, 2, max_rounds=1)
        assert KCORE_MAX_ROUNDS >= 10_000

    def test_min_item_one_matches_historical_single_pass(self, reader):
        """The default filter's fixed point is the old single pass (bit-compat)."""
        trace = reader.materialize()
        users, items = trace.unique_pairs()
        degree = np.bincount(users, minlength=trace.num_users)
        keep = degree[users] >= 5
        data = trace_to_interactions(trace, min_user_interactions=5)
        expect = InteractionDataset(users[keep], items[keep], trace.num_users, trace.num_objects)
        np.testing.assert_array_equal(data.user_ids, expect.user_ids)
        np.testing.assert_array_equal(data.item_ids, expect.item_ids)

    def test_streamed_path_applies_same_fixed_point(self, facility):
        reader = _stream(facility, block_size=16)
        mono = trace_to_interactions(
            reader.materialize(), min_user_interactions=4, min_item_interactions=3
        )
        chunked = streamed_trace_to_interactions(
            reader, min_user_interactions=4, min_item_interactions=3
        )
        np.testing.assert_array_equal(chunked.user_ids, mono.user_ids)
        np.testing.assert_array_equal(chunked.item_ids, mono.item_ids)


# ------------------------------------------------------------- chunked CSR/KG
def _interaction_space(data):
    space = EntitySpace()
    space.add_block("user", data.num_users)
    space.add_block("item", data.num_items)
    return space


def _chunked_interaction_adjacency(space, pair_chunks):
    """Interaction CSR from deduplicated (user, item) chunks: a forward sweep
    then an inverse sweep, the edge order ``with_inverses`` gives the one
    symmetric ``interact`` relation."""

    def edges():
        for inverse in (False, True):
            for users, items in pair_chunks():
                u = space.global_ids("user", np.asarray(users, dtype=np.int64))
                i = space.global_ids("item", np.asarray(items, dtype=np.int64))
                rels = np.zeros(len(u), dtype=np.int64)
                yield (i, rels, u) if inverse else (u, rels, i)

    return CSRAdjacency.from_edge_chunks(edges, space.num_entities, num_relations=1)


class TestChunkedAdjacency:
    @pytest.fixture(scope="class")
    def data(self, facility):
        return streamed_trace_to_interactions(_stream(facility, block_size=64))

    @pytest.mark.parametrize("users_per_chunk", [1, 13, 10_000])
    def test_bit_identical_to_monolithic(self, data, users_per_chunk):
        space = _interaction_space(data)
        mono = CSRAdjacency(
            build_uig(space, data.user_ids, data.item_ids).with_inverses(symmetric=(INTERACT,))
        )
        chunked = _chunked_interaction_adjacency(
            space, lambda: interaction_pair_chunks(data, users_per_chunk)
        )
        np.testing.assert_array_equal(chunked.heads, mono.heads)
        np.testing.assert_array_equal(chunked.tails, mono.tails)
        np.testing.assert_array_equal(chunked.rels, mono.rels)
        np.testing.assert_array_equal(chunked.offsets, mono.offsets)

    def test_empty_chunks_tolerated(self):
        empty = np.zeros(0, dtype=np.int64)
        chunks = lambda: iter(  # noqa: E731
            [
                (np.array([2, 0]), np.array([0, 0]), np.array([1, 1])),
                (empty, empty, empty),
                (np.array([0]), np.array([0]), np.array([2])),
            ]
        )
        adj = CSRAdjacency.from_edge_chunks(chunks, num_entities=3, num_relations=1)
        np.testing.assert_array_equal(adj.heads, [0, 0, 2])
        np.testing.assert_array_equal(adj.tails, [1, 2, 1])

    def test_changed_chunks_between_passes_is_loud(self):
        state = {"calls": 0}

        def chunks():
            state["calls"] += 1
            n = 3 if state["calls"] == 1 else 2
            yield (
                np.zeros(n, dtype=np.int64),
                np.zeros(n, dtype=np.int64),
                np.zeros(n, dtype=np.int64),
            )

        with pytest.raises(ValueError, match="changed between passes"):
            CSRAdjacency.from_edge_chunks(chunks, num_entities=2, num_relations=1)

    def test_range_validation(self):
        one = lambda h, r, t: lambda: iter(  # noqa: E731
            [(np.array([h]), np.array([r]), np.array([t]))]
        )
        with pytest.raises(ValueError, match="head"):
            CSRAdjacency.from_edge_chunks(one(5, 0, 0), num_entities=3, num_relations=1)
        with pytest.raises(ValueError, match="tail"):
            CSRAdjacency.from_edge_chunks(one(0, 0, 5), num_entities=3, num_relations=1)
        with pytest.raises(ValueError, match="relation"):
            CSRAdjacency.from_edge_chunks(one(0, 2, 0), num_entities=3, num_relations=1)


# ------------------------------------------------------- sampler regressions
class TestMembershipProbe:
    def test_empty_keys_are_all_false(self):
        """Satellite regression: empty sorted array must not fancy-index."""
        result = _sorted_membership(np.zeros(0, np.int64), np.array([0, 5, 9]))
        assert result.dtype == bool
        np.testing.assert_array_equal(result, [False, False, False])

    def test_nonempty_membership(self):
        keys = np.array([2, 5, 9], dtype=np.int64)
        np.testing.assert_array_equal(
            _sorted_membership(keys, np.array([0, 2, 5, 8, 9, 11])),
            [False, True, True, False, True, False],
        )

    def test_sharded_empty_shard_is_all_false(self):
        # Users 4..7 have no interactions → shard 2 (users_per_shard=2) empty.
        data = InteractionDataset(
            np.array([0, 0, 1, 8, 9]), np.array([0, 1, 0, 1, 0]), num_users=10, num_items=3
        )
        sampler = ShardedBPRSampler(data, users_per_shard=2)
        assert sampler.shard_keys(2).size == 0
        probe = sampler.shard_is_positive(2, np.array([4, 5]), np.array([0, 1]))
        np.testing.assert_array_equal(probe, [False, False])
        # Non-empty shards still answer correctly.
        assert sampler.shard_is_positive(0, np.array([0]), np.array([1]))[0]
        assert not sampler.shard_is_positive(0, np.array([0]), np.array([2]))[0]


class TestKeySpaceGuard:
    def test_guard_rejects_overflowing_product(self):
        with pytest.raises(ValueError, match="overflows int64"):
            check_pair_key_space(2**21, 2**43)
        # 2**63 keys: the largest key is 2**63 - 1 — exactly representable.
        check_pair_key_space(2**20, 2**43)

    def test_samplers_fail_at_construction(self):
        data = InteractionDataset(
            np.array([0]), np.array([0]), num_users=2**21, num_items=2**43
        )
        with pytest.raises(ValueError, match="overflows int64"):
            BPRSampler(data)
        with pytest.raises(ValueError, match="overflows int64"):
            ShardedBPRSampler(data)

    def test_streamed_interactions_guarded_too(self):
        reader = TraceReader(
            num_users=2**21,
            num_objects=2**43,
            block_size=4,
            records_per_block=np.zeros(1, np.int64),
            blocks=[],
        )
        with pytest.raises(ValueError, match="overflows int64"):
            streamed_trace_to_interactions(reader)


class TestShardedSampler:
    @pytest.fixture(scope="class")
    def train(self, facility):
        reader = _stream(facility, block_size=64)
        return blocked_per_user_split(
            streamed_trace_to_interactions(reader), seed=SEED
        ).train

    def test_epoch_covers_every_interaction_once(self, train):
        sampler = ShardedBPRSampler(train, users_per_shard=16)
        picked = []
        for users, pos, neg in sampler.epoch_batches(batch_size=32, seed=3):
            assert len(users) == len(pos) == len(neg)
            picked.append(users * np.int64(train.num_items) + pos)
        picked = np.sort(np.concatenate(picked))
        expected = np.sort(train.user_ids * np.int64(train.num_items) + train.item_ids)
        np.testing.assert_array_equal(picked, expected)

    def test_negatives_are_never_positives(self, train):
        sampler = ShardedBPRSampler(train, users_per_shard=16)
        reference = BPRSampler(train)
        for users, _, neg in sampler.epoch_batches(batch_size=64, seed=5):
            assert not reference.is_positive(users, neg).any()

    def test_shard_geometry(self, train):
        sampler = ShardedBPRSampler(train, users_per_shard=16)
        assert sampler.num_shards == -(-train.num_users // 16)
        lo, hi = sampler.shard_users(sampler.num_shards - 1)
        assert hi == train.num_users
        with pytest.raises(IndexError):
            sampler.shard_users(sampler.num_shards)
        with pytest.raises(ValueError, match="users_per_shard"):
            ShardedBPRSampler(train, users_per_shard=0)

    def test_fit_accepts_injected_sampler(self, train):
        model = BPRMF(train.num_users, train.num_items, dim=4, seed=SEED)
        sampler = ShardedBPRSampler(train, users_per_shard=32)
        result = model.fit(
            train, FitConfig(epochs=2, batch_size=64, seed=SEED), sampler=sampler
        )
        assert len(result.losses) == 2
        assert np.isfinite(result.losses).all()


# -------------------------------------------------------------- blocked split
class TestBlockedSplit:
    @pytest.fixture(scope="class")
    def data(self, facility):
        return streamed_trace_to_interactions(_stream(facility, block_size=64))

    def test_per_user_guarantees(self, data):
        split = blocked_per_user_split(data, train_fraction=0.8, seed=SEED)
        degree = data.user_degree()
        n_train = np.where(
            degree <= 1,
            degree,
            np.minimum(np.ceil(degree * 0.8).astype(np.int64), degree - 1),
        )
        np.testing.assert_array_equal(split.train.user_degree(), n_train)
        np.testing.assert_array_equal(split.test.user_degree(), degree - n_train)

    def test_split_partitions_dataset(self, data):
        split = blocked_per_user_split(data, seed=SEED)
        key = lambda d: np.sort(  # noqa: E731
            d.user_ids * np.int64(d.num_items) + d.item_ids
        )
        merged = np.sort(np.concatenate([key(split.train), key(split.test)]))
        np.testing.assert_array_equal(merged, key(data))
        assert np.intersect1d(key(split.train), key(split.test)).size == 0

    def test_singletons_go_to_train(self):
        data = InteractionDataset(
            np.array([0, 1, 1, 1]), np.array([2, 0, 1, 2]), num_users=2, num_items=3
        )
        split = blocked_per_user_split(data, seed=0)
        assert split.train.user_degree()[0] == 1
        assert split.test.user_degree()[0] == 0

    def test_deterministic_in_seed(self, data):
        a = blocked_per_user_split(data, seed=3)
        b = blocked_per_user_split(data, seed=3)
        c = blocked_per_user_split(data, seed=4)
        np.testing.assert_array_equal(a.train.item_ids, b.train.item_ids)
        assert not np.array_equal(a.train.item_ids, c.train.item_ids)

    def test_rejects_bad_fraction(self, data):
        with pytest.raises(ValueError, match="train_fraction"):
            blocked_per_user_split(data, train_fraction=1.0)


# ----------------------------------------------------------- pipeline staging
class TestPipelineTraceStream:
    def _pipe(self, cache_dir=None):
        from repro.pipeline import DatasetPipeline

        return DatasetPipeline("ooi", scale="small", seed=7, cache_dir=cache_dir)

    def test_keys_depend_on_block_size_and_seed(self):
        from repro.pipeline import DatasetPipeline

        a, b = self._pipe(), self._pipe()
        assert a.stage_key("trace_stream") == b.stage_key("trace_stream")
        assert a.stage_key("trace_stream", block_size=512) != a.stage_key("trace_stream")
        other = DatasetPipeline("ooi", scale="small", seed=8)
        assert other.stage_key("trace_stream") != a.stage_key("trace_stream")
        assert a.stage_key("trace_stream") != a.stage_key("trace")

    def test_cold_warm_memo_counters(self, tmp_path):
        cache = tmp_path / "cache"
        pipe = self._pipe(cache)
        reader = pipe.trace_stream(block_size=512)
        assert pipe.stage_counters()["trace_stream"]["built"] == 1
        assert pipe.trace_stream(block_size=512) is reader
        assert pipe.stage_counters()["trace_stream"]["memo"] == 1

        warm = self._pipe(cache)
        again = warm.trace_stream(block_size=512)
        counts = warm.stage_counters()["trace_stream"]
        assert counts["loaded"] == 1 and counts["built"] == 0
        base = reader.materialize()
        reload = again.materialize()
        np.testing.assert_array_equal(reload.user_ids, base.user_ids)
        np.testing.assert_array_equal(reload.object_ids, base.object_ids)

    def test_corrupt_block_degrades_to_rebuild(self, tmp_path):
        from repro.facility.stream import TRACE_STREAM_KIND

        cache = tmp_path / "cache"
        pipe = self._pipe(cache)
        base = pipe.trace_stream(block_size=512).materialize()

        entry = pipe.store.entry_path(
            TRACE_BLOCK_KIND,
            _block_config(pipe.recipe(), 512, 0),
            TRACE_STREAM_SCHEMA,
        )
        payload = entry / "object_ids.npy"
        raw = payload.read_bytes()
        payload.write_bytes(raw[:-1] + bytes([raw[-1] ^ 0xFF]))
        assert pipe.store.entry_path(
            TRACE_STREAM_KIND, stream_config(pipe.recipe(), 512), TRACE_STREAM_SCHEMA
        ).exists()

        rebuilt = self._pipe(cache)
        again = rebuilt.trace_stream(block_size=512).materialize()
        assert rebuilt.stage_counters()["trace_stream"]["built"] == 1
        np.testing.assert_array_equal(again.user_ids, base.user_ids)
        np.testing.assert_array_equal(again.object_ids, base.object_ids)


# ------------------------------------------------------------- scale pipeline
class TestScalePipelineSmoke:
    def test_tiny_end_to_end(self, tmp_path):
        from repro.experiments.scale import monolithic_lower_bound_bytes, run_scale_pipeline

        stats = run_scale_pipeline(
            num_users=600,
            num_orgs=30,
            num_cities=10,
            num_sites=30,
            queries_per_user_mean=20.0,
            min_user_interactions=2,
            block_size=128,
            users_per_shard=128,
            dim=4,
            batch_size=256,
            epochs=1,
            eval_users=100,
            cache_dir=str(tmp_path / "cache"),
            seed=SEED,
        )
        assert stats["num_interactions"] > 0
        assert set(stats["phases"]) == {
            "facility",
            "trace_stream",
            "interactions",
            "split",
            "train",
            "eval",
        }
        assert stats["peak_rss_mb"] > 0
        assert all(np.isfinite(v) for v in stats["metrics"].values())
        assert not stats["phases"]["trace_stream"]["warm"]
        # Warm rerun reuses the persisted stream and keeps the numbers.
        again = run_scale_pipeline(
            num_users=600,
            num_orgs=30,
            num_cities=10,
            num_sites=30,
            queries_per_user_mean=20.0,
            min_user_interactions=2,
            block_size=128,
            users_per_shard=128,
            dim=4,
            batch_size=256,
            epochs=1,
            eval_users=100,
            cache_dir=str(tmp_path / "cache"),
            seed=SEED,
        )
        assert again["phases"]["trace_stream"]["warm"]
        assert again["num_interactions"] == stats["num_interactions"]
        assert again["metrics"] == stats["metrics"]
        # K (rows, N) float64 rows and CDFs, plus five 8-byte arrays per record.
        assert monolithic_lower_bound_bytes(3, 10, 100) == 2 * 3 * 10 * 8 + 5 * 100 * 8
