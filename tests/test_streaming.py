"""Out-of-core dataset path: streamed traces, chunked builders, shard sampling.

The contracts locked here (see DESIGN.md §13):

- each streamed chunk draws its objects exactly as one ``rng.choice`` per
  record on the chunk's child RNG (``tests/trace_oracle.py``);
- streamed generation is bit-identical across block sizes (block size is a
  pure performance knob) and round-trips through the artifact store;
- the chunked interaction constructor is bit-identical to its monolithic
  counterpart;
- the scale-exposed bugfixes stay fixed: empty-key membership probes return
  all-False, the int64 pair-key space is guarded at construction, and k-core
  filtering runs to a fixed point.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    streamed_trace_to_interactions,
)
from repro.facility import stream as facility_stream
from repro.facility.affinity import OOI_AFFINITY, AffinityModel
from repro.facility.gage import GAGEConfig, build_gage_catalog
from repro.facility.ooi import OOIConfig, build_ooi_catalog
from repro.facility.stream import (
    TRACE_BLOCK_KIND,
    TRACE_STREAM_KIND,
    TRACE_STREAM_SCHEMA,
    TraceReader,
    _block_config,
    load_trace_stream,
    stream_config,
    stream_trace,
)
from repro.facility.trace import QueryTrace
from repro.facility.users import build_user_population
from repro.models.base import FitConfig
from repro.models.bprmf import BPRMF
from repro.store import ArtifactStore
from tests import trace_oracle

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

    @settings(max_examples=25, deadline=None)
    @given(
        kind=st.sampled_from(["ooi", "gage"]),
        catalog_seed=st.integers(0, 50),
        num_users=st.integers(1, 60),
        population_seed=st.integers(0, 10_000),
        affinity=st.builds(
            AffinityModel,
            p_region=st.floats(0.0, 1.0),
            p_dtype=st.floats(0.0, 1.0),
            popularity_exponent=st.floats(0.0, 2.0),
            site_concentration=st.floats(1.0, 50.0),
        ),
        queries=st.floats(1.0, 30.0),
        sigma=st.floats(0.0, 1.5),
        seed=st.integers(0, 2**32 - 1),
        gen_chunk=st.sampled_from([facility_stream.GEN_CHUNK, 1, 5, 16]),
        block_size=st.integers(1, 80),
    )
    def test_chunks_match_per_record_choice_loop(
        self, kind, catalog_seed, num_users, population_seed, affinity, queries, sigma,
        seed, gen_chunk, block_size,
    ):
        """Every chunk's records are the per-record ``rng.choice`` loop's, bit for bit.

        So per-user record counts and the (user, object) multiset match too.
        A small ``GEN_CHUNK`` puts several chunks into a small recipe.
        """
        if kind == "ooi":
            catalog = build_ooi_catalog(OOIConfig(num_sites=24), seed=catalog_seed)
        else:
            catalog = build_gage_catalog(
                GAGEConfig(num_stations=80, num_cities=50), seed=catalog_seed
            )
        population = build_user_population(
            catalog, num_users=num_users, num_orgs=min(num_users, 4), seed=population_seed
        )
        with mock.patch.object(facility_stream, "GEN_CHUNK", gen_chunk):
            got = stream_trace(
                catalog, population, affinity, seed=seed, queries_per_user_mean=queries,
                lognormal_sigma=sigma, block_size=block_size,
            ).materialize()
            ref = trace_oracle.stream(catalog, population, affinity, seed, queries, sigma)
        assert got.user_ids.tobytes() == ref.user_ids.tobytes()
        assert got.object_ids.tobytes() == ref.object_ids.tobytes()
        assert got.timestamps.tobytes() == ref.timestamps.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.5])
    def test_bad_mixture_row_raises(self, facility, bad):
        """The stream keeps ``Generator.choice``'s checks on each mixture row."""

        class Broken(AffinityModel):
            def unique_user_mixtures(self, catalog, population, rng):
                rows, inverse = super().unique_user_mixtures(catalog, population, rng)
                rows[-1, 0] = bad
                return rows, inverse

        catalog, population = facility
        with pytest.raises(ValueError, match="probabilities"):
            stream_trace(catalog, population, Broken(0.3, 0.3))

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

    def test_schema_one_stream_is_a_miss(self, facility, tmp_path):
        """Schema-1 blocks drew objects with another CDF convention: never served."""
        store, built = self._stream_with_store(facility, tmp_path)
        assert TRACE_STREAM_SCHEMA == 2
        old = ArtifactStore(tmp_path / "old")
        config = stream_config(self.RECIPE, 64)
        manifest = store.get(TRACE_STREAM_KIND, config, TRACE_STREAM_SCHEMA)
        old.put(
            TRACE_STREAM_KIND, config, 1,
            {"records_per_block": manifest.array("records_per_block")}, dict(manifest.meta),
        )
        for block in built.iter_blocks():
            old.put(
                TRACE_BLOCK_KIND, _block_config(self.RECIPE, 64, block.index), 1,
                {"user_ids": block.user_ids, "object_ids": block.object_ids,
                 "timestamps": block.timestamps},
                {"user_lo": block.user_lo, "user_hi": block.user_hi},
            )
        assert load_trace_stream(old, self.RECIPE, 64) is None

    def test_wrong_block_size_is_a_miss(self, facility, tmp_path):
        store, _ = self._stream_with_store(facility, tmp_path, block_size=64)
        assert load_trace_stream(store, self.RECIPE, 32) is None


# -------------------------------------------------------- chunked constructors
class TestChunkedInteractions:
    @staticmethod
    def _assert_chunked_equals_monolithic(reader, min_user, min_item):
        mono = trace_to_interactions(
            reader.materialize(), min_user_interactions=min_user, min_item_interactions=min_item
        )
        chunked = streamed_trace_to_interactions(
            reader, min_user_interactions=min_user, min_item_interactions=min_item
        )
        assert chunked.user_ids.tobytes() == mono.user_ids.tobytes()
        assert chunked.item_ids.tobytes() == mono.item_ids.tobytes()
        assert (chunked.num_users, chunked.num_items) == (mono.num_users, mono.num_items)
        return chunked

    @pytest.mark.parametrize("block_size", BLOCK_SIZES)
    def test_bit_identical_to_monolithic(self, facility, block_size):
        chunked = self._assert_chunked_equals_monolithic(_stream(facility, block_size), 3, 2)
        assert len(chunked) > 0

    @settings(max_examples=20, deadline=None)
    @given(
        block_size=st.integers(1, 400),
        seed=st.integers(0, 2**32 - 1),
        min_user=st.integers(1, 6),
        min_item=st.integers(1, 5),
    )
    def test_bit_identical_at_random_block_sizes(
        self, facility, block_size, seed, min_user, min_item
    ):
        """Any block size, seed and k-core minimums: chunked == in-memory builders.

        The fixed block sizes {1, 7, 10⁴} are the parametrized test above.
        """
        reader = _stream(facility, block_size, seed=seed)
        self._assert_chunked_equals_monolithic(reader, min_user, min_item)

    def test_default_filter_matches_too(self, facility, reader):
        mono = trace_to_interactions(reader.materialize())
        chunked = streamed_trace_to_interactions(reader)
        np.testing.assert_array_equal(chunked.user_ids, mono.user_ids)
        np.testing.assert_array_equal(chunked.item_ids, mono.item_ids)

    def test_rejects_bad_minimums(self, reader):
        with pytest.raises(ValueError, match=">= 1"):
            streamed_trace_to_interactions(reader, min_user_interactions=0)

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
