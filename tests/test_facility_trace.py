"""Query-trace generator tests."""

import numpy as np
import pytest

from repro.facility.trace import SECONDS_PER_YEAR, QueryTrace, TraceGenerator, generate_trace


class TestQueryTrace:
    def test_length(self, ooi_trace):
        assert len(ooi_trace) == len(ooi_trace.user_ids)

    def test_ids_in_range(self, ooi_trace):
        assert ooi_trace.user_ids.min() >= 0
        assert ooi_trace.user_ids.max() < ooi_trace.num_users
        assert ooi_trace.object_ids.max() < ooi_trace.num_objects

    def test_timestamps_sorted_within_year(self, ooi_trace):
        ts = ooi_trace.timestamps
        assert (np.diff(ts) >= 0).all()
        assert ts.min() >= 0 and ts.max() <= SECONDS_PER_YEAR

    def test_queries_of_user(self, ooi_trace):
        objs = ooi_trace.queries_of_user(0)
        assert len(objs) == (ooi_trace.user_ids == 0).sum()

    def test_per_user_counts_sum(self, ooi_trace):
        counts = ooi_trace.per_user_counts()
        assert counts.sum() == len(ooi_trace)
        assert len(counts) == ooi_trace.num_users

    def test_unique_pairs_deduplicated(self, ooi_trace):
        u, v = ooi_trace.unique_pairs()
        keys = u * ooi_trace.num_objects + v
        assert len(np.unique(keys)) == len(keys)

    def test_unique_pairs_subset_of_records(self, ooi_trace):
        u, v = ooi_trace.unique_pairs()
        record_keys = set(
            (ooi_trace.user_ids * ooi_trace.num_objects + ooi_trace.object_ids).tolist()
        )
        assert set((u * ooi_trace.num_objects + v).tolist()) == record_keys

    def test_subset(self, ooi_trace):
        mask = ooi_trace.user_ids == 0
        sub = ooi_trace.subset(mask)
        assert len(sub) == mask.sum()
        assert (sub.user_ids == 0).all()

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(ValueError):
            QueryTrace(np.zeros(2, dtype=int), np.zeros(3, dtype=int), np.zeros(2), 5, 5)

    def test_out_of_range_user_rejected(self):
        with pytest.raises(ValueError):
            QueryTrace(np.array([7]), np.array([0]), np.array([0.0]), 5, 5)

    def test_out_of_range_object_rejected(self):
        with pytest.raises(ValueError):
            QueryTrace(np.array([0]), np.array([9]), np.array([0.0]), 5, 5)


class TestTraceGenerator:
    def test_every_user_queries(self, ooi_trace):
        counts = ooi_trace.per_user_counts()
        assert (counts >= 1).all()

    def test_deterministic(self, ooi_catalog, ooi_population, affinity):
        a = generate_trace(ooi_catalog, ooi_population, affinity, seed=42)
        b = generate_trace(ooi_catalog, ooi_population, affinity, seed=42)
        np.testing.assert_array_equal(a.object_ids, b.object_ids)
        np.testing.assert_array_equal(a.user_ids, b.user_ids)

    def test_seed_changes_trace(self, ooi_catalog, ooi_population, affinity):
        a = generate_trace(ooi_catalog, ooi_population, affinity, seed=1)
        b = generate_trace(ooi_catalog, ooi_population, affinity, seed=2)
        assert len(a) != len(b) or not np.array_equal(a.object_ids, b.object_ids)

    def test_mean_queries_scales(self, ooi_catalog, ooi_population, affinity):
        small = generate_trace(
            ooi_catalog, ooi_population, affinity, seed=3, queries_per_user_mean=10.0
        )
        large = generate_trace(
            ooi_catalog, ooi_population, affinity, seed=3, queries_per_user_mean=100.0
        )
        assert len(large) > 3 * len(small)

    def test_heavy_tail(self, ooi_catalog, ooi_population, affinity):
        trace = generate_trace(
            ooi_catalog, ooi_population, affinity, seed=4, lognormal_sigma=1.5
        )
        counts = trace.per_user_counts()
        assert counts.max() > 5 * np.median(counts)

    def test_zero_sigma_near_constant(self, ooi_catalog, ooi_population, affinity):
        gen = TraceGenerator(
            ooi_catalog, ooi_population, affinity, queries_per_user_mean=20.0, lognormal_sigma=0.0
        )
        counts = gen.sample_query_counts(np.random.default_rng(0), gen.population.num_users)
        assert counts.min() == counts.max() == 20

    def test_validation(self, ooi_catalog, ooi_population, affinity):
        with pytest.raises(ValueError):
            TraceGenerator(ooi_catalog, ooi_population, affinity, queries_per_user_mean=0)
        with pytest.raises(ValueError):
            TraceGenerator(ooi_catalog, ooi_population, affinity, lognormal_sigma=-1)

    def test_focus_biases_queries(self, ooi_catalog, ooi_population, affinity):
        """Users query their focus region more than its global share."""
        trace = generate_trace(ooi_catalog, ooi_population, affinity, seed=5)
        hits, total = 0, 0
        for u in range(ooi_population.num_users):
            objs = trace.queries_of_user(u)
            hits += (ooi_catalog.object_region[objs] == ooi_population.user_focus_region[u]).sum()
            total += len(objs)
        global_share = np.bincount(ooi_catalog.object_region).max() / ooi_catalog.num_objects
        assert hits / total > global_share
