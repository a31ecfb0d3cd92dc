"""Analysis-module tests: Fig-3 distributions, Fig-5 locality, Fig-4 t-SNE."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.distributions import (
    compute_distributions,
    gini_coefficient,
    tail_ratio,
)
from repro.analysis.locality import pair_similarity_study, query_concentration
from repro.analysis.tsne import TSNE, object_feature_matrix, tsne_embed_user_queries
from repro.facility.trace import QueryTrace


class TestDistributions:
    def test_counts_match_brute_force(self, ooi_trace, ooi_catalog):
        d = compute_distributions(ooi_trace, ooi_catalog)
        # Brute force for a few users (distributions are sorted by activity,
        # so compare as multisets).
        expected_objects = sorted(
            len(np.unique(ooi_trace.queries_of_user(u))) for u in range(ooi_trace.num_users)
        )
        assert sorted(d.objects.tolist()) == expected_objects

    def test_sorted_by_activity(self, ooi_trace, ooi_catalog):
        d = compute_distributions(ooi_trace, ooi_catalog)
        assert (np.diff(d.total_queries) <= 0).all()

    def test_locations_bounded_by_objects(self, ooi_trace, ooi_catalog):
        d = compute_distributions(ooi_trace, ooi_catalog)
        assert (d.locations <= d.objects).all()
        assert (d.data_types <= d.objects).all()

    def test_summary_keys(self, ooi_trace, ooi_catalog):
        s = compute_distributions(ooi_trace, ooi_catalog).summary()
        assert {"active_users", "max_objects", "query_gini"} <= set(s)

    def test_catalog_mismatch_rejected(self, ooi_trace, gage_catalog):
        with pytest.raises(ValueError):
            compute_distributions(ooi_trace, gage_catalog)


class TestGiniAndTail:
    def test_gini_uniform_zero(self):
        assert gini_coefficient(np.full(100, 5.0)) == pytest.approx(0.0, abs=1e-9)

    def test_gini_concentrated_near_one(self):
        v = np.zeros(1000)
        v[0] = 1.0
        assert gini_coefficient(v) > 0.99

    def test_gini_empty(self):
        assert gini_coefficient(np.array([])) == 0.0

    def test_gini_negative_rejected(self):
        with pytest.raises(ValueError):
            gini_coefficient(np.array([-1.0, 2.0]))

    def test_tail_ratio_uniform(self):
        assert tail_ratio(np.ones(100), 0.1) == pytest.approx(0.1)

    def test_tail_ratio_all_in_top(self):
        v = np.zeros(100)
        v[0] = 10.0
        assert tail_ratio(v, 0.1) == 1.0

    def test_tail_ratio_invalid_fraction(self):
        with pytest.raises(ValueError):
            tail_ratio(np.ones(5), 0.0)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_gini_bounds_property(self, seed):
        rng = np.random.default_rng(seed)
        v = rng.random(50)
        g = gini_coefficient(v)
        assert 0.0 <= g <= 1.0


class TestQueryConcentration:
    def test_keys_and_bounds(self, ooi_trace, ooi_catalog):
        c = query_concentration(ooi_trace, ooi_catalog)
        assert 0.0 < c["same_region_fraction"] <= 1.0
        assert 0.0 < c["same_dtype_fraction"] <= 1.0

    def test_single_region_trace_fully_concentrated(self, ooi_catalog):
        region0_objects = np.flatnonzero(ooi_catalog.object_region == 0)[:3]
        trace = QueryTrace(
            np.zeros(6, dtype=int),
            np.tile(region0_objects, 2),
            np.arange(6.0),
            num_users=1,
            num_objects=ooi_catalog.num_objects,
        )
        c = query_concentration(trace, ooi_catalog, min_queries=5)
        assert c["same_region_fraction"] == pytest.approx(1.0)


class TestPairStudy:
    def test_affinity_data_shows_locality(self, ooi_trace, ooi_catalog, ooi_population):
        r = pair_similarity_study(
            ooi_trace, ooi_catalog, ooi_population, num_pairs=2000, seed=0
        )
        assert r.region_ratio > 1.0
        assert r.dtype_ratio > 1.0

    def test_probabilities_bounded(self, ooi_trace, ooi_catalog, ooi_population):
        r = pair_similarity_study(ooi_trace, ooi_catalog, ooi_population, num_pairs=500, seed=1)
        for p in (r.p_region_same_city, r.p_region_random, r.p_dtype_same_city, r.p_dtype_random):
            assert 0.0 <= p <= 1.0

    def test_deterministic(self, ooi_trace, ooi_catalog, ooi_population):
        a = pair_similarity_study(ooi_trace, ooi_catalog, ooi_population, num_pairs=300, seed=5)
        b = pair_similarity_study(ooi_trace, ooi_catalog, ooi_population, num_pairs=300, seed=5)
        assert a.as_dict() == b.as_dict()

    def test_invalid_num_pairs(self, ooi_trace, ooi_catalog, ooi_population):
        with pytest.raises(ValueError):
            pair_similarity_study(ooi_trace, ooi_catalog, ooi_population, num_pairs=0)

    def test_as_dict_keys(self, ooi_trace, ooi_catalog, ooi_population):
        r = pair_similarity_study(ooi_trace, ooi_catalog, ooi_population, num_pairs=200, seed=2)
        assert {"region_ratio", "dtype_ratio"} <= set(r.as_dict())


class TestTSNE:
    def test_separates_two_blobs(self):
        rng = np.random.default_rng(0)
        blob_a = rng.normal(0.0, 0.3, size=(20, 10))
        blob_b = rng.normal(5.0, 0.3, size=(20, 10))
        X = np.vstack([blob_a, blob_b])
        Y = TSNE(perplexity=10, n_iter=250).fit_transform(X, seed=0)
        centroid_a = Y[:20].mean(axis=0)
        centroid_b = Y[20:].mean(axis=0)
        within = np.linalg.norm(Y[:20] - centroid_a, axis=1).mean()
        between = np.linalg.norm(centroid_a - centroid_b)
        assert between > 3 * within

    def test_output_shape(self):
        X = np.random.default_rng(1).normal(size=(15, 6))
        Y = TSNE(perplexity=5, n_iter=60).fit_transform(X, seed=0)
        assert Y.shape == (15, 2)

    def test_centered_output(self):
        X = np.random.default_rng(1).normal(size=(12, 4))
        Y = TSNE(perplexity=4, n_iter=60).fit_transform(X, seed=0)
        np.testing.assert_allclose(Y.mean(axis=0), 0.0, atol=1e-9)

    def test_kl_better_than_random_layout(self):
        rng = np.random.default_rng(2)
        X = np.vstack([rng.normal(0, 0.3, (15, 8)), rng.normal(4, 0.3, (15, 8))])
        tsne = TSNE(perplexity=8, n_iter=200)
        Y = tsne.fit_transform(X, seed=0)
        random_layout = rng.normal(size=Y.shape)
        assert tsne.kl_divergence(X, Y) < tsne.kl_divergence(X, random_layout)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            TSNE().fit_transform(np.zeros((2, 3)))

    def test_validation(self):
        with pytest.raises(ValueError):
            TSNE(perplexity=0.5)
        with pytest.raises(ValueError):
            TSNE(n_iter=0)

    def test_deterministic(self):
        X = np.random.default_rng(3).normal(size=(10, 5))
        a = TSNE(perplexity=4, n_iter=50).fit_transform(X, seed=9)
        b = TSNE(perplexity=4, n_iter=50).fit_transform(X, seed=9)
        np.testing.assert_allclose(a, b)


class TestObjectFeatures:
    def test_shape(self, ooi_catalog):
        feats = object_feature_matrix(ooi_catalog)
        expected_cols = (
            ooi_catalog.num_sites
            + ooi_catalog.num_regions
            + ooi_catalog.num_data_types
            + ooi_catalog.num_disciplines
            + ooi_catalog.num_instrument_classes
        )
        assert feats.shape == (ooi_catalog.num_objects, expected_cols)

    def test_rows_are_five_hot(self, ooi_catalog):
        feats = object_feature_matrix(ooi_catalog)
        np.testing.assert_allclose(feats.sum(axis=1), 5.0)


class TestUserQueryEmbedding:
    def test_embed_heavy_users(self, ooi_trace, ooi_catalog, ooi_population):
        counts = ooi_trace.per_user_counts()
        top = np.argsort(-counts)[:4]
        emb = tsne_embed_user_queries(
            ooi_trace, ooi_catalog, top, max_objects_per_user=10, n_iter=60, seed=0
        )
        assert emb.points.shape[1] == 2
        assert len(emb.points) == len(emb.user_labels) == len(emb.object_ids)
        assert set(emb.user_labels.tolist()) <= set(top.tolist())

    def test_separability_bounded(self, ooi_trace, ooi_catalog, ooi_population):
        counts = ooi_trace.per_user_counts()
        top = np.argsort(-counts)[:4]
        emb = tsne_embed_user_queries(
            ooi_trace, ooi_catalog, top, max_objects_per_user=10, n_iter=60, seed=0
        )
        assert -1.0 <= emb.user_separability() <= 1.0
