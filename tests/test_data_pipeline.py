"""Data pipeline tests: interactions, splitting, BPR sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import BPRSampler, InteractionDataset, per_user_split, trace_to_interactions
from repro.facility.trace import QueryTrace


class TestInteractionDataset:
    def test_sorted_by_user(self, ooi_interactions):
        assert (np.diff(ooi_interactions.user_ids) >= 0).all()

    def test_items_of_user(self, ooi_interactions):
        for u in range(0, ooi_interactions.num_users, 7):
            items = ooi_interactions.items_of_user(u)
            brute = np.sort(
                ooi_interactions.item_ids[ooi_interactions.user_ids == u]
            )
            np.testing.assert_array_equal(items, brute)

    def test_degrees_sum(self, ooi_interactions):
        assert ooi_interactions.user_degree().sum() == len(ooi_interactions)
        assert ooi_interactions.item_degree().sum() == len(ooi_interactions)

    def test_to_csr(self, ooi_interactions):
        csr = ooi_interactions.to_csr()
        assert csr.shape == (ooi_interactions.num_users, ooi_interactions.num_items)
        assert csr.nnz == len(ooi_interactions)

    def test_density(self):
        d = InteractionDataset(np.array([0]), np.array([0]), 2, 2)
        assert d.density() == 0.25

    def test_active_users(self):
        d = InteractionDataset(np.array([0, 2]), np.array([0, 1]), 4, 3)
        np.testing.assert_array_equal(d.active_users(), [0, 2])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            InteractionDataset(np.array([5]), np.array([0]), 3, 3)
        with pytest.raises(ValueError):
            InteractionDataset(np.array([0]), np.array([9]), 3, 3)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            InteractionDataset(np.array([0, 1]), np.array([0]), 3, 3)

    def test_repr(self, ooi_interactions):
        assert "interactions" in repr(ooi_interactions)


class TestTraceToInteractions:
    def test_deduplicates(self):
        trace = QueryTrace(
            np.array([0, 0, 0, 0, 0]),
            np.array([1, 1, 2, 3, 4]),
            np.arange(5.0),
            num_users=2,
            num_objects=5,
        )
        data = trace_to_interactions(trace, min_user_interactions=1)
        assert len(data) == 4

    def test_min_user_filter(self):
        trace = QueryTrace(
            np.array([0, 0, 0, 1]),
            np.array([0, 1, 2, 0]),
            np.arange(4.0),
            num_users=2,
            num_objects=3,
        )
        data = trace_to_interactions(trace, min_user_interactions=2)
        assert (data.user_ids == 0).all()  # user 1 dropped

    def test_min_item_filter(self):
        trace = QueryTrace(
            np.array([0, 1, 2, 0, 1, 2]),
            np.array([0, 0, 0, 1, 1, 2]),
            np.arange(6.0),
            num_users=3,
            num_objects=3,
        )
        data = trace_to_interactions(trace, min_user_interactions=1, min_item_interactions=2)
        assert 2 not in data.item_ids  # item 2 queried by one user only

    def test_id_spaces_preserved(self, ooi_trace, ooi_interactions):
        assert ooi_interactions.num_users == ooi_trace.num_users
        assert ooi_interactions.num_items == ooi_trace.num_objects

    def test_invalid_minimums(self, ooi_trace):
        with pytest.raises(ValueError):
            trace_to_interactions(ooi_trace, min_user_interactions=0)


class TestPerUserSplit:
    def test_disjoint(self, ooi_split):
        ooi_split.assert_disjoint()

    def test_sizes(self, ooi_interactions, ooi_split):
        assert len(ooi_split.train) + len(ooi_split.test) == len(ooi_interactions)

    def test_fraction_respected(self, ooi_interactions, ooi_split):
        frac = len(ooi_split.train) / len(ooi_interactions)
        assert 0.72 <= frac <= 0.88

    def test_multi_interaction_users_in_both(self, ooi_interactions, ooi_split):
        deg = ooi_interactions.user_degree()
        for u in np.flatnonzero(deg >= 2):
            assert len(ooi_split.train.items_of_user(u)) >= 1
            assert len(ooi_split.test.items_of_user(u)) >= 1

    def test_single_interaction_stays_in_train(self):
        data = InteractionDataset(np.array([0]), np.array([3]), 1, 5)
        split = per_user_split(data, seed=0)
        assert len(split.train) == 1 and len(split.test) == 0

    def test_deterministic(self, ooi_interactions):
        a = per_user_split(ooi_interactions, seed=3)
        b = per_user_split(ooi_interactions, seed=3)
        np.testing.assert_array_equal(a.train.item_ids, b.train.item_ids)

    def test_invalid_fraction(self, ooi_interactions):
        with pytest.raises(ValueError):
            per_user_split(ooi_interactions, train_fraction=1.0)


class TestBPRSampler:
    def test_epoch_covers_all_interactions(self, ooi_split):
        sampler = BPRSampler(ooi_split.train)
        seen = 0
        pairs = set()
        for u, p, n in sampler.epoch_batches(128, seed=0):
            seen += len(u)
            pairs.update(zip(u.tolist(), p.tolist()))
            assert not sampler.is_positive(u, n).any()
        assert seen == len(ooi_split.train)
        assert len(pairs) == len(ooi_split.train)

    def test_empty_dataset_rejected(self):
        empty = InteractionDataset(np.zeros(0, dtype=int), np.zeros(0, dtype=int), 2, 2)
        with pytest.raises(ValueError):
            BPRSampler(empty)

    def test_is_positive_vectorized_matches_set(self, ooi_split, rng):
        sampler = BPRSampler(ooi_split.train)
        pairs = set(zip(ooi_split.train.user_ids.tolist(), ooi_split.train.item_ids.tolist()))
        users = rng.integers(0, ooi_split.train.num_users, 200)
        items = rng.integers(0, ooi_split.train.num_items, 200)
        got = sampler.is_positive(users, items)
        expect = np.array([(u, i) in pairs for u, i in zip(users.tolist(), items.tolist())])
        np.testing.assert_array_equal(got, expect)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_split_property_disjoint_and_complete(seed):
    """Property: any random interaction set splits losslessly and disjointly."""
    rng = np.random.default_rng(seed)
    n_pairs = int(rng.integers(5, 60))
    users = rng.integers(0, 8, n_pairs)
    items = rng.integers(0, 15, n_pairs)
    keys = np.unique(users * 15 + items)
    data = InteractionDataset(keys // 15, keys % 15, 8, 15)
    split = per_user_split(data, seed=seed)
    split.assert_disjoint()
    assert len(split.train) + len(split.test) == len(data)
