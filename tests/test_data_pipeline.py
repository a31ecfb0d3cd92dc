"""Data pipeline tests: interactions, splitting, BPR sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import BPRSampler, InteractionDataset, per_user_split, trace_to_interactions
from repro.data.interactions import KCORE_MAX_ROUNDS, check_pair_key_space, kcore_filter_masks
from repro.data.sampling import _sorted_membership
from repro.facility.trace import QueryTrace
from repro.utils.rng import ensure_rng


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


def _divergence_trace():
    """A trace where one filter pass is not enough.

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
        user_keep, item_keep = kcore_filter_masks(trace.user_ids, trace.object_ids, 5, 5, 2, 2)
        np.testing.assert_array_equal(user_keep, [False, False, False, True, True])
        np.testing.assert_array_equal(item_keep, [False, False, False, True, True])

    def test_max_rounds_bound_is_loud(self):
        trace = _divergence_trace()
        with pytest.raises(RuntimeError, match="did not converge"):
            kcore_filter_masks(trace.user_ids, trace.object_ids, 5, 5, 2, 2, max_rounds=1)
        assert KCORE_MAX_ROUNDS >= 10_000

    def test_min_item_one_matches_historical_single_pass(self, ooi_trace):
        """The default filter's fixed point is the old single pass (bit-compat)."""
        users, items = ooi_trace.unique_pairs()
        degree = np.bincount(users, minlength=ooi_trace.num_users)
        keep = degree[users] >= 5
        data = trace_to_interactions(ooi_trace, min_user_interactions=5)
        expect = InteractionDataset(
            users[keep], items[keep], ooi_trace.num_users, ooi_trace.num_objects
        )
        np.testing.assert_array_equal(data.user_ids, expect.user_ids)
        np.testing.assert_array_equal(data.item_ids, expect.item_ids)


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

    def test_trace_to_interactions_guarded_too(self):
        empty = np.zeros(0, np.int64)
        trace = QueryTrace(empty, empty, empty.astype(np.float64), 2**21, 2**43)
        with pytest.raises(ValueError, match="overflows int64"):
            trace_to_interactions(trace)


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

    def test_per_user_guarantees(self, ooi_interactions):
        """Each user with ``d >= 2`` trains ``min(ceil(0.8 d), d - 1)``; singletons train."""
        split = per_user_split(ooi_interactions, train_fraction=0.8, seed=11)
        degree = ooi_interactions.user_degree()
        n_train = np.where(
            degree <= 1,
            degree,
            np.minimum(np.ceil(degree * 0.8).astype(np.int64), degree - 1),
        )
        np.testing.assert_array_equal(split.train.user_degree(), n_train)
        np.testing.assert_array_equal(split.test.user_degree(), degree - n_train)

    def test_split_partitions_dataset(self, ooi_interactions):
        split = per_user_split(ooi_interactions, seed=11)
        key = lambda d: np.sort(  # noqa: E731
            d.user_ids * np.int64(d.num_items) + d.item_ids
        )
        merged = np.sort(np.concatenate([key(split.train), key(split.test)]))
        np.testing.assert_array_equal(merged, key(ooi_interactions))
        assert np.intersect1d(key(split.train), key(split.test)).size == 0

    def test_deterministic_in_seed(self, ooi_interactions):
        a = per_user_split(ooi_interactions, seed=3)
        b = per_user_split(ooi_interactions, seed=3)
        c = per_user_split(ooi_interactions, seed=4)
        np.testing.assert_array_equal(a.train.item_ids, b.train.item_ids)
        assert not np.array_equal(a.train.item_ids, c.train.item_ids)


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


def _full_recheck_batches(data, batch_size, seed, max_rejection_rounds):
    """``BPRSampler.epoch_batches`` as it was written before the sampler
    re-tested only its redrawn entries: every round re-tests the whole batch
    (membership by ``np.isin`` here, independent of the sampler's lookup)."""
    num_items = data.num_items
    keys = data.user_ids * np.int64(num_items) + data.item_ids
    rng = ensure_rng(seed)
    order = rng.permutation(len(data))
    for start in range(0, len(order), batch_size):
        pick = order[start : start + batch_size]
        users = data.user_ids[pick]
        pos = data.item_ids[pick]
        neg = rng.integers(0, num_items, size=len(pick))
        bad = np.isin(users * np.int64(num_items) + neg, keys)
        rounds = 0
        while bad.any() and rounds < max_rejection_rounds:
            neg[bad] = rng.integers(0, num_items, size=int(bad.sum()))
            bad = np.isin(users * np.int64(num_items) + neg, keys)
            rounds += 1
        yield users, pos, neg


@st.composite
def _sampling_datasets(draw):
    """Random pairs, plus one user who owns all but one item and one who
    owns the whole catalog (only the rejection bound ends that user's redraws)."""
    num_items = draw(st.integers(2, 12))
    num_users = draw(st.integers(3, 10))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, num_users - 3), st.integers(0, num_items - 1)),
            max_size=40,
        )
    )
    users = [u for u, _ in pairs]
    items = [i for _, i in pairs]
    missing = draw(st.integers(0, num_items - 1))
    for item in range(num_items):
        if item != missing:
            users.append(num_users - 2)
            items.append(item)
        users.append(num_users - 1)
        items.append(item)
    keys = np.unique(np.array(users, np.int64) * num_items + np.array(items, np.int64))
    return InteractionDataset(keys // num_items, keys % num_items, num_users, num_items)


@settings(max_examples=60, deadline=None)
@given(
    data=_sampling_datasets(),
    batch_size=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    max_rejection_rounds=st.integers(0, 60),
)
def test_epoch_batches_equal_full_recheck_loop(data, batch_size, seed, max_rejection_rounds):
    """Re-testing only the redrawn entries yields the full-recheck loop's batches, bit for bit."""
    sampler = BPRSampler(data, max_rejection_rounds=max_rejection_rounds)
    got = list(sampler.epoch_batches(batch_size, seed=seed))
    want = list(_full_recheck_batches(data, batch_size, seed, max_rejection_rounds))
    assert len(got) == len(want)
    for batch, ref in zip(got, want):
        for a, b in zip(batch, ref):
            assert a.tobytes() == b.tobytes()


class TestMembershipProbe:
    def test_empty_keys_are_all_false(self):
        """An empty sorted array must not fancy-index past its end."""
        result = _sorted_membership(np.zeros(0, np.int64), np.array([0, 5, 9]))
        assert result.dtype == bool
        np.testing.assert_array_equal(result, [False, False, False])

    def test_nonempty_membership(self):
        keys = np.array([2, 5, 9], dtype=np.int64)
        np.testing.assert_array_equal(
            _sorted_membership(keys, np.array([11, 0, 9, 2, 5, 8, 9])),
            [False, False, True, True, True, False, True],
        )


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
