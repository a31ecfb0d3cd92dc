"""Fast-path evaluator tests: vectorized vs a per-user reference loop,
float32 scores, explicit-subset validation, and per-user metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import InteractionDataset
from repro.eval import PerUserMetrics, RankingEvaluator
from repro.eval.metrics import ndcg_at_k, precision_at_k, recall_at_k
from tests.ranking_oracle import oracle_topk


def random_split(seed, n_users=12, n_items=40, train_per_user=6, test_per_user=3):
    """Random train/test pair; some users intentionally have no test items."""
    rng = np.random.default_rng(seed)
    tr_u, tr_i, te_u, te_i = [], [], [], []
    for u in range(n_users):
        tr_items = rng.choice(n_items, size=min(train_per_user, n_items), replace=False)
        tr_u += [u] * len(tr_items)
        tr_i += tr_items.tolist()
        if u % 5 != 4:  # every 5th user has no test interactions
            te_items = rng.choice(n_items, size=test_per_user, replace=False)
            te_u += [u] * len(te_items)
            te_i += te_items.tolist()
    train = InteractionDataset(np.array(tr_u), np.array(tr_i), n_users, n_items)
    test = InteractionDataset(np.array(te_u), np.array(te_i), n_users, n_items)
    return train, test


def naive_reference(train, test, table, users, k):
    """Per-user loop over the protocol using the reference metric functions.

    Ranks by the brute-force oracle (a full stable sort of each masked row,
    :mod:`tests.ranking_oracle`).  The tables here tie only among masked
    items, which never hit, so its metrics are the evaluator's exactly.
    """
    recalls, ndcgs, precisions, hits = [], [], [], []
    for u in users:
        neg = -table[[u]].astype(np.float64)
        ranked = oracle_topk(neg, [train.items_of_user(int(u))], k)[0].tolist()
        relevant = set(test.items_of_user(int(u)).tolist())
        recalls.append(recall_at_k(ranked, relevant, k))
        ndcgs.append(ndcg_at_k(ranked, relevant, k))
        precisions.append(precision_at_k(ranked, relevant, k))
        hits.append(1.0 if set(ranked[:k]) & relevant else 0.0)
    return (
        float(np.mean(recalls)),
        float(np.mean(ndcgs)),
        float(np.mean(precisions)),
        float(np.mean(hits)),
    )


class TestVectorizedAgainstNaive:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("k", [1, 5, 17])
    def test_random_datasets_match(self, seed, k):
        train, test = random_split(seed)
        rng = np.random.default_rng(seed + 100)
        table = rng.normal(size=(train.num_users, train.num_items))
        ev = RankingEvaluator(train, test, k=k, user_batch=5)
        result = ev.evaluate(lambda users: table[users])
        r, n, p, h = naive_reference(train, test, table, ev.eval_users, k)
        assert result.recall == pytest.approx(r, abs=1e-12)
        assert result.ndcg == pytest.approx(n, abs=1e-12)
        assert result.precision == pytest.approx(p, abs=1e-12)
        assert result.hit == pytest.approx(h, abs=1e-12)

    def test_matches_legacy_path(self):
        """The vectorized path equals the per-user loop it replaced."""
        train, test = random_split(3)
        table = np.random.default_rng(9).normal(size=(train.num_users, train.num_items))
        ev = RankingEvaluator(train, test, k=7)
        fast = ev.evaluate(lambda users: table[users])
        r, n, p, h = naive_reference(train, test, table, ev.eval_users, 7)
        assert fast.recall == pytest.approx(r, abs=1e-12)
        assert fast.ndcg == pytest.approx(n, abs=1e-12)
        assert fast.num_users == len(test.active_users())

    def test_k_geq_positives(self):
        # k = 4 ≥ the 2 test positives of the single user.
        train = InteractionDataset(np.array([0]), np.array([0]), 1, 6)
        test = InteractionDataset(np.array([0, 0]), np.array([2, 4]), 1, 6)
        table = np.array([[0.0, 1.0, 5.0, 2.0, 4.0, 3.0]])
        ev = RankingEvaluator(train, test, k=4)
        result = ev.evaluate(lambda users: table[users])
        r, n, p, h = naive_reference(train, test, table, np.array([0]), 4)
        assert result.recall == pytest.approx(r, abs=1e-12)
        assert result.ndcg == pytest.approx(n, abs=1e-12)

    def test_full_catalog_training_set(self):
        # User 0's training set covers every item: all scores masked, top-K
        # is an arbitrary-but-deterministic set of masked items.  User 1 is
        # normal.  The evaluator must agree with the reference loop.
        n_items = 8
        tr_u = [0] * n_items + [1]
        tr_i = list(range(n_items)) + [0]
        train = InteractionDataset(np.array(tr_u), np.array(tr_i), 2, n_items)
        test = InteractionDataset(np.array([0, 1]), np.array([3, 5]), 2, n_items)
        table = np.random.default_rng(2).normal(size=(2, n_items))
        ev = RankingEvaluator(train, test, k=3)
        fast = ev.evaluate(lambda users: table[users])
        r, n, _, _ = naive_reference(train, test, table, ev.eval_users, 3)
        assert fast.recall == pytest.approx(r, abs=1e-12)
        assert fast.ndcg == pytest.approx(n, abs=1e-12)

    def test_single_item_batches(self):
        train, test = random_split(5)
        table = np.random.default_rng(11).normal(size=(train.num_users, train.num_items))
        whole = RankingEvaluator(train, test, k=6, user_batch=1000)
        single = RankingEvaluator(train, test, k=6, user_batch=1)
        a = whole.evaluate_per_user(lambda users: table[users])
        b = single.evaluate_per_user(lambda users: table[users])
        np.testing.assert_array_equal(a.recall, b.recall)
        np.testing.assert_array_equal(a.ndcg, b.ndcg)
        np.testing.assert_array_equal(a.precision, b.precision)
        np.testing.assert_array_equal(a.hit, b.hit)

    def test_float32_agrees_with_float64(self):
        # A float32 score_fn is widened into the float64 buffer.  Integer-
        # valued scores are exact in float32, so the induced rankings — and
        # therefore the metrics — are identical.
        train, test = random_split(8)
        rng = np.random.default_rng(21)
        table = np.stack(
            [rng.permutation(train.num_items) for _ in range(train.num_users)]
        ).astype(np.float64)
        ev = RankingEvaluator(train, test, k=9)
        a = ev.evaluate(lambda users: table[users])
        b = ev.evaluate(lambda users: table[users].astype(np.float32))
        assert a == b


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), k=st.integers(1, 12), user_batch=st.integers(1, 7))
def test_fastpath_property(seed, k, user_batch):
    """Property: vectorized == naive reference for random data and batching."""
    train, test = random_split(seed, n_users=8, n_items=20, train_per_user=4, test_per_user=2)
    table = np.random.default_rng(seed + 1).normal(size=(8, 20))
    ev = RankingEvaluator(train, test, k=k, user_batch=user_batch)
    result = ev.evaluate(lambda users: table[users])
    r, n, _, _ = naive_reference(train, test, table, ev.eval_users, k)
    assert result.recall == pytest.approx(r, abs=1e-12)
    assert result.ndcg == pytest.approx(n, abs=1e-12)


class TestExplicitSubsetValidation:
    def test_empty_test_users_rejected_with_ids(self):
        train, test = random_split(0)
        ev = RankingEvaluator(train, test, k=3)
        empty = np.setdiff1d(np.arange(test.num_users), test.active_users())
        assert empty.size > 0
        with pytest.raises(ValueError, match="no test interactions") as err:
            ev.evaluate(lambda users: np.zeros((len(users), train.num_items)), users=empty[:2])
        for uid in empty[:2]:
            assert str(int(uid)) in str(err.value)

    def test_out_of_range_users_rejected(self):
        train, test = random_split(1)
        ev = RankingEvaluator(train, test, k=3)
        with pytest.raises(ValueError, match="out of range"):
            ev.evaluate(
                lambda users: np.zeros((len(users), train.num_items)),
                users=np.array([0, test.num_users + 3]),
            )

    def test_valid_subset_accepted(self):
        train, test = random_split(2)
        ev = RankingEvaluator(train, test, k=3)
        subset = ev.eval_users[:3]
        result = ev.evaluate(lambda users: np.zeros((len(users), train.num_items)), users=subset)
        assert result.num_users == 3


class TestPerUserMetrics:
    def test_reduce_matches_evaluate(self):
        train, test = random_split(4)
        table = np.random.default_rng(5).normal(size=(train.num_users, train.num_items))
        ev = RankingEvaluator(train, test, k=4)
        per_user = ev.evaluate_per_user(lambda users: table[users])
        assert per_user.reduce() == ev.evaluate(lambda users: table[users])

    def test_reduce_empty_rejected(self):
        empty = PerUserMetrics(
            users=np.array([], dtype=np.int64),
            recall=np.array([]),
            ndcg=np.array([]),
            precision=np.array([]),
            hit=np.array([]),
            k=3,
        )
        with pytest.raises(ValueError):
            empty.reduce()
