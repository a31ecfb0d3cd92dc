"""Significance-utility tests: bootstrap CIs and paired tests."""

import numpy as np
import pytest

from repro.eval import RankingEvaluator, bootstrap_ci, paired_bootstrap_test


class TestBootstrapCI:
    def test_mean_inside_interval(self):
        rng = np.random.default_rng(0)
        values = rng.normal(0.5, 0.1, size=200)
        mean, low, high = bootstrap_ci(values, seed=0)
        assert low <= mean <= high

    def test_interval_narrows_with_n(self):
        rng = np.random.default_rng(1)
        small = rng.normal(0.5, 0.2, size=20)
        large = rng.normal(0.5, 0.2, size=2000)
        _, lo_s, hi_s = bootstrap_ci(small, seed=0)
        _, lo_l, hi_l = bootstrap_ci(large, seed=0)
        assert (hi_l - lo_l) < (hi_s - lo_s)

    def test_constant_sample_zero_width(self):
        mean, low, high = bootstrap_ci(np.full(50, 0.3), seed=0)
        assert mean == low == high == pytest.approx(0.3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bootstrap_ci(np.array([]))

    def test_bad_confidence_rejected(self):
        with pytest.raises(ValueError):
            bootstrap_ci(np.ones(5), confidence=1.0)

    def test_deterministic(self):
        values = np.random.default_rng(2).random(100)
        a = bootstrap_ci(values, seed=7)
        b = bootstrap_ci(values, seed=7)
        assert a == b


class TestPairedBootstrap:
    def test_clear_difference_significant(self):
        rng = np.random.default_rng(0)
        b = rng.random(300) * 0.2
        a = b + 0.1  # uniformly better
        result = paired_bootstrap_test(a, b, seed=0)
        assert result.significant
        assert result.mean_diff == pytest.approx(0.1)

    def test_no_difference_not_significant(self):
        rng = np.random.default_rng(1)
        a = rng.random(300)
        b = a + rng.normal(0, 0.3, size=300)  # symmetric noise
        result = paired_bootstrap_test(a, b, seed=0)
        assert result.p_value > 0.01

    def test_negative_difference_not_significant(self):
        rng = np.random.default_rng(2)
        b = rng.random(200)
        a = b - 0.1
        result = paired_bootstrap_test(a, b, seed=0)
        assert not result.significant
        assert result.p_value > 0.9

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            paired_bootstrap_test(np.ones(3), np.ones(4))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            paired_bootstrap_test(np.array([]), np.array([]))

    def test_n_users_reported(self):
        result = paired_bootstrap_test(np.ones(17), np.zeros(17), seed=0)
        assert result.n_users == 17


class TestPerUserMetrics:
    """The per-user vectors the bootstrap helpers consume."""

    def test_matches_evaluator_means(self, ooi_split):
        rng = np.random.default_rng(0)
        table = rng.normal(size=(ooi_split.train.num_users, ooi_split.train.num_items))
        score_fn = lambda users: table[users]  # noqa: E731
        ev = RankingEvaluator(ooi_split.train, ooi_split.test, k=10)
        per_user = ev.evaluate_per_user(score_fn)
        result = ev.evaluate(score_fn)
        assert result.recall == pytest.approx(per_user.recall.mean())
        assert result.ndcg == pytest.approx(per_user.ndcg.mean())
        np.testing.assert_array_equal(per_user.users, ooi_split.test.active_users())
        assert len(per_user.users) == result.num_users

    def test_oracle_gets_ones(self, ooi_split):
        def oracle(users):
            scores = np.zeros((len(users), ooi_split.train.num_items))
            for row, u in enumerate(users):
                scores[row, ooi_split.test.items_of_user(int(u))] = 1.0
            return scores

        per_user = RankingEvaluator(ooi_split.train, ooi_split.test, k=20).evaluate_per_user(oracle)
        recalls, ndcgs = per_user.recall, per_user.ndcg
        # Users with ≤20 test items get perfect recall with the oracle.
        few = np.array(
            [len(ooi_split.test.items_of_user(int(u))) <= 20 for u in ooi_split.test.active_users()]
        )
        np.testing.assert_allclose(recalls[few], 1.0)
        np.testing.assert_allclose(ndcgs[few], 1.0)
