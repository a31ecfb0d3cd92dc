"""Tests for the cold-start harness."""

import numpy as np
import pytest

from repro.experiments.coldstart import cold_start_report, slice_users_by_history
from repro.models import BPRMF, FitConfig


class TestColdStart:
    def test_slices_partition_eligible_users(self, ooi_split):
        slices = slice_users_by_history(ooi_split)
        all_users = np.concatenate(list(slices.values()))
        assert len(np.unique(all_users)) == len(all_users)
        assert set(all_users.tolist()) <= set(ooi_split.test.active_users().tolist())

    def test_buckets_respect_bounds(self, ooi_split):
        slices = slice_users_by_history(
            ooi_split, buckets=(("tiny", 0, 3), ("big", 4, 10**9))
        )
        deg = ooi_split.train.user_degree()
        if "tiny" in slices:
            assert (deg[slices["tiny"]] <= 3).all()
        if "big" in slices:
            assert (deg[slices["big"]] >= 4).all()

    def test_report_structure(self, ooi_split):
        model = BPRMF(ooi_split.train.num_users, ooi_split.train.num_items, dim=8, seed=0)
        model.fit(ooi_split.train, FitConfig(epochs=2, seed=0))
        results, text = cold_start_report(
            {"BPRMF": model.score_users},
            ooi_split,
            k=10,
            buckets=(("all", 0, 10**9),),
        )
        assert "BPRMF" in results
        assert "Cold-start" in text
        bucket = list(results["BPRMF"].buckets.values())[0]
        assert 0.0 <= bucket.recall <= 1.0

    def test_no_models_rejected(self, ooi_split):
        with pytest.raises(ValueError):
            cold_start_report({}, ooi_split)
