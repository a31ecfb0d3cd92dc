"""Tests for grid search and cold-start harnesses."""

import numpy as np
import pytest

from repro.experiments.coldstart import cold_start_report, slice_users_by_history
from repro.experiments.gridsearch import (
    PAPER_L2_GRID,
    PAPER_LR_GRID,
    grid_search,
)
from repro.models import BPRMF, MostPopular


class TestGridSearch:
    def test_exhaustive_product(self, ooi_split):
        result = grid_search(
            lambda params: BPRMF(
                ooi_split.train.num_users, ooi_split.train.num_items, dim=8, seed=0
            ),
            ooi_split.train,
            grid={"lr": [0.05, 0.01], "l2": [1e-5, 1e-3]},
            epochs=2,
            batch_size=256,
            seed=0,
        )
        assert len(result.points) == 4
        params_seen = {tuple(sorted(p.params.items())) for p in result.points}
        assert len(params_seen) == 4

    def test_best_is_max_recall(self, ooi_split):
        result = grid_search(
            lambda params: BPRMF(
                ooi_split.train.num_users, ooi_split.train.num_items, dim=8, seed=0
            ),
            ooi_split.train,
            grid={"lr": [0.05, 0.001]},
            epochs=3,
            batch_size=256,
            seed=0,
        )
        assert result.best.recall == max(p.recall for p in result.points)
        assert result.ranking()[0] is result.best

    def test_custom_factory_params_passed(self, ooi_split):
        seen = []

        def factory(params):
            seen.append(params["dim"])
            return BPRMF(
                ooi_split.train.num_users, ooi_split.train.num_items, dim=int(params["dim"]), seed=0
            )

        grid_search(
            factory,
            ooi_split.train,
            grid={"dim": [4, 8]},
            epochs=1,
            batch_size=256,
            seed=0,
        )
        assert sorted(seen) == [4, 8]

    def test_empty_grid_rejected(self, ooi_split):
        with pytest.raises(ValueError):
            grid_search(lambda p: None, ooi_split.train, grid={})

    def test_paper_grids(self):
        assert PAPER_LR_GRID == (0.05, 0.01, 0.005, 0.001)
        assert len(PAPER_L2_GRID) == 8  # 1e-5 … 1e2


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
        pop = MostPopular(ooi_split.train.num_users, ooi_split.train.num_items)
        pop.fit(ooi_split.train)
        results, text = cold_start_report(
            {"MostPopular": pop.score_users},
            ooi_split,
            k=10,
            buckets=(("all", 0, 10**9),),
        )
        assert "MostPopular" in results
        assert "Cold-start" in text
        bucket = list(results["MostPopular"].buckets.values())[0]
        assert 0.0 <= bucket.recall <= 1.0

    def test_no_models_rejected(self, ooi_split):
        with pytest.raises(ValueError):
            cold_start_report({}, ooi_split)
