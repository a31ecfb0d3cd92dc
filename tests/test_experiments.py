"""Experiment-harness tests on miniature datasets (fast smoke level)."""

import numpy as np
import pytest

from repro.experiments import figures, load_dataset, run_single_model, tables
from repro.experiments.datasets import DATASET_NAMES
from repro.experiments.runner import MODEL_NAMES, build_model, default_fit_config
from repro.kg.subgraphs import KnowledgeSources


@pytest.fixture(scope="module")
def small_ooi():
    return load_dataset("ooi", scale="small", seed=3)


@pytest.fixture(scope="module")
def small_gage():
    return load_dataset("gage", scale="small", seed=3)


class TestLoadDataset:
    def test_names(self):
        assert set(DATASET_NAMES) == {"ooi", "gage"}

    def test_small_ooi_structure(self, small_ooi):
        assert small_ooi.catalog.num_regions == 8
        assert small_ooi.split.train.num_users == small_ooi.population.num_users
        small_ooi.split.assert_disjoint()

    def test_small_gage_structure(self, small_gage):
        assert small_gage.catalog.num_regions == 48
        assert len(small_gage.split.test) > 0

    def test_deterministic(self):
        a = load_dataset("ooi", scale="small", seed=5)
        b = load_dataset("ooi", scale="small", seed=5)
        np.testing.assert_array_equal(a.trace.object_ids, b.trace.object_ids)
        np.testing.assert_array_equal(a.split.train.item_ids, b.split.train.item_ids)

    def test_invalid_name(self):
        with pytest.raises(ValueError):
            load_dataset("hubble")

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            load_dataset("ooi", scale="xl")

    def test_build_ckg_sources(self, small_ooi):
        bare = small_ooi.build_ckg(KnowledgeSources(uug=False, loc=False, dkg=False, md=False))
        full = small_ooi.build_ckg(KnowledgeSources.all_sources())
        assert len(full.store) > len(bare.store)

    def test_describe(self, small_ooi):
        assert "train" in small_ooi.describe()


class TestRunner:
    def test_model_names_match_paper(self):
        assert MODEL_NAMES == ("BPRMF", "FM", "NFM", "CKE", "CFKG", "RippleNet", "KGCN", "CKAT")

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_build_every_model(self, small_ooi, name):
        ckg = small_ooi.build_ckg()
        model = build_model(name, small_ooi, ckg, seed=0)
        assert model.num_items == small_ooi.split.train.num_items

    def test_build_unknown_model(self, small_ooi):
        with pytest.raises(ValueError):
            build_model("SVD++", small_ooi, small_ooi.build_ckg())

    def test_default_fit_config(self):
        cfg = default_fit_config("CKAT")
        assert cfg.epochs > 0 and cfg.lr > 0
        assert default_fit_config("BPRMF", epochs=7).epochs == 7

    def test_run_single_model_smoke(self, small_ooi):
        result = run_single_model(
            "BPRMF", small_ooi, epochs=3, seed=0, best_epoch_selection=False
        )
        assert 0.0 <= result.recall <= 1.0
        assert 0.0 <= result.ndcg <= 1.0
        assert result.dataset == "ooi"

    def test_run_single_model_ckat_smoke(self, small_ooi):
        from repro.models import CKATConfig

        result = run_single_model(
            "CKAT",
            small_ooi,
            epochs=2,
            seed=0,
            ckat_config=CKATConfig(dim=8, relation_dim=8, layer_dims=(8,), kg_steps_per_epoch=2),
            best_epoch_selection=False,
        )
        assert np.isfinite(result.recall)

    def test_best_epoch_selection_smoke(self, small_ooi):
        # eval_every=10 with 10 epochs → one checkpoint, restored at end.
        result = run_single_model("BPRMF", small_ooi, epochs=10, seed=0)
        assert np.isfinite(result.recall)


class TestTableHarnesses:
    def test_table1(self, small_ooi, small_gage):
        stats, text = tables.table1(small_ooi, small_gage)
        assert stats["ooi"].relationships == 8
        assert stats["gage"].relationships == 7
        assert "Table I" in text

    def test_table2_subset(self, small_ooi):
        results, text = tables.table2(
            datasets=[small_ooi], models=("BPRMF", "CKAT"), epochs=2, seed=0
        )
        assert ("BPRMF", "ooi") in results
        assert "Table II" in text
        assert "% improvement" in text

    def test_table3_structure(self):
        assert len(tables.TABLE3_COMBINATIONS) == 6
        labels = [l for l, _ in tables.TABLE3_COMBINATIONS]
        assert labels[-1] == "UIG+UUG+LOC+DKG+MD"
        assert set(tables.PAPER_TABLE3) == set(labels)

    def test_paper_constants_complete(self):
        assert set(tables.PAPER_TABLE2) == set(MODEL_NAMES)
        for model, per_ds in tables.PAPER_TABLE2.items():
            assert set(per_ds) == {"ooi", "gage"}

    def test_paper_table2_ckat_wins(self):
        for ds in ("ooi", "gage"):
            ckat = tables.PAPER_TABLE2["CKAT"][ds]
            for model in MODEL_NAMES[:-1]:
                assert ckat[0] > tables.PAPER_TABLE2[model][ds][0]


class TestFigureHarnesses:
    def test_figure3(self, small_ooi):
        dists, text = figures.figure3([small_ooi])
        assert "ooi" in dists
        assert "Figure 3" in text

    def test_figure5(self, small_ooi):
        results, text = figures.figure5([small_ooi], num_pairs=500, seed=0)
        assert results["ooi"].num_pairs == 500
        assert "Figure 5" in text
        assert "concentration" in text

    def test_figure4(self, small_ooi):
        embeddings, text = figures.figure4(small_ooi, num_heavy_users=4, seed=0)
        assert "same_org" in embeddings and "cross_org" in embeddings
        assert "separability" in text

    def test_ascii_curve(self):
        out = figures.ascii_curve(np.array([100.0, 50.0, 10.0, 1.0]), width=10, height=4)
        assert len(out.splitlines()) == 5

    def test_ascii_curve_empty(self):
        assert figures.ascii_curve(np.array([])) == "(empty)"


@pytest.mark.slow
class TestTable4And5Harnesses:
    def test_table4_small(self, small_ooi):
        results, text = tables.table4(datasets=[small_ooi], epochs=2, seed=0)
        assert ("w/ Att + concat", "ooi") in results
        assert ("w/o Att + concat", "ooi") in results
        assert "Table IV" in text

    def test_table5_small(self, small_ooi):
        results, text = tables.table5(datasets=[small_ooi], epochs=2, seed=0)
        assert {label for label, _ in results} == {"CKAT-1", "CKAT-2", "CKAT-3"}
        assert "Table V" in text

    def test_table3_small_single_combo_consistency(self, small_ooi):
        results, text = tables.table3(datasets=[small_ooi], epochs=2, seed=0)
        assert len(results) == len(tables.TABLE3_COMBINATIONS)
        assert "Table III" in text


class TestScalePipelineSmoke:
    def test_tiny_end_to_end(self):
        from repro.experiments.scale import run_scale_pipeline

        num_users = 600
        stats = run_scale_pipeline(
            num_users=num_users,
            num_orgs=30,
            num_cities=10,
            num_sites=30,
            queries_per_user_mean=20.0,
            min_user_interactions=2,
            dim=4,
            batch_size=256,
            epochs=1,
            eval_users=100,
            seed=11,
        )
        assert stats["num_interactions"] > 0
        assert set(stats["phases"]) == {
            "facility",
            "trace",
            "interactions",
            "split",
            "train",
            "eval",
        }
        assert stats["peak_rss_mb"] > 0
        assert all(np.isfinite(v) for v in stats["metrics"].values())
        # The evaluated users are spread over the whole id range, not the
        # lowest ids.
        evaluated = stats["phases"]["eval"]
        assert evaluated["users"] == 100
        lo, hi = evaluated["user_range"]
        assert lo < num_users // 10 and hi >= num_users - num_users // 10
