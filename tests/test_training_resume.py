"""Fault-tolerant training tests: full-state checkpoints and exact resume."""

import numpy as np
import pytest

from repro.autograd import Adam, Parameter
from repro.data.interactions import InteractionDataset
from repro.io.checkpoints import (
    TrainingCheckpoint,
    load_parameters,
    load_training_checkpoint,
    normalize_checkpoint_path,
    save_parameters,
    save_training_checkpoint,
)
from repro.models import BPRMF, CKAT, CKATConfig, CKE, NFM, ItemFeatureTable
from repro.models.base import FitConfig
from tests.ckat_reference import float64_ckat


@pytest.fixture()
def tiny_data():
    rng = np.random.default_rng(0)
    n = 500
    return InteractionDataset(
        rng.integers(0, 40, n), rng.integers(0, 60, n), num_users=40, num_items=60
    )


def _params_equal(a, b):
    return all(np.array_equal(p.data, q.data) for p, q in zip(a.parameters(), b.parameters()))


class TestKillAndResume:
    def test_resume_is_bit_identical(self, tiny_data, tmp_path):
        """10 epochs straight == 4 epochs + kill + resume for 6 more."""
        cfg = FitConfig(epochs=10, batch_size=64, seed=3)
        straight = BPRMF(40, 60, dim=8, seed=1)
        ref = straight.fit(tiny_data, cfg)

        ck = tmp_path / "run.ckpt.npz"
        first = BPRMF(40, 60, dim=8, seed=1)
        first.fit(
            tiny_data,
            FitConfig(epochs=4, batch_size=64, seed=3),
            checkpoint_every=4,
            checkpoint_path=ck,
        )
        # The "killed" process is gone; a fresh one (even a differently
        # seeded model object) resumes from the checkpoint alone.
        resumed = BPRMF(40, 60, dim=8, seed=999)
        result = resumed.fit(tiny_data, cfg, resume_from=ck)
        assert _params_equal(straight, resumed)
        assert len(result.losses) == 10
        assert result.losses == ref.losses

    def test_resume_histories_match_uninterrupted(self, tiny_data, tmp_path):
        cfg = FitConfig(epochs=8, batch_size=64, seed=5)
        straight = BPRMF(40, 60, dim=8, seed=2)
        ref = straight.fit(tiny_data, cfg)

        ck = tmp_path / "run"
        part = BPRMF(40, 60, dim=8, seed=2)
        part.fit(
            tiny_data,
            FitConfig(epochs=3, batch_size=64, seed=5),
            checkpoint_every=3,
            checkpoint_path=ck,
        )
        resumed = BPRMF(40, 60, dim=8, seed=2)
        got = resumed.fit(tiny_data, cfg, resume_from=ck)
        assert got.losses == ref.losses
        assert got.extra_losses == ref.extra_losses
        assert _params_equal(straight, resumed)

    def test_resume_at_every_boundary(self, tiny_data, tmp_path):
        """Checkpointing at any epoch boundary resumes bit-identically."""
        cfg = FitConfig(epochs=5, batch_size=128, seed=11)
        straight = BPRMF(40, 60, dim=4, seed=0)
        straight.fit(tiny_data, cfg)
        for cut in (1, 2, 3, 4):
            ck = tmp_path / f"cut{cut}.ckpt.npz"
            part = BPRMF(40, 60, dim=4, seed=0)
            part.fit(
                tiny_data,
                FitConfig(epochs=cut, batch_size=128, seed=11),
                checkpoint_every=cut,
                checkpoint_path=ck,
            )
            resumed = BPRMF(40, 60, dim=4, seed=0)
            resumed.fit(tiny_data, cfg, resume_from=ck)
            assert _params_equal(straight, resumed), f"divergence resuming at epoch {cut}"

    def test_resume_with_best_epoch_protocol(self, tiny_data, tmp_path):
        """The best-snapshot protocol survives a kill+resume unchanged."""

        def make_callback(model, scores):
            it = iter(scores)
            return lambda: {"recall@20": next(it)}

        scores = [0.1, 0.9, 0.2, 0.15, 0.05]
        cfg = dict(batch_size=64, seed=7, eval_every=1, keep_best_metric="recall@20")
        straight = BPRMF(40, 60, dim=8, seed=4)
        straight.fit(
            tiny_data,
            FitConfig(epochs=5, **cfg),
            eval_callback=make_callback(straight, scores),
        )

        ck = tmp_path / "best.ckpt.npz"
        part = BPRMF(40, 60, dim=8, seed=4)
        part.fit(
            tiny_data,
            FitConfig(epochs=3, **cfg),
            eval_callback=make_callback(part, scores[:3]),
            checkpoint_every=3,
            checkpoint_path=ck,
        )
        resumed = BPRMF(40, 60, dim=8, seed=4)
        result = resumed.fit(
            tiny_data,
            FitConfig(epochs=5, **cfg),
            eval_callback=make_callback(resumed, scores[3:]),
            resume_from=ck,
        )
        # Best score (0.9 at epoch 2) was snapshotted before the kill and
        # restored at the end of the resumed run.
        assert _params_equal(straight, resumed)
        assert [e["recall@20"] for e in result.eval_history] == scores

    @pytest.mark.slow
    def test_resume_model_with_aux_phase(self, ooi_split, ooi_ckg_best, tmp_path):
        """CKE's alternating TransR phase (extra rng + optimizer use) resumes
        bit-identically too."""
        M, N = ooi_split.train.num_users, ooi_split.train.num_items
        cfg = FitConfig(epochs=4, batch_size=256, seed=0)
        straight = CKE(M, N, ooi_ckg_best, dim=8, seed=0)
        straight.fit(ooi_split.train, cfg)

        ck = tmp_path / "cke.ckpt.npz"
        part = CKE(M, N, ooi_ckg_best, dim=8, seed=0)
        part.fit(
            ooi_split.train,
            FitConfig(epochs=2, batch_size=256, seed=0),
            checkpoint_every=2,
            checkpoint_path=ck,
        )
        resumed = CKE(M, N, ooi_ckg_best, dim=8, seed=0)
        resumed.fit(ooi_split.train, cfg, resume_from=ck)
        assert _params_equal(straight, resumed)


class TestExtraRngState:
    """Auxiliary-RNG checkpoint hooks (dropout generators live outside the
    training loop's rng, so they need their own save/restore channel)."""

    def test_base_recommender_has_no_extra_state(self):
        assert BPRMF(4, 5, dim=2, seed=0).extra_rng_state() is None

    def test_restore_without_implementation_raises(self):
        model = BPRMF(4, 5, dim=2, seed=0)
        with pytest.raises(NotImplementedError, match="restore_extra_rng_state"):
            model.restore_extra_rng_state({"dropout": {}})

    def test_nfm_dropout_rng_roundtrip(self, ooi_split, ooi_ckg_best):
        M, N = ooi_split.train.num_users, ooi_split.train.num_items
        model = NFM(M, N, ItemFeatureTable(ooi_ckg_best), dim=8, hidden_dim=8, seed=0)
        state = model.extra_rng_state()
        assert "dropout" in state
        first = model._rng.normal(size=16)
        model.restore_extra_rng_state(state)
        replay = model._rng.normal(size=16)
        np.testing.assert_array_equal(first, replay)

    def test_checkpoint_carries_extra_rng_state(self, tmp_path):
        extra = {"dropout": np.random.default_rng(9).bit_generator.state}
        ckpt = TrainingCheckpoint(
            epoch=1,
            params={"w": np.zeros((2, 2))},
            optimizer_state={"version": 1, "type": "Adam", "step_count": 2, "slots": {}},
            rng_state=np.random.default_rng(1).bit_generator.state,
            losses=[1.0],
            extra_losses=[0.0],
            eval_history=[],
            best_score=None,
            best_snapshot=None,
            seconds=0.1,
            config={"epochs": 2, "batch_size": 8, "lr": 0.01, "l2": 0.0, "seed": 0},
            extra_rng_state=extra,
        )
        save_training_checkpoint(tmp_path / "x.ckpt", ckpt)
        loaded = load_training_checkpoint(tmp_path / "x.ckpt")
        assert loaded.extra_rng_state == extra

    def test_checkpoint_without_extra_state_loads_none(self, tmp_path):
        ckpt = TrainingCheckpoint(
            epoch=1,
            params={"w": np.zeros((2, 2))},
            optimizer_state={"version": 1, "type": "Adam", "step_count": 2, "slots": {}},
            rng_state=np.random.default_rng(1).bit_generator.state,
            losses=[1.0],
            extra_losses=[0.0],
            eval_history=[],
            best_score=None,
            best_snapshot=None,
            seconds=0.1,
            config={"epochs": 2, "batch_size": 8, "lr": 0.01, "l2": 0.0, "seed": 0},
        )
        save_training_checkpoint(tmp_path / "y.ckpt", ckpt)
        assert load_training_checkpoint(tmp_path / "y.ckpt").extra_rng_state is None

    @pytest.mark.slow
    def test_ckat_dropout_resume_bit_identical(self, ooi_split, ooi_ckg_best, tmp_path):
        """CKAT with dropout consumes its private dropout generator every
        forward pass; without the extra-rng channel a resumed run replays
        different masks and silently diverges."""
        M, N = ooi_split.train.num_users, ooi_split.train.num_items
        cfg_kwargs = dict(
            dim=8, relation_dim=8, layer_dims=(8, 4), dropout=0.1, kg_steps_per_epoch=2
        )
        cfg = FitConfig(epochs=4, batch_size=256, seed=0)
        straight = CKAT(M, N, ooi_ckg_best, CKATConfig(**cfg_kwargs), seed=0)
        straight.fit(ooi_split.train, cfg)

        ck = tmp_path / "ckat.ckpt.npz"
        part = CKAT(M, N, ooi_ckg_best, CKATConfig(**cfg_kwargs), seed=0)
        part.fit(
            ooi_split.train,
            FitConfig(epochs=2, batch_size=256, seed=0),
            checkpoint_every=2,
            checkpoint_path=ck,
        )
        resumed = CKAT(M, N, ooi_ckg_best, CKATConfig(**cfg_kwargs), seed=0)
        resumed.fit(ooi_split.train, cfg, resume_from=ck)
        assert _params_equal(straight, resumed)


class TestResumeValidation:
    def test_config_mismatch_rejected(self, tiny_data, tmp_path):
        ck = tmp_path / "a.ckpt.npz"
        m = BPRMF(40, 60, dim=8, seed=0)
        m.fit(
            tiny_data,
            FitConfig(epochs=2, batch_size=64, seed=3),
            checkpoint_every=2,
            checkpoint_path=ck,
        )
        fresh = BPRMF(40, 60, dim=8, seed=0)
        with pytest.raises(ValueError, match="config mismatch"):
            fresh.fit(tiny_data, FitConfig(epochs=4, batch_size=64, seed=4), resume_from=ck)
        with pytest.raises(ValueError, match="config mismatch"):
            fresh.fit(tiny_data, FitConfig(epochs=4, batch_size=32, seed=3), resume_from=ck)

    def test_fewer_epochs_than_checkpoint_rejected(self, tiny_data, tmp_path):
        ck = tmp_path / "b.ckpt.npz"
        m = BPRMF(40, 60, dim=8, seed=0)
        m.fit(
            tiny_data,
            FitConfig(epochs=3, batch_size=64, seed=3),
            checkpoint_every=3,
            checkpoint_path=ck,
        )
        fresh = BPRMF(40, 60, dim=8, seed=0)
        with pytest.raises(ValueError, match="completed epochs"):
            fresh.fit(tiny_data, FitConfig(epochs=2, batch_size=64, seed=3), resume_from=ck)

    def test_architecture_mismatch_rejected(self, tiny_data, tmp_path):
        ck = tmp_path / "c.ckpt.npz"
        m = BPRMF(40, 60, dim=8, seed=0)
        m.fit(
            tiny_data,
            FitConfig(epochs=2, batch_size=64, seed=3),
            checkpoint_every=2,
            checkpoint_path=ck,
        )
        other_dim = BPRMF(40, 60, dim=16, seed=0)
        with pytest.raises(ValueError, match="shape mismatch"):
            other_dim.fit(tiny_data, FitConfig(epochs=4, batch_size=64, seed=3), resume_from=ck)

    def test_dtype_mismatch_rejected(self, ooi_split, ooi_ckg_best, tmp_path):
        """A float64 CKAT checkpoint does not resume into float32 tables."""
        M, N = ooi_split.train.num_users, ooi_split.train.num_items
        cfg = CKATConfig(dim=8, relation_dim=8, layer_dims=(8,), kg_steps_per_epoch=1)
        ck = tmp_path / "d.ckpt.npz"
        old = float64_ckat(CKAT(M, N, ooi_ckg_best, cfg, seed=0))
        old.fit(
            ooi_split.train,
            FitConfig(epochs=1, batch_size=256, seed=0),
            checkpoint_every=1,
            checkpoint_path=ck,
        )
        fresh = CKAT(M, N, ooi_ckg_best, cfg, seed=0)
        with pytest.raises(
            ValueError, match=r"dtype mismatch for .*: checkpoint float64 vs model float32"
        ):
            fresh.fit(ooi_split.train, FitConfig(epochs=2, batch_size=256, seed=0), resume_from=ck)

    def test_checkpoint_every_requires_path(self, tiny_data):
        m = BPRMF(40, 60, dim=4, seed=0)
        with pytest.raises(ValueError, match="checkpoint_path"):
            m.fit(tiny_data, FitConfig(epochs=1, batch_size=64), checkpoint_every=1)
        with pytest.raises(ValueError, match="checkpoint_every"):
            m.fit(tiny_data, FitConfig(epochs=1, batch_size=64), checkpoint_every=-1)


class TestTrainingCheckpointFormat:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        ckpt = TrainingCheckpoint(
            epoch=7,
            params={"user_emb": rng.normal(size=(4, 3)), "item_emb": rng.normal(size=(5, 3))},
            optimizer_state={
                "version": 1,
                "type": "Adam",
                "lr": 0.01,
                "step_count": 70,
                "slots": {"m": {0: rng.normal(size=(4, 3))}, "v": {0: rng.normal(size=(4, 3))}},
            },
            rng_state=np.random.default_rng(5).bit_generator.state,
            losses=[0.9, 0.8],
            extra_losses=[0.0, 0.0],
            eval_history=[{"recall@20": 0.3, "epoch": 2}],
            best_score=0.3,
            best_snapshot={"user_emb": rng.normal(size=(4, 3)), "item_emb": rng.normal(size=(5, 3))},
            seconds=12.5,
            config={"epochs": 10, "batch_size": 64, "lr": 0.01, "l2": 0.0, "seed": 3},
        )
        written = save_training_checkpoint(tmp_path / "t.ckpt", ckpt)
        assert written.suffix == ".npz"
        loaded = load_training_checkpoint(tmp_path / "t.ckpt")
        assert loaded.epoch == 7
        assert loaded.losses == ckpt.losses
        assert loaded.eval_history == ckpt.eval_history
        assert loaded.best_score == ckpt.best_score
        assert loaded.rng_state == ckpt.rng_state
        assert loaded.config == ckpt.config
        assert loaded.optimizer_state["step_count"] == 70
        for key in ckpt.params:
            np.testing.assert_array_equal(loaded.params[key], ckpt.params[key])
            np.testing.assert_array_equal(loaded.best_snapshot[key], ckpt.best_snapshot[key])
        np.testing.assert_array_equal(
            loaded.optimizer_state["slots"]["m"][0], ckpt.optimizer_state["slots"]["m"][0]
        )

    def test_wrong_format_rejected(self, tmp_path):
        model = BPRMF(5, 6, dim=2, seed=0)
        path = save_parameters(tmp_path / "w.npz", model)
        with pytest.raises(ValueError, match="training checkpoint"):
            load_training_checkpoint(path)

    def test_atomic_overwrite_leaves_no_tmp(self, tiny_data, tmp_path):
        ck = tmp_path / "atomic.ckpt.npz"
        m = BPRMF(40, 60, dim=4, seed=0)
        m.fit(
            tiny_data,
            FitConfig(epochs=4, batch_size=128, seed=0),
            checkpoint_every=1,
            checkpoint_path=ck,
        )
        assert ck.exists()
        assert list(tmp_path.glob("*.tmp.npz")) == []
        assert load_training_checkpoint(ck).epoch == 4


class TestSuffixNormalization:
    def test_save_load_without_npz_suffix(self, tmp_path):
        """save("m.ckpt") used to write m.ckpt.npz and then fail to load."""
        model = BPRMF(6, 8, dim=4, seed=0)
        original = [p.data.copy() for p in model.parameters()]
        written = save_parameters(tmp_path / "m.ckpt", model)
        assert written == tmp_path / "m.ckpt.npz"
        for p in model.parameters():
            p.data += 1.0
        load_parameters(tmp_path / "m.ckpt", model)
        for p, orig in zip(model.parameters(), original):
            np.testing.assert_array_equal(p.data, orig)

    def test_normalize_checkpoint_path(self):
        import pathlib

        assert normalize_checkpoint_path("m.ckpt") == pathlib.Path("m.ckpt.npz")
        assert normalize_checkpoint_path("m.npz") == pathlib.Path("m.npz")
        assert normalize_checkpoint_path(pathlib.Path("d") / "m") == pathlib.Path("d/m.npz")


class TestOptimizerState:
    def _step(self, opt, params, rng):
        for p in params:
            p.grad = rng.normal(size=p.data.shape)
        opt.step()

    @pytest.mark.parametrize(
        "cls,kwargs",
        [
            (Adam, {"lr": 0.01}),
            (Adam, {"lr": 0.01, "weight_decay": 1e-3}),
        ],
    )
    def test_state_roundtrip_continues_identically(self, cls, kwargs):
        rng = np.random.default_rng(0)
        init = [rng.normal(size=(3, 2)), rng.normal(size=(4,))]

        def fresh_params():
            return [Parameter(a.copy(), name=f"p{i}") for i, a in enumerate(init)]

        pa = fresh_params()
        oa = cls(pa, **kwargs)
        grads = np.random.default_rng(1)
        for _ in range(5):
            self._step(oa, pa, grads)
        state = oa.state_dict()

        pb = fresh_params()
        for p, q in zip(pb, pa):
            p.data[...] = q.data
        ob = cls(pb, **kwargs)
        ob.load_state_dict(state)
        assert ob.step_count == oa.step_count

        ga = np.random.default_rng(2)
        gb = np.random.default_rng(2)
        for _ in range(3):
            self._step(oa, pa, ga)
            self._step(ob, pb, gb)
        for p, q in zip(pa, pb):
            np.testing.assert_array_equal(p.data, q.data)

    def test_type_mismatch_rejected(self):
        p = [Parameter(np.zeros(3), name="p")]
        state = dict(Adam(p, lr=0.01).state_dict(), type="Optimizer")
        with pytest.raises(ValueError, match="'Optimizer', not 'Adam'"):
            Adam([Parameter(np.zeros(3), name="p")], lr=0.01).load_state_dict(state)

    def test_shape_mismatch_rejected(self):
        p = [Parameter(np.zeros((2, 2)), name="p")]
        opt = Adam(p, lr=0.01)
        p[0].grad = np.ones((2, 2))
        opt.step()
        state = opt.state_dict()
        other = Adam([Parameter(np.zeros((3, 3)), name="p")], lr=0.01)
        with pytest.raises(ValueError, match="shape"):
            other.load_state_dict(state)

    def test_state_dict_is_a_snapshot(self):
        p = [Parameter(np.zeros(2), name="p")]
        opt = Adam(p, lr=0.01)
        p[0].grad = np.ones(2)
        opt.step()
        state = opt.state_dict()
        before = state["slots"]["m"][0].copy()
        p[0].grad = np.ones(2)
        opt.step()
        np.testing.assert_array_equal(state["slots"]["m"][0], before)


class TestFitConfigValidation:
    def test_keep_best_without_eval_every_rejected(self):
        with pytest.raises(ValueError, match="keep_best_metric"):
            FitConfig(keep_best_metric="recall@20")

    def test_negative_eval_every_rejected(self):
        with pytest.raises(ValueError, match="eval_every"):
            FitConfig(eval_every=-1)

    def test_keep_best_without_callback_rejected(self, tiny_data):
        m = BPRMF(40, 60, dim=4, seed=0)
        cfg = FitConfig(epochs=1, batch_size=64, eval_every=1, keep_best_metric="recall@20")
        with pytest.raises(ValueError, match="eval_callback"):
            m.fit(tiny_data, cfg)

    def test_mutated_config_caught_by_fit(self, tiny_data):
        """run_single_model-style post-construction mutation is validated too."""
        m = BPRMF(40, 60, dim=4, seed=0)
        cfg = FitConfig(epochs=1, batch_size=64)
        cfg.keep_best_metric = "recall@20"  # bypasses __post_init__
        with pytest.raises(ValueError):
            m.fit(tiny_data, cfg)


class TestRecommendExclusion:
    def test_excluded_items_never_returned(self):
        model = BPRMF(4, 10, dim=4, seed=0)
        exclude = np.arange(8)  # leaves only items 8, 9
        recs = model.recommend(0, k=5, exclude=exclude)
        assert set(recs.tolist()) <= {8, 9}
        assert len(recs) == 2

    def test_all_items_excluded_gives_empty(self):
        model = BPRMF(4, 10, dim=4, seed=0)
        recs = model.recommend(1, k=3, exclude=np.arange(10))
        assert recs.size == 0

    def test_duplicate_excludes_counted_once(self):
        model = BPRMF(4, 10, dim=4, seed=0)
        exclude = np.array([0, 0, 1, 1, 2, 2, 3, 4, 5, 6, 7])
        recs = model.recommend(2, k=10, exclude=exclude)
        assert set(recs.tolist()) == {8, 9}

    def test_unexcluded_behavior_unchanged(self):
        model = BPRMF(4, 10, dim=4, seed=0)
        recs = model.recommend(0, k=3)
        assert len(recs) == 3
        scores = model.score_users(np.array([0]))[0]
        assert list(recs) == list(np.argsort(-scores, kind="stable")[:3])
