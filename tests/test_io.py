"""Persistence tests: model checkpoints."""

import numpy as np
import pytest

from repro.io import load_parameters, save_parameters
from repro.io.checkpoints import parameter_keys
from repro.models import BPRMF
from tests.ckat_reference import float64_ckat


class TestCheckpointIO:
    def test_roundtrip_restores_exactly(self, tmp_path):
        model = BPRMF(10, 20, dim=8, seed=0)
        original = [p.data.copy() for p in model.parameters()]
        path = tmp_path / "model.npz"
        save_parameters(path, model)
        for p in model.parameters():
            p.data += 1.0
        load_parameters(path, model)
        for p, orig in zip(model.parameters(), original):
            np.testing.assert_array_equal(p.data, orig)

    def test_shape_mismatch_rejected(self, tmp_path):
        small = BPRMF(10, 20, dim=8, seed=0)
        big = BPRMF(10, 20, dim=16, seed=0)
        path = tmp_path / "m.npz"
        save_parameters(path, small)
        with pytest.raises(ValueError, match="shape"):
            load_parameters(path, big)

    def test_dtype_mismatch_rejected(self, tmp_path, ooi_ckg_best, ooi_split):
        """A float64 CKAT checkpoint does not load into float32 tables."""
        from repro.models import CKAT, CKATConfig

        def build():
            cfg = CKATConfig(dim=8, relation_dim=8, layer_dims=(8,))
            M, N = ooi_split.train.num_users, ooi_split.train.num_items
            return CKAT(M, N, ooi_ckg_best, cfg, seed=0)

        path = tmp_path / "m.npz"
        save_parameters(path, float64_ckat(build()))
        model = build()
        before = [p.data.copy() for p in model.parameters()]
        mismatch = r"dtype mismatch for .*: file float64 vs model float32"
        with pytest.raises(ValueError, match=mismatch):
            load_parameters(path, model)
        for p, b in zip(model.parameters(), before):
            np.testing.assert_array_equal(p.data, b)

    def test_parameter_set_mismatch_rejected(self, tmp_path, ooi_ckg_best, ooi_split):
        from repro.models import CKE

        bprmf = BPRMF(ooi_split.train.num_users, ooi_split.train.num_items, dim=8, seed=0)
        cke = CKE(ooi_split.train.num_users, ooi_split.train.num_items, ooi_ckg_best, dim=8, seed=0)
        path = tmp_path / "m.npz"
        save_parameters(path, bprmf)
        with pytest.raises(ValueError, match="mismatch"):
            load_parameters(path, cke)

    def test_not_a_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "nope.npz"
        np.savez(path, a=np.zeros(2))
        with pytest.raises(ValueError, match="checkpoint"):
            load_parameters(path, BPRMF(3, 3, dim=2))

    def test_parameter_keys_unique(self):
        from repro.autograd import Parameter

        params = [Parameter(np.zeros(1), name="w"), Parameter(np.zeros(1), name="w")]
        keys = parameter_keys(params)
        assert len(set(keys)) == 2

    def test_scoring_identical_after_reload(self, tmp_path, ooi_split):
        from repro.models.base import FitConfig

        model = BPRMF(ooi_split.train.num_users, ooi_split.train.num_items, dim=8, seed=0)
        model.fit(ooi_split.train, FitConfig(epochs=2, batch_size=256, seed=0))
        before = model.score_users(np.array([0, 1]))
        path = tmp_path / "trained.npz"
        save_parameters(path, model)
        fresh = BPRMF(ooi_split.train.num_users, ooi_split.train.num_items, dim=8, seed=99)
        load_parameters(path, fresh)
        np.testing.assert_allclose(fresh.score_users(np.array([0, 1])), before)
