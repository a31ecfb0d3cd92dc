"""Engine-layer tests: serial bit-identity, step funnel, executor fingerprints."""

import dataclasses

import numpy as np
import pytest

from repro.autograd import Adam, Parameter
from repro.data.interactions import InteractionDataset
from repro.data.sampling import BPRSampler
from repro.io.checkpoints import (
    check_executor_compatible,
    executor_fingerprint,
    load_training_checkpoint,
    save_training_checkpoint,
)
from repro.models import BPRMF
from repro.models.base import FitConfig
from repro.train import TrainEngine, make_step_fn
from repro.utils.rng import ensure_rng


@pytest.fixture()
def tiny_data():
    rng = np.random.default_rng(0)
    n = 600
    return InteractionDataset(
        rng.integers(0, 40, n), rng.integers(0, 60, n), num_users=40, num_items=60
    )


def _historical_fit(model, data, config):
    """The pre-engine ``Recommender.fit`` epoch loop, inlined verbatim.

    This is the bit-identity oracle for :class:`SerialExecutor`: the exact
    statement sequence the training loop ran before the engine extraction
    (single RNG, aux phase first, one optimizer step per sampler batch).
    """
    rng = ensure_rng(config.seed)
    sampler = BPRSampler(data)
    optimizer = Adam(model.parameters(), lr=config.lr)
    losses = []
    for _ in range(config.epochs):
        model.extra_epoch_step(make_step_fn(optimizer), rng, config)
        epoch_loss, n_batches = 0.0, 0
        for users, pos, neg in sampler.epoch_batches(config.batch_size, seed=rng):
            optimizer.zero_grad()
            loss = model.batch_loss(users, pos, neg, rng)
            loss.backward()
            optimizer.step()
            epoch_loss += loss.item()
            n_batches += 1
        losses.append(epoch_loss / max(n_batches, 1))
        model.on_epoch_end()
    return losses


class TestSerialBitIdentity:
    def test_engine_matches_historical_loop(self, tiny_data):
        """TrainEngine + SerialExecutor == the pre-refactor epoch loop, bit for bit."""
        cfg = FitConfig(epochs=4, batch_size=64, seed=3)
        via_engine = BPRMF(40, 60, dim=8, seed=1)
        result = TrainEngine(via_engine).fit(tiny_data, cfg)
        oracle = BPRMF(40, 60, dim=8, seed=1)
        oracle_losses = _historical_fit(oracle, tiny_data, cfg)
        assert result.losses == oracle_losses
        for p, q in zip(via_engine.parameters(), oracle.parameters()):
            assert np.array_equal(p.data, q.data)

    def test_fit_wrapper_equals_engine(self, tiny_data):
        cfg = FitConfig(epochs=3, batch_size=64, seed=5)
        a = BPRMF(40, 60, dim=8, seed=2)
        ra = a.fit(tiny_data, cfg)
        b = BPRMF(40, 60, dim=8, seed=2)
        rb = TrainEngine(b).fit(tiny_data, cfg)
        assert ra.losses == rb.losses
        for p, q in zip(a.parameters(), b.parameters()):
            assert np.array_equal(p.data, q.data)

    def test_step_funnel_sequence(self):
        """make_step_fn runs zero_grad → forward → backward → step, in order."""
        calls = []

        class Recorder:
            def zero_grad(self):
                calls.append("zero")

            def step(self):
                calls.append("step")

        p = Parameter(np.zeros((2, 2)), name="w")

        def loss_fn():
            from repro.autograd import functional as F

            return F.sum(F.mul(p, p))

        step = make_step_fn(Recorder())
        value = step(loss_fn)
        assert calls == ["zero", "step"]
        assert value == 0.0
        assert p.grad is not None


class TestExecutorFingerprint:
    def test_serial_checkpoint_records_executor(self, tiny_data, tmp_path):
        cfg = FitConfig(epochs=2, batch_size=64, seed=3)
        m = BPRMF(40, 60, dim=8, seed=1)
        ck = tmp_path / "run.ckpt.npz"
        m.fit(tiny_data, cfg, checkpoint_every=2, checkpoint_path=ck)
        loaded = load_training_checkpoint(ck)
        assert loaded.config["executor"] == {"kind": "serial"}

    def test_missing_executor_key_reads_as_serial(self):
        assert executor_fingerprint({"seed": 0}) == {"kind": "serial"}
        check_executor_compatible({"seed": 0}, {"kind": "serial"})  # no raise

    def test_mismatch_raises(self):
        with pytest.raises(ValueError, match="cannot resume"):
            check_executor_compatible(
                {"executor": {"kind": "serial"}}, {"kind": "sharded", "workers": 2}
            )

    def test_serial_checkpoint_refuses_sharded_resume(self, tiny_data, tmp_path):
        """A checkpoint stamped by the old data-parallel engine fails loudly."""
        cfg = FitConfig(epochs=4, batch_size=64, seed=3)
        m = BPRMF(40, 60, dim=8, seed=1)
        ck = tmp_path / "serial.ckpt.npz"
        m.fit(
            tiny_data,
            FitConfig(epochs=2, batch_size=64, seed=3),
            checkpoint_every=2,
            checkpoint_path=ck,
        )
        # Restamp it the way the data-parallel engine wrote its checkpoints.
        ckpt = load_training_checkpoint(ck)
        sharded = dataclasses.replace(
            ckpt, config={**ckpt.config, "executor": {"kind": "sharded", "workers": 2}}
        )
        save_training_checkpoint(ck, sharded)
        m2 = BPRMF(40, 60, dim=8, seed=1)
        with pytest.raises(ValueError, match="cannot resume.*executor"):
            m2.fit(tiny_data, cfg, resume_from=ck)


class TestEngineValidation:
    def test_needs_data_or_sampler(self):
        with pytest.raises(ValueError, match="training dataset or an explicit sampler"):
            TrainEngine(BPRMF(4, 5, dim=2)).fit(None, FitConfig(epochs=1))

    def test_shape_mismatch(self, tiny_data):
        with pytest.raises(ValueError, match="does not match model"):
            BPRMF(41, 60, dim=4).fit(tiny_data, FitConfig(epochs=1))
