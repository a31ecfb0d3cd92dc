"""Optimizer tests: convergence, state, validation, and Adam's bits."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd import Adam, Parameter, SparseRowGrad, functional as F


def quadratic_step(opt, p, target):
    opt.zero_grad()
    diff = F.sub(p, F.astensor(target))
    loss = F.sum(F.mul(diff, diff))
    loss.backward()
    opt.step()
    return loss.item()


class TestAdam:
    def test_converges_on_quadratic(self):
        p = Parameter(np.array([5.0, -3.0]))
        opt = Adam([p], lr=0.1)
        for _ in range(300):
            quadratic_step(opt, p, np.array([1.0, 2.0]))
        np.testing.assert_allclose(p.data, [1.0, 2.0], atol=1e-3)

    def test_bias_correction_first_step(self):
        # After one step with constant grad g, Adam moves ≈ lr·sign(g).
        p = Parameter(np.array([0.0]))
        opt = Adam([p], lr=0.01)
        p.grad = np.array([1.0])
        opt.step()
        np.testing.assert_allclose(p.data, [-0.01], atol=1e-6)

    def test_skips_none_grads(self):
        p1, p2 = Parameter(np.zeros(2)), Parameter(np.zeros(2))
        opt = Adam([p1, p2], lr=0.1)
        p1.grad = np.ones(2)
        opt.step()  # p2.grad is None — must not raise
        assert (p1.data != 0).all() and (p2.data == 0).all()

    def test_invalid_betas(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(1))], betas=(1.0, 0.9))

    def test_state_size(self):
        p = Parameter(np.zeros(3))
        opt = Adam([p])
        p.grad = np.ones(3)
        opt.step()
        assert opt.state_size() == 6  # m and v

    def test_weight_decay(self):
        p = Parameter(np.array([1.0]))
        opt = Adam([p], lr=0.01, weight_decay=0.5)
        p.grad = np.array([0.0])
        opt.step()
        assert p.data[0] < 1.0


class TestOptimizerBase:
    def test_empty_params_rejected(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

    def test_nonpositive_lr_rejected(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(1))], lr=0.0)

    def test_zero_grad_clears(self):
        p = Parameter(np.zeros(2))
        p.grad = np.ones(2)
        opt = Adam([p], lr=0.1)
        opt.zero_grad()
        assert p.grad is None

    def test_step_counts(self):
        p = Parameter(np.zeros(1))
        opt = Adam([p], lr=0.1)
        opt.step()
        opt.step()
        assert opt.step_count == 2


class TextbookAdam(Adam):
    """Adam whose dense update evaluates the textbook expressions with
    temporaries — the byte oracle for ``adam_update``'s in-place steps."""

    def _update(self, p):
        b1, b2 = self.betas
        g = p.grad
        if self.weight_decay:
            g = g + self.weight_decay * p.data
        m, v = self._moments(p)
        last = self._last.get(id(p))
        if last is not None:
            lag = (self.step_count - 1) - last
            if lag.any():
                expand = (-1,) + (1,) * (p.data.ndim - 1)
                lag = lag.astype(p.data.dtype)
                m *= (b1**lag).reshape(expand)
                v *= (b2**lag).reshape(expand)
            last[:] = self.step_count
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * (g * g)
        t = self.step_count
        mhat = m / (1 - b1**t)
        vhat = v / (1 - b2**t)
        p.data -= self.lr * mhat / (np.sqrt(vhat) + self.eps)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    dtype=st.sampled_from([np.float32, np.float64]),
    weight_decay=st.sampled_from([0.0, 1e-3]),
    sparse_steps=st.integers(0, 3),
    dense_steps=st.integers(1, 6),
    shape=st.sampled_from([(7,), (9, 4)]),
)
def test_adam_update_matches_textbook_bits(
    seed, dtype, weight_decay, sparse_steps, dense_steps, shape
):
    """Dense steps through ``adam_update`` land on the bytes of the textbook
    expressions, in float32 and float64, with and without weight decay, and
    after sparse steps whose rows the dense step catches up lazily."""
    rng = np.random.default_rng(seed)
    init = rng.normal(size=shape).astype(dtype)
    params = [Parameter(init.copy()), Parameter(init.copy())]
    lr = float(rng.uniform(1e-3, 0.1))
    opts = [
        Adam([params[0]], lr=lr, weight_decay=weight_decay),
        TextbookAdam([params[1]], lr=lr, weight_decay=weight_decay),
    ]
    for step in range(sparse_steps + dense_steps):
        if step < sparse_steps:
            rows = rng.choice(shape[0], size=int(rng.integers(1, shape[0])), replace=False)
            values = rng.normal(size=(rows.size,) + shape[1:]).astype(dtype)
            grads = [SparseRowGrad(shape, rows, values) for _ in params]
        else:
            grad = rng.normal(size=shape).astype(dtype)
            grads = [grad.copy(), grad.copy()]
        for p, opt, g in zip(params, opts, grads):
            p.grad = g
            opt.step()
        assert params[0].data.tobytes() == params[1].data.tobytes()
        for slot in ("m", "v"):
            got, want = (opt.state_dict()["slots"][slot][0] for opt in opts)
            assert got.dtype == want.dtype == dtype
            assert got.tobytes() == want.tobytes()
