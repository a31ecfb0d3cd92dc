"""Autograd stress and composition tests: deeper graphs, mixed ops,
hypothesis-driven randomized gradient checks of composed expressions."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd import Adam, Parameter, Tensor, functional as F, no_grad
from tests.convergence import assert_converges


def numgrad_scalar(f, x, eps=1e-6):
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        orig = x[i]
        x[i] = orig + eps
        fp = f()
        x[i] = orig - eps
        fm = f()
        x[i] = orig
        g[i] = (fp - fm) / (2 * eps)
    return g


class TestComposedGradients:
    def test_mlp_composition(self):
        rng = np.random.default_rng(0)
        W1 = Parameter(rng.normal(size=(4, 5)) * 0.3)
        b1 = Parameter(np.zeros(5))
        W2 = Parameter(rng.normal(size=(5, 2)) * 0.3)
        x = Tensor(rng.normal(size=(7, 4)))
        target = Tensor(rng.normal(size=(7, 2)))

        def loss_fn():
            h = F.tanh(F.add(x @ W1, b1))
            out = h @ W2
            diff = F.sub(out, target)
            return F.mean(F.mul(diff, diff))

        loss = loss_fn()
        loss.backward()
        for p in (W1, b1, W2):
            ng = numgrad_scalar(lambda: loss_fn().item(), p.data)
            np.testing.assert_allclose(p.grad, ng, atol=1e-5)
            p.grad = None

    def test_attention_like_composition(self):
        """segment_softmax ∘ gather ∘ matmul — the CKAT attention pattern."""
        rng = np.random.default_rng(1)
        emb = Parameter(rng.normal(size=(6, 3)))
        W = Parameter(rng.normal(size=(3, 3)) * 0.5)
        heads = np.array([0, 0, 1, 2, 2, 2])
        tails = np.array([3, 4, 5, 0, 1, 2])
        offsets = np.array([0, 2, 3, 6, 6, 6, 6])
        weights_const = Tensor(rng.normal(size=(6, 3)))

        def loss_fn():
            h = F.take_rows(emb, heads) @ W
            t = F.take_rows(emb, tails) @ W
            scores = F.sum(F.mul(h, F.tanh(t)), axis=1)
            att = F.segment_softmax(scores, offsets)
            msgs = F.mul(F.take_rows(emb, tails), F.reshape(att, (6, 1)))
            agg = F.segment_sum(msgs, offsets)
            return F.sum(F.mul(agg, F.take_rows(weights_const, np.arange(6))))

        loss = loss_fn()
        loss.backward()
        for p in (emb, W):
            ng = numgrad_scalar(lambda: loss_fn().item(), p.data)
            np.testing.assert_allclose(p.grad, ng, atol=1e-5, rtol=1e-4)
            p.grad = None

    def test_bpr_pipeline_gradients(self):
        """embedding → inner products → bpr loss + reg, the standard recipe."""
        rng = np.random.default_rng(2)
        U = Parameter(rng.normal(size=(5, 4)) * 0.4)
        V = Parameter(rng.normal(size=(8, 4)) * 0.4)
        users = np.array([0, 1, 2])
        pos = np.array([1, 2, 3])
        neg = np.array([4, 5, 6])

        def loss_fn():
            u = F.take_rows(U, users)
            i = F.take_rows(V, pos)
            j = F.take_rows(V, neg)
            loss = F.bpr_loss(F.sum(F.mul(u, i), axis=1), F.sum(F.mul(u, j), axis=1))
            reg = F.mul(F.add(F.squared_norm(u), F.squared_norm(i)), F.astensor(0.01))
            return F.add(loss, reg)

        loss_fn().backward()
        for p in (U, V):
            ng = numgrad_scalar(lambda: loss_fn().item(), p.data)
            np.testing.assert_allclose(p.grad, ng, atol=1e-5)
            p.grad = None


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), depth=st.integers(1, 6))
def test_random_chain_gradcheck(seed, depth):
    """Property: random chains of smooth unary ops converge (tests/convergence.py)."""
    rng = np.random.default_rng(seed)
    ops = [F.tanh, F.sigmoid, F.softplus, lambda t: F.mul(t, F.astensor(0.7))]
    choices = rng.integers(0, len(ops), size=depth)
    x = Parameter(rng.normal(size=(4,)) * 0.8)

    def loss_fn():
        t = x
        for c in choices:
            t = ops[c](t)
        return F.sum(t)

    assert_converges(loss_fn, [x], seed=seed)


class TestTrainingDynamics:
    def test_logistic_regression_converges(self):
        """End-to-end: the engine can fit a separable classification task."""
        rng = np.random.default_rng(3)
        X = rng.normal(size=(200, 5))
        true_w = rng.normal(size=5)
        y = (X @ true_w > 0).astype(np.float64)
        w = Parameter(np.zeros(5))
        b = Parameter(np.zeros(1))
        opt = Adam([w, b], lr=0.1)
        Xt, yt = Tensor(X), Tensor(y)
        for _ in range(150):
            opt.zero_grad()
            logits = F.add(Xt @ w, b)
            # BCE via softplus: mean(softplus(logits) − y·logits)
            loss = F.mean(F.sub(F.softplus(logits), F.mul(yt, logits)))
            loss.backward()
            opt.step()
        preds = (X @ w.data + b.data > 0).astype(np.float64)
        assert (preds == y).mean() > 0.95

    def test_no_grad_scoring_leaves_no_tape(self):
        p = Parameter(np.ones((10, 4)))
        with no_grad():
            out = F.l2_normalize(F.tanh(p @ F.transpose(p)), axis=1)
        assert not out.requires_grad
        assert out._parents == ()

    def test_large_embedding_scatter(self):
        """Scatter-add gradient correctness at larger scale (spot check)."""
        rng = np.random.default_rng(4)
        W = Parameter(rng.normal(size=(500, 16)))
        idx = rng.integers(0, 500, size=2000)
        out = F.take_rows(W, idx)
        F.sum(F.mul(out, out)).backward()
        # Row gradient equals 2·count·row (since d/dw Σ w² per gather = 2w each).
        counts = np.bincount(idx, minlength=500)
        np.testing.assert_allclose(W.grad, 2.0 * counts[:, None] * W.data, rtol=1e-10)
