"""Gradient and shape tests for every differentiable op.

Every op is validated against central finite differences; segment ops and
losses additionally get hand-computed cases and hypothesis properties.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd import Parameter, Tensor, functional as F
from repro.autograd.tensor import astensor


def numgrad(f, x, eps=1e-6):
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


def check_grads(make_loss, params, atol=1e-5):
    loss = make_loss()
    for p in params:
        p.grad = None
    loss.backward()
    analytic = [None if p.grad is None else p.grad.copy() for p in params]
    for k, p in enumerate(params):
        ng = numgrad(lambda: make_loss().item(), p.data)
        ag = analytic[k] if analytic[k] is not None else np.zeros_like(p.data)
        scale = max(np.abs(ng).max(), 1.0)
        np.testing.assert_allclose(ag, ng, atol=atol * scale, rtol=1e-4)


RNG = np.random.default_rng(42)


class TestArithmeticGrads:
    def test_add_broadcast(self):
        a = Parameter(RNG.normal(size=(3, 4)))
        b = Parameter(RNG.normal(size=(4,)))
        check_grads(lambda: F.sum(F.mul(F.add(a, b), F.add(a, b))), [a, b])

    def test_sub(self):
        a = Parameter(RNG.normal(size=(3,)))
        b = Parameter(RNG.normal(size=(3,)))
        check_grads(lambda: F.sum(F.mul(F.sub(a, b), F.sub(a, b))), [a, b])

    def test_mul_broadcast_scalar(self):
        a = Parameter(RNG.normal(size=(2, 3)))
        s = Parameter(np.array(1.5))
        check_grads(lambda: F.sum(F.mul(a, s)), [a, s])

    def test_div(self):
        a = Parameter(RNG.normal(size=(3,)))
        b = Parameter(RNG.normal(size=(3,)) + 3.0)
        check_grads(lambda: F.sum(F.div(a, b)), [a, b])

    def test_neg(self):
        a = Parameter(RNG.normal(size=(3,)))
        check_grads(lambda: F.sum(F.neg(a)), [a])

    def test_power(self):
        a = Parameter(np.abs(RNG.normal(size=(3,))) + 0.5)
        check_grads(lambda: F.sum(F.power(a, 3.0)), [a])


class TestMatmulGrads:
    def test_2d_2d(self):
        a = Parameter(RNG.normal(size=(3, 4)))
        b = Parameter(RNG.normal(size=(4, 2)))
        c = Tensor(RNG.normal(size=(3, 2)))
        check_grads(lambda: F.sum(F.mul(F.matmul(a, b), c)), [a, b])

    def test_2d_1d(self):
        a = Parameter(RNG.normal(size=(3, 4)))
        v = Parameter(RNG.normal(size=(4,)))
        c = Tensor(RNG.normal(size=(3,)))
        check_grads(lambda: F.sum(F.mul(F.matmul(a, v), c)), [a, v])

    def test_1d_2d(self):
        v = Parameter(RNG.normal(size=(3,)))
        a = Parameter(RNG.normal(size=(3, 4)))
        c = Tensor(RNG.normal(size=(4,)))
        check_grads(lambda: F.sum(F.mul(F.matmul(v, a), c)), [v, a])

    def test_1d_1d(self):
        u = Parameter(RNG.normal(size=(3,)))
        v = Parameter(RNG.normal(size=(3,)))
        check_grads(lambda: F.mul(F.matmul(u, v), astensor(2.0)), [u, v])

    def test_batched(self):
        a = Parameter(RNG.normal(size=(2, 3, 4)))
        b = Parameter(RNG.normal(size=(4, 5)))
        c = Tensor(RNG.normal(size=(2, 3, 5)))
        check_grads(lambda: F.sum(F.mul(F.matmul(a, b), c)), [a, b])

    def test_batched_vector(self):
        a = Parameter(RNG.normal(size=(2, 3, 4)))
        v = Parameter(RNG.normal(size=(4,)))
        c = Tensor(RNG.normal(size=(2, 3)))
        check_grads(lambda: F.sum(F.mul(F.matmul(a, v), c)), [a, v])


class TestReducersAndShapes:
    def test_sum_all(self):
        a = Parameter(RNG.normal(size=(2, 3)))
        check_grads(lambda: F.sum(a), [a])

    def test_sum_axis0(self):
        a = Parameter(RNG.normal(size=(2, 3)))
        c = Tensor(RNG.normal(size=(3,)))
        check_grads(lambda: F.sum(F.mul(F.sum(a, axis=0), c)), [a])

    def test_sum_axis_keepdims(self):
        a = Parameter(RNG.normal(size=(2, 3)))
        c = Tensor(RNG.normal(size=(2, 1)))
        check_grads(lambda: F.sum(F.mul(F.sum(a, axis=1, keepdims=True), c)), [a])

    def test_sum_negative_axis(self):
        a = Parameter(RNG.normal(size=(2, 3)))
        c = Tensor(RNG.normal(size=(2,)))
        check_grads(lambda: F.sum(F.mul(F.sum(a, axis=-1), c)), [a])

    def test_mean(self):
        a = Parameter(RNG.normal(size=(4,)))
        check_grads(lambda: F.mean(a), [a])

    def test_mean_axis(self):
        a = Parameter(RNG.normal(size=(2, 4)))
        c = Tensor(RNG.normal(size=(2,)))
        check_grads(lambda: F.sum(F.mul(F.mean(a, axis=1), c)), [a])

    def test_reshape(self):
        a = Parameter(RNG.normal(size=(2, 6)))
        c = Tensor(RNG.normal(size=(3, 4)))
        check_grads(lambda: F.sum(F.mul(F.reshape(a, (3, 4)), c)), [a])

    def test_transpose_default(self):
        a = Parameter(RNG.normal(size=(2, 3)))
        c = Tensor(RNG.normal(size=(3, 2)))
        check_grads(lambda: F.sum(F.mul(F.transpose(a), c)), [a])

    def test_transpose_axes(self):
        a = Parameter(RNG.normal(size=(2, 3, 4)))
        c = Tensor(RNG.normal(size=(4, 2, 3)))
        check_grads(lambda: F.sum(F.mul(F.transpose(a, (2, 0, 1)), c)), [a])

    def test_concat(self):
        a = Parameter(RNG.normal(size=(2, 3)))
        b = Parameter(RNG.normal(size=(2, 2)))
        c = Tensor(RNG.normal(size=(2, 5)))
        check_grads(lambda: F.sum(F.mul(F.concat([a, b], axis=1), c)), [a, b])

    def test_concat_axis0(self):
        a = Parameter(RNG.normal(size=(2, 3)))
        b = Parameter(RNG.normal(size=(1, 3)))
        c = Tensor(RNG.normal(size=(3, 3)))
        check_grads(lambda: F.sum(F.mul(F.concat([a, b], axis=0), c)), [a, b])

    def test_stack(self):
        a = Parameter(RNG.normal(size=(3,)))
        b = Parameter(RNG.normal(size=(3,)))
        c = Tensor(RNG.normal(size=(2, 3)))
        check_grads(lambda: F.sum(F.mul(F.stack([a, b], axis=0), c)), [a, b])


class TestActivationGrads:
    @pytest.mark.parametrize(
        "op", ["tanh", "sigmoid", "relu", "leaky_relu", "exp", "log_sigmoid", "softplus", "abs"]
    )
    def test_unary(self, op):
        a = Parameter(RNG.normal(size=(7,)) + 0.1)  # offset avoids relu/abs kinks
        fn = getattr(F, op)
        check_grads(lambda: F.sum(fn(a)), [a])

    def test_log(self):
        a = Parameter(np.abs(RNG.normal(size=(5,))) + 0.5)
        check_grads(lambda: F.sum(F.log(a)), [a])

    def test_sqrt(self):
        a = Parameter(np.abs(RNG.normal(size=(5,))) + 0.5)
        check_grads(lambda: F.sum(F.sqrt(a)), [a])

    def test_clip_interior_gradient(self):
        a = Parameter(np.array([0.2, -0.8, 1.5]))
        F.sum(F.clip(a, -1.0, 1.0)).backward()
        np.testing.assert_allclose(a.grad, [1.0, 1.0, 0.0])

    def test_leaky_relu_slope(self):
        a = Parameter(np.array([-2.0, 2.0]))
        F.sum(F.leaky_relu(a, negative_slope=0.1)).backward()
        np.testing.assert_allclose(a.grad, [0.1, 1.0])

    def test_softmax_rows_sum_to_one(self):
        a = Tensor(RNG.normal(size=(4, 6)))
        out = F.softmax(a, axis=1)
        np.testing.assert_allclose(out.data.sum(axis=1), np.ones(4), atol=1e-12)

    def test_softmax_grad(self):
        a = Parameter(RNG.normal(size=(3, 4)))
        c = Tensor(RNG.normal(size=(3, 4)))
        check_grads(lambda: F.sum(F.mul(F.softmax(a, axis=1), c)), [a])

    def test_sigmoid_extreme_stability(self):
        out = F.sigmoid(Tensor(np.array([-800.0, 800.0])))
        assert np.isfinite(out.data).all()
        np.testing.assert_allclose(out.data, [0.0, 1.0], atol=1e-12)

    def test_log_sigmoid_extreme_stability(self):
        out = F.log_sigmoid(Tensor(np.array([-800.0, 800.0])))
        assert np.isfinite(out.data).all()


class TestGatherScatter:
    def test_take_rows_forward(self):
        w = Tensor(np.arange(12.0).reshape(4, 3))
        out = F.take_rows(w, np.array([2, 0]))
        np.testing.assert_allclose(out.data, [[6, 7, 8], [0, 1, 2]])

    def test_take_rows_grad_with_duplicates(self):
        w = Parameter(RNG.normal(size=(5, 2)))
        idx = np.array([0, 0, 3])
        c = Tensor(RNG.normal(size=(3, 2)))
        check_grads(lambda: F.sum(F.mul(F.take_rows(w, idx), c)), [w])

    def test_embedding_alias(self):
        w = Parameter(np.arange(6.0).reshape(3, 2))
        out = F.embedding(w, np.array([1]))
        np.testing.assert_allclose(out.data, [[2.0, 3.0]])

    def test_take_rows_1d(self):
        w = Parameter(RNG.normal(size=(6,)))
        c = Tensor(RNG.normal(size=(3,)))
        check_grads(lambda: F.sum(F.mul(F.take_rows(w, np.array([5, 5, 1])), c)), [w])


class TestSegmentOps:
    def test_segment_sum_forward(self):
        v = Tensor(np.arange(8.0).reshape(4, 2))
        out = F.segment_sum(v, np.array([0, 2, 2, 4]))
        np.testing.assert_allclose(out.data, [[2.0, 4.0], [0.0, 0.0], [10.0, 12.0]])

    def test_segment_sum_grad(self):
        v = Parameter(RNG.normal(size=(6, 3)))
        offsets = np.array([0, 2, 2, 5, 6])
        c = Tensor(RNG.normal(size=(4, 3)))
        check_grads(lambda: F.sum(F.mul(F.segment_sum(v, offsets), c)), [v])

    def test_segment_sum_bad_offsets(self):
        v = Tensor(np.zeros((4, 2)))
        with pytest.raises(ValueError):
            F.segment_sum(v, np.array([0, 2, 3]))  # doesn't end at 4
        with pytest.raises(ValueError):
            F.segment_sum(v, np.array([1, 2, 4]))  # doesn't start at 0
        with pytest.raises(ValueError):
            F.segment_sum(v, np.array([0, 3, 2, 4]))  # decreasing

    def test_segment_max(self):
        v = np.array([1.0, 5.0, 2.0, -1.0])
        out = F.segment_max(v, np.array([0, 2, 2, 4]))
        np.testing.assert_allclose(out, [5.0, -np.inf, 2.0])

    def test_segment_softmax_sums_to_one_per_segment(self):
        s = Tensor(RNG.normal(size=(7,)))
        offsets = np.array([0, 3, 3, 7])
        out = F.segment_softmax(s, offsets)
        np.testing.assert_allclose(out.data[:3].sum(), 1.0, atol=1e-12)
        np.testing.assert_allclose(out.data[3:].sum(), 1.0, atol=1e-12)

    def test_segment_softmax_grad(self):
        s = Parameter(RNG.normal(size=(6,)))
        offsets = np.array([0, 2, 2, 5, 6])
        c = Tensor(RNG.normal(size=(6,)))
        check_grads(lambda: F.sum(F.mul(F.segment_softmax(s, offsets), c)), [s])

    def test_segment_softmax_requires_1d(self):
        with pytest.raises(ValueError):
            F.segment_softmax(Tensor(np.zeros((2, 2))), np.array([0, 2]))

    def test_segment_softmax_stability(self):
        s = Tensor(np.array([1000.0, 1000.0, -1000.0]))
        out = F.segment_softmax(s, np.array([0, 3]))
        assert np.isfinite(out.data).all()

    def test_segment_softmax_singleton_segments(self):
        s = Tensor(np.array([5.0, -2.0]))
        out = F.segment_softmax(s, np.array([0, 1, 2]))
        np.testing.assert_allclose(out.data, [1.0, 1.0])


class TestDropout:
    def test_identity_when_not_training(self, rng):
        a = Parameter(np.ones((4, 4)))
        out = F.dropout(a, 0.5, rng, training=False)
        assert out is a

    def test_identity_when_p_zero(self, rng):
        a = Parameter(np.ones((4, 4)))
        assert F.dropout(a, 0.0, rng) is a

    def test_invalid_p(self, rng):
        with pytest.raises(ValueError):
            F.dropout(Parameter(np.ones(2)), 1.0, rng)

    @pytest.mark.parametrize("p", [-0.5, 1.0, 1.5, float("nan")])
    @pytest.mark.parametrize("training", [True, False])
    def test_invalid_p_rejected_before_identity_shortcut(self, rng, p, training):
        """An out-of-range ``p`` raises even where dropout is the identity."""
        with pytest.raises(ValueError, match="dropout probability"):
            F.dropout(Parameter(np.ones(2)), p, rng, training=training)

    def test_scaling_preserves_expectation(self):
        rng = np.random.default_rng(3)
        a = Tensor(np.ones((200, 200)))
        out = F.dropout(Parameter(a.data), 0.3, rng)
        assert abs(out.data.mean() - 1.0) < 0.02

    def test_grad_masked(self):
        rng = np.random.default_rng(5)
        a = Parameter(np.ones(100))
        out = F.dropout(a, 0.5, rng)
        F.sum(out).backward()
        # Gradient is zero exactly where output is zero.
        np.testing.assert_array_equal(a.grad == 0.0, out.data == 0.0)


class TestLosses:
    def test_bpr_loss_decreases_with_margin(self):
        pos = Tensor(np.array([3.0]))
        neg = Tensor(np.array([0.0]))
        loss_close = F.bpr_loss(Tensor(np.array([0.1])), neg).item()
        loss_far = F.bpr_loss(pos, neg).item()
        assert loss_far < loss_close

    def test_bpr_loss_grad(self):
        p = Parameter(RNG.normal(size=(6,)))
        n = Parameter(RNG.normal(size=(6,)))
        check_grads(lambda: F.bpr_loss(p, n), [p, n])

    def test_margin_loss_zero_when_separated(self):
        pos = Tensor(np.zeros(3))
        neg = Tensor(np.full(3, 10.0))
        assert F.margin_ranking_loss(pos, neg, 1.0).item() == 0.0

    def test_margin_loss_hinge_value(self):
        pos = Tensor(np.array([2.0]))
        neg = Tensor(np.array([1.0]))
        np.testing.assert_allclose(F.margin_ranking_loss(pos, neg, 0.5).item(), 1.5)

    def test_margin_loss_grad(self):
        p = Parameter(RNG.normal(size=(6,)))
        n = Parameter(RNG.normal(size=(6,)))
        check_grads(lambda: F.margin_ranking_loss(p, n, 1.0), [p, n])

    def test_squared_norm(self):
        a = Parameter(np.array([3.0, 4.0]))
        loss = F.squared_norm(a)
        assert loss.item() == 25.0
        loss.backward()
        np.testing.assert_allclose(a.grad, [6.0, 8.0])

    def test_l2_normalize_unit_rows(self):
        a = Tensor(RNG.normal(size=(4, 3)) * 5)
        out = F.l2_normalize(a, axis=1)
        np.testing.assert_allclose(np.linalg.norm(out.data, axis=1), np.ones(4), atol=1e-6)

    def test_l2_normalize_zero_row_finite(self):
        a = Tensor(np.zeros((1, 3)))
        out = F.l2_normalize(a, axis=1)
        assert np.isfinite(out.data).all()

    def test_l2_normalize_grad(self):
        a = Parameter(RNG.normal(size=(3, 4)))
        c = Tensor(RNG.normal(size=(3, 4)))
        check_grads(lambda: F.sum(F.mul(F.l2_normalize(a, axis=1), c)), [a])

    def test_l2_normalize_is_one_tape_node(self):
        a = Parameter(RNG.normal(size=(3, 4)))
        out = F.l2_normalize(a, axis=1)
        assert out._parents == (a,)


def _l2_normalize_chain(a, axis=-1, eps=1e-12):
    """The per-op ``mul → sum → add eps → sqrt → div`` chain: the reference
    for the one-node :func:`F.l2_normalize`."""
    sq = F.sum(F.mul(a, a), axis=axis, keepdims=True)
    return F.div(a, F.sqrt(F.add(sq, astensor(eps))))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    rows=st.integers(1, 8),
    cols=st.integers(1, 6),
    axis=st.sampled_from([0, 1, -1]),
    zero_rows=st.integers(0, 2),
    scale=st.sampled_from([1e-8, 1.0, 1e6]),
)
def test_l2_normalize_matches_chain(seed, rows, cols, axis, zero_rows, scale):
    """One-node normalize == the 5-node chain: forward bit for bit (the same
    arithmetic), gradient to rounding, including all-zero rows and the
    single-entry rows whose gradient cancels to zero."""
    rng = np.random.default_rng(seed)
    x = scale * rng.standard_normal((rows, cols))
    x[:zero_rows] = 0.0
    probe = Tensor(rng.standard_normal((rows, cols)))
    results = []
    for normalize in (F.l2_normalize, _l2_normalize_chain):
        a = Parameter(x.copy())
        out = normalize(a, axis=axis)
        F.sum(F.mul(out, probe)).backward()
        results.append((out.data, a.grad))
    (y, g), (y_ref, g_ref) = results
    np.testing.assert_array_equal(y, y_ref)
    # Where the true gradient cancels to ~0 both sides hold rounding residue
    # of terms of size |probe| / ‖x‖, so that is the absolute scale.
    norms = np.sqrt((x * x).sum(axis=axis, keepdims=True) + 1e-12)
    bound = 1e-12 * (np.abs(g_ref) + np.abs(probe.data).max() / norms)
    assert (np.abs(g - g_ref) <= bound).all()


def _bpr_objective_chain(user_table, item_table, users, pos, neg, l2):
    """The per-op ``take_rows → mul → sum → bpr_loss`` + squared-norm chain:
    the reference for the one-node :func:`F.bpr_objective`."""
    u = F.take_rows(user_table, users)
    i = F.take_rows(item_table, pos)
    j = F.take_rows(item_table, neg)
    loss = F.bpr_loss(F.sum(F.mul(u, i), axis=1), F.sum(F.mul(u, j), axis=1))
    reg = F.add(F.add(F.squared_norm(u), F.squared_norm(i)), F.squared_norm(j))
    return F.add(loss, F.mul(reg, astensor(l2 / len(users))))


class TestBprObjective:
    def test_is_one_tape_node(self):
        rng = np.random.default_rng(5)
        users, items = Parameter(rng.normal(size=(2, 3))), Parameter(rng.normal(size=(4, 3)))
        out = F.bpr_objective(users, items, [0, 1], [2, 3], [3, 0], 1e-5)
        assert out._parents == (users, items)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    num_users=st.integers(1, 6),
    num_items=st.integers(1, 6),
    batch=st.integers(1, 12),
    l2=st.sampled_from([0.0, 1e-5, 0.5]),
    shared=st.booleans(),
)
def test_bpr_objective_matches_chain(seed, num_users, num_items, batch, l2, shared):
    """One-node BPR objective == the per-op chain, with duplicate ids.

    Leaf tables (BPRMF) get sparse grads on the chain's row sets; a non-leaf
    source used for users and items (CKAT's propagated table) passes a
    dense grad to its parameter.  The loss is the chain's arithmetic, so it
    is equal bit for bit; the gradients agree to rounding.
    """
    rng = np.random.default_rng(seed)
    users = rng.integers(0, num_users, batch)
    pos = rng.integers(0, num_items, batch)
    neg = rng.integers(0, num_items, batch)
    users[-1], pos[-1] = users[0], pos[0]  # a repeated (user, item) pair
    user_data = rng.normal(size=(num_users, 4))
    item_data = rng.normal(size=(num_items, 4))
    scale_data = rng.uniform(0.5, 1.5, size=(num_users + num_items, 4))
    results = []
    for objective in (F.bpr_objective, _bpr_objective_chain):
        if shared:
            base = Parameter(np.concatenate([user_data, item_data]))
            table = F.mul(base, Tensor(scale_data))
            params = [base]
            out = objective(table, table, users, pos + num_users, neg + num_users, l2)
        else:
            params = [Parameter(user_data.copy()), Parameter(item_data.copy())]
            out = objective(params[0], params[1], users, pos, neg, l2)
        out.backward()
        results.append((out.item(), [p.grad for p in params]))
    (loss, grads), (loss_ref, grads_ref) = results
    assert loss == loss_ref
    for g, g_ref in zip(grads, grads_ref):
        if shared:
            assert isinstance(g, np.ndarray) and isinstance(g_ref, np.ndarray)
        else:
            assert g.coalesce().indices.tolist() == g_ref.coalesce().indices.tolist()
        # Where the true gradient cancels to ~0 both sides hold rounding
        # residue of terms of size |table|/B, so that is the absolute scale.
        ref = np.asarray(g_ref)
        terms = 1.5 * max(np.abs(user_data).max(), np.abs(item_data).max()) / batch
        np.testing.assert_allclose(
            np.asarray(g), ref, rtol=1e-12, atol=1e-12 * (np.abs(ref).max() + terms)
        )


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=20),
    segs=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_segment_sum_matches_bincount(n, segs, seed):
    """Property: segment_sum equals a per-segment loop for random offsets."""
    rng = np.random.default_rng(seed)
    cuts = np.sort(rng.integers(0, n + 1, size=segs - 1)) if segs > 1 else np.array([], dtype=int)
    offsets = np.concatenate([[0], cuts, [n]]).astype(np.int64)
    v = Tensor(rng.normal(size=(n, 2)))
    out = F.segment_sum(v, offsets).data
    for s in range(len(offsets) - 1):
        np.testing.assert_allclose(out[s], v.data[offsets[s] : offsets[s + 1]].sum(axis=0), atol=1e-9)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_softmax_invariant_to_shift(seed):
    """Property: softmax(x + c) == softmax(x)."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(3, 5))
    a = F.softmax(Tensor(x), axis=1).data
    b = F.softmax(Tensor(x + 123.4), axis=1).data
    np.testing.assert_allclose(a, b, atol=1e-10)
