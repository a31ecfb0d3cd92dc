"""Sparse-row gradient path: SparseRowGrad semantics, take_rows emission,
accumulation rules (sparse+sparse merge, sparse+dense densify), optimizer
scatter-updates (Adam, and row-local SGD/AdaGrad probes of Optimizer.step's
routing) — including duplicate-index batches and bitwise agreement with the
dense path — lazy-Adam row-step bookkeeping, and its state_dict/JSON
round-trip."""

import contextlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd import (
    Adam,
    Optimizer,
    Parameter,
    SparseRowGrad,
    dense_grads,
    sparse_grads_enabled,
)
from repro.autograd import functional as F


def _scatter_reference(shape, idx, vals):
    """The dense np.add.at scatter the sparse path must match bitwise."""
    dense = np.zeros(shape)
    np.add.at(dense, idx, vals)
    return dense


# ------------------------------------------------------------ SparseRowGrad
@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    num_rows=st.integers(1, 12),
    nnz=st.integers(0, 40),
    tail=st.sampled_from([(), (3,), (2, 3), (0,)]),
    dtype=st.sampled_from([np.float64, np.float32]),
)
def test_coalesce_equals_add_at_bitwise(seed, num_rows, nnz, tail, dtype):
    """Coalesce and densify equal the ``np.add.at`` scatter bit for bit.

    Covers 1-D values, 2-D rows, 3-D ``proj``-shaped rows, zero-width rows,
    empty grads and float32, with indices drawn from few rows so most are
    duplicated.
    """
    rng = np.random.default_rng(seed)
    shape = (num_rows,) + tail
    idx = rng.integers(0, num_rows, nnz)
    vals = rng.standard_normal((nnz,) + tail).astype(dtype)
    ref = np.zeros(shape, dtype=dtype)
    np.add.at(ref, idx, vals)
    g = SparseRowGrad(shape, idx, vals)
    dense = g.to_dense()
    assert dense.dtype == dtype
    np.testing.assert_array_equal(dense, ref, strict=True)
    c = g.coalesce()
    assert c.coalesced and c.values.dtype == dtype
    np.testing.assert_array_equal(c.indices, np.unique(idx))
    np.testing.assert_array_equal(c.values, ref[c.indices], strict=True)


class TestSparseRowGrad:
    def test_values_shape_validated(self):
        with pytest.raises(ValueError, match="values shape"):
            SparseRowGrad((4, 3), np.array([0, 1]), np.ones((3, 3)))

    def test_indices_range_validated(self):
        with pytest.raises(IndexError):
            SparseRowGrad((4, 3), np.array([0, 4]), np.ones((2, 3)))
        with pytest.raises(IndexError):
            SparseRowGrad((4, 3), np.array([-1]), np.ones((1, 3)))

    def test_coalesce_sums_duplicates(self):
        rng = np.random.default_rng(0)
        idx = np.array([2, 0, 2, 2, 1, 0])
        vals = rng.normal(size=(6, 3))
        g = SparseRowGrad((5, 3), idx, vals).coalesce()
        assert g.coalesced
        np.testing.assert_array_equal(g.indices, [0, 1, 2])
        ref = _scatter_reference((5, 3), idx, vals)
        # Duplicated rows agree to summation associativity; singleton rows
        # (index 1 appears once) come back bit-for-bit.
        np.testing.assert_allclose(g.to_dense(), ref, rtol=1e-12, atol=0)
        np.testing.assert_array_equal(g.to_dense()[1], ref[1])

    def test_coalesce_is_idempotent_and_counts_rows(self):
        g = SparseRowGrad((5, 2), np.array([1, 1, 3]), np.ones((3, 2)))
        assert g.nnz == 3
        c = g.coalesce()
        assert c.nnz == 2
        assert c.coalesce() is c

    def test_empty_grad(self):
        g = SparseRowGrad((4, 2), np.zeros(0, dtype=np.intp), np.zeros((0, 2)))
        assert g.nnz == 0
        np.testing.assert_array_equal(g.to_dense(), np.zeros((4, 2)))
        np.testing.assert_array_equal(g.coalesce().to_dense(), np.zeros((4, 2)))

    def test_add_to_dense_scatters_in_place(self):
        base = np.ones((4, 2))
        g = SparseRowGrad((4, 2), np.array([1, 1]), np.full((2, 2), 2.0))
        out = g.add_to_dense(base)
        assert out is base
        np.testing.assert_array_equal(base[1], [5.0, 5.0])
        np.testing.assert_array_equal(base[0], [1.0, 1.0])

    def test_merge_concatenates_rows(self):
        a = SparseRowGrad((4, 2), np.array([0]), np.ones((1, 2)))
        b = SparseRowGrad((4, 2), np.array([0, 3]), np.ones((2, 2)))
        a.merge_(b)
        assert a.nnz == 3 and not a.coalesced
        np.testing.assert_array_equal(a.to_dense()[0], [2.0, 2.0])
        with pytest.raises(ValueError, match="merge"):
            a.merge_(SparseRowGrad((5, 2), np.array([0]), np.ones((1, 2))))

    def test_numpy_interop(self):
        g = SparseRowGrad((3, 2), np.array([1]), np.full((1, 2), 2.0))
        # __array__ lets np.allclose / assert_allclose densify transparently.
        assert np.allclose(g, g.to_dense())
        np.testing.assert_allclose(np.asarray(g), g.to_dense())
        copied = g.copy()
        assert isinstance(copied, np.ndarray)
        np.testing.assert_array_equal(copied, g.to_dense())


# --------------------------------------------------------- backward emission
class TestTakeRowsEmission:
    def test_leaf_parameter_gets_sparse_grad(self):
        W = Parameter(np.arange(12.0).reshape(4, 3), name="W")
        idx = np.array([1, 1, 3])
        F.sum(F.take_rows(W, idx)).backward()
        assert isinstance(W.grad, SparseRowGrad)
        np.testing.assert_array_equal(
            W.grad.to_dense(), _scatter_reference((4, 3), idx, np.ones((3, 3)))
        )

    def test_duplicate_batch_matches_add_at(self):
        rng = np.random.default_rng(1)
        W = Parameter(rng.normal(size=(6, 4)))
        idx = np.array([5, 0, 5, 5, 2, 0, 1, 5])
        c = rng.normal(size=(len(idx), 4))
        F.sum(F.mul(F.take_rows(W, idx), F.astensor(c))).backward()
        np.testing.assert_array_equal(W.grad.to_dense(), _scatter_reference((6, 4), idx, c))

    def test_unique_batch_matches_add_at_bitwise(self):
        rng = np.random.default_rng(8)
        W = Parameter(rng.normal(size=(6, 4)))
        idx = np.array([5, 0, 2, 1])
        c = rng.normal(size=(len(idx), 4))
        F.sum(F.mul(F.take_rows(W, idx), F.astensor(c))).backward()
        np.testing.assert_array_equal(
            W.grad.to_dense(), _scatter_reference((6, 4), idx, c)
        )

    def test_intermediate_tensor_gets_dense_grad(self):
        a = Parameter(np.ones((4, 3)))
        b = F.mul(a, a)  # non-leaf gather source
        F.sum(F.take_rows(b, np.array([0, 2]))).backward()
        assert isinstance(a.grad, np.ndarray)

    def test_dense_grads_context_forces_dense(self):
        W = Parameter(np.ones((4, 3)))
        assert sparse_grads_enabled()
        with dense_grads():
            assert not sparse_grads_enabled()
            F.sum(F.take_rows(W, np.array([0, 1]))).backward()
        assert sparse_grads_enabled()
        assert isinstance(W.grad, np.ndarray)

    def test_sparse_plus_sparse_merges(self):
        W = Parameter(np.ones((5, 2)))
        loss = F.add(
            F.sum(F.take_rows(W, np.array([0, 1]))),
            F.sum(F.take_rows(W, np.array([1, 4]))),
        )
        loss.backward()
        assert isinstance(W.grad, SparseRowGrad)
        expected = np.zeros((5, 2))
        np.add.at(expected, [0, 1, 1, 4], np.ones((4, 2)))
        np.testing.assert_array_equal(W.grad.to_dense(), expected)

    def test_sparse_plus_dense_densifies(self):
        W = Parameter(np.ones((5, 2)))
        loss = F.add(F.sum(F.take_rows(W, np.array([0, 0]))), F.sum(W))
        loss.backward()
        assert isinstance(W.grad, np.ndarray)
        expected = np.ones((5, 2))
        expected[0] += 2.0
        np.testing.assert_array_equal(W.grad, expected)

    def test_sparse_grad_shape_mismatch_rejected(self):
        W = Parameter(np.ones((5, 2)))
        with pytest.raises(ValueError, match="sparse grad shape"):
            W.accumulate_grad(SparseRowGrad((4, 2), np.array([0]), np.ones((1, 2))))

    def test_empty_gather_backward(self):
        W = Parameter(np.ones((4, 2)))
        out = F.take_rows(W, np.zeros(0, dtype=np.int64))
        F.sum(out).backward()
        assert isinstance(W.grad, SparseRowGrad)
        assert W.grad.nnz == 0
        opt = Adam([W], lr=0.1)
        opt.step()  # no-op, must not raise
        np.testing.assert_array_equal(W.data, np.ones((4, 2)))


# --------------------------------------------------- optimizer scatter paths
def _run_training(opt_factory, batches, *, dense, n=20, d=4):
    """Train one embedding table over fixed index batches; return final data.

    ``d=None`` uses a 1-D parameter (an embedding "table" of scalars, the
    bias-vector case).
    """
    shape = (n,) if d is None else (n, d)
    rng = np.random.default_rng(7)
    W = Parameter(rng.normal(size=shape), name="emb")
    coef = rng.normal(size=shape)  # fixed per-row targets
    opt = opt_factory([W])
    ctx = dense_grads() if dense else contextlib.nullcontext()
    with ctx:
        for idx in batches:
            opt.zero_grad()
            out = F.take_rows(W, idx)
            loss = F.sum(F.mul(out, F.astensor(coef[idx])))
            loss.backward()
            opt.step()
    return W, opt


def _partial_batches(n, steps=12, seed=3):
    """Index batches with duplicates that never cover the whole table."""
    rng = np.random.default_rng(seed)
    return [rng.integers(0, n, size=9) for _ in range(steps)]


def _unique_batches(n, steps=12, seed=5, k=7):
    """Duplicate-free index batches (coalescing is then exact, not rounded)."""
    rng = np.random.default_rng(seed)
    return [rng.choice(n, size=k, replace=False) for _ in range(steps)]


def _unique_full_batches(n, steps=8, seed=6):
    """Each batch a permutation of every row: full coverage, no duplicates."""
    rng = np.random.default_rng(seed)
    return [rng.permutation(n) for _ in range(steps)]


def _full_batches(n, steps=8, seed=4):
    """Batches covering every row each step (plus duplicated extras)."""
    rng = np.random.default_rng(seed)
    return [
        np.concatenate([rng.permutation(n), rng.integers(0, n, size=5)])
        for _ in range(steps)
    ]


class _RowSGD(Optimizer):
    """Plain SGD with a row scatter-update.

    A stateless row-local update: its sparse path is the dense arithmetic on
    the touched rows, so it probes :meth:`Optimizer.step`'s coalesce-and-route
    contract apart from Adam's lazy decay.
    """

    def _update(self, p):
        p.data -= self.lr * p.grad  # reprolint: disable=RPL007

    def _supports_sparse(self):
        return True

    def _update_sparse(self, p, grad):
        p.data[grad.indices] -= self.lr * grad.values  # reprolint: disable=RPL007


class _RowAdaGrad(Optimizer):
    """AdaGrad with a row scatter-update: per-row state that never decays."""

    def __init__(self, params, lr, eps=1e-10):
        super().__init__(params, lr)
        self.eps = eps
        self._acc = {}

    def _accumulator(self, p):
        return self._acc.setdefault(id(p), np.zeros_like(p.data))

    def _update(self, p):
        acc = self._accumulator(p)
        acc += p.grad * p.grad
        p.data -= self.lr * p.grad / (np.sqrt(acc) + self.eps)  # reprolint: disable=RPL007

    def _supports_sparse(self):
        return True

    def _update_sparse(self, p, grad):
        acc = self._accumulator(p)
        idx, val = grad.indices, grad.values
        acc_rows = acc[idx] + val * val
        acc[idx] = acc_rows
        p.data[idx] -= self.lr * val / (np.sqrt(acc_rows) + self.eps)  # reprolint: disable=RPL007


# Duplicate-free batches, so coalescing sums nothing.  The row-local probes
# are exact on any such batch; Adam needs every row touched each step, so no
# lazy decay is pending and its scatter-update performs the dense arithmetic.
_UNIQUE_CASES = [
    pytest.param(lambda ps: _RowSGD(ps, lr=0.05), _unique_batches, id="sgd"),
    pytest.param(lambda ps: _RowAdaGrad(ps, lr=0.05), _unique_batches, id="adagrad"),
    pytest.param(lambda ps: Adam(ps, lr=0.01), _unique_full_batches, id="adam"),
]


class TestOptimizerEquivalence:
    @pytest.mark.parametrize("factory, make_batches", _UNIQUE_CASES)
    def test_bitwise_equals_dense_on_unique_batches(self, factory, make_batches):
        batches = make_batches(20)
        sparse_W, _ = _run_training(factory, batches, dense=False)
        dense_W, _ = _run_training(factory, batches, dense=True)
        np.testing.assert_array_equal(sparse_W.data, dense_W.data)

    def test_adam_single_step_equals_dense(self):
        batches = _partial_batches(20, steps=1)
        sparse_W, _ = _run_training(lambda ps: Adam(ps, lr=0.01), batches, dense=False)
        dense_W, _ = _run_training(lambda ps: Adam(ps, lr=0.01), batches, dense=True)
        np.testing.assert_allclose(sparse_W.data, dense_W.data, rtol=1e-10, atol=0)

    def test_adam_full_coverage_equals_dense(self):
        # With every row touched each step, lazy decay reduces to eager decay
        # and the two paths must agree to rounding.
        batches = _full_batches(20)
        sparse_W, _ = _run_training(lambda ps: Adam(ps, lr=0.01), batches, dense=False)
        dense_W, _ = _run_training(lambda ps: Adam(ps, lr=0.01), batches, dense=True)
        np.testing.assert_allclose(sparse_W.data, dense_W.data, rtol=1e-10, atol=0)

    @pytest.mark.parametrize(
        "factory",
        [lambda ps: Adam(ps, lr=0.01, weight_decay=1e-3)],
        ids=["adam-wd"],
    )
    def test_dense_semantics_fallback(self, factory):
        # Configurations whose update couples untouched rows densify the
        # sparse grad and run the exact dense update on it: bit-identical on
        # duplicate-free batches, rounding-level otherwise.
        unique = _unique_batches(20)
        sparse_W, _ = _run_training(factory, unique, dense=False)
        dense_W, _ = _run_training(factory, unique, dense=True)
        np.testing.assert_array_equal(sparse_W.data, dense_W.data)
        dup = _partial_batches(20)
        sparse_W, _ = _run_training(factory, dup, dense=False)
        dense_W, _ = _run_training(factory, dup, dense=True)
        np.testing.assert_allclose(sparse_W.data, dense_W.data, rtol=1e-10, atol=1e-14)

    @pytest.mark.parametrize("factory, make_batches", _UNIQUE_CASES)
    def test_one_dimensional_parameter(self, factory, make_batches):
        batches = make_batches(10)
        sparse_W, _ = _run_training(factory, batches, dense=False, n=10, d=None)
        dense_W, _ = _run_training(factory, batches, dense=True, n=10, d=None)
        np.testing.assert_array_equal(sparse_W.data, dense_W.data)


class TestLazyAdam:
    def _sparse_step(self, opt, p, idx, val):
        opt.zero_grad()
        p.grad = SparseRowGrad(p.data.shape, np.asarray(idx), np.asarray(val, dtype=np.float64))
        opt.step()

    def test_untouched_rows_stay_put(self):
        W = Parameter(np.ones((4, 2)), name="W")
        opt = Adam([W], lr=0.1)
        before = W.data.copy()
        self._sparse_step(opt, W, [0, 1], np.ones((2, 2)))
        np.testing.assert_array_equal(W.data[2:], before[2:])
        assert not np.array_equal(W.data[:2], before[:2])

    def test_moment_decay_catches_up_on_next_touch(self):
        b1, b2 = 0.9, 0.999
        W = Parameter(np.zeros((3, 1)), name="W")
        opt = Adam([W], lr=0.1, betas=(b1, b2))
        # t=1 touches rows 0 and 1; t=2,3 touch row 0 only; t=4 touches row 1.
        self._sparse_step(opt, W, [0, 1], [[1.0], [1.0]])
        m1 = opt._m[id(W)][1, 0]
        assert m1 == pytest.approx((1 - b1) * 1.0)
        for _ in range(2):
            self._sparse_step(opt, W, [0], [[1.0]])
        # Row 1's moment buffer is unflushed while the row sleeps...
        assert opt._m[id(W)][1, 0] == m1
        assert opt._last[id(W)][1] == 1
        self._sparse_step(opt, W, [1], [[2.0]])
        # ...and decays by beta**(t - last) = beta**3 on the next touch.
        assert opt._m[id(W)][1, 0] == pytest.approx(b1**3 * m1 + (1 - b1) * 2.0)
        assert opt._last[id(W)][1] == 4

    def test_dense_step_catches_up_lazy_rows(self):
        b1, b2 = 0.9, 0.999
        W = Parameter(np.zeros((3, 1)), name="W")
        opt = Adam([W], lr=0.1, betas=(b1, b2))
        self._sparse_step(opt, W, [1], [[1.0]])
        m1 = opt._m[id(W)][1, 0]
        # A skipped step (no grad) still advances step_count.
        opt.zero_grad()
        opt.step()
        # Dense grad at t=3: row 1 decays b1**2 total, then folds the grad.
        opt.zero_grad()
        W.grad = np.full((3, 1), 0.5)
        opt.step()
        assert opt._m[id(W)][1, 0] == pytest.approx(b1**2 * m1 + (1 - b1) * 0.5)
        assert opt._m[id(W)][0, 0] == pytest.approx((1 - b1) * 0.5)
        np.testing.assert_array_equal(opt._last[id(W)], [3, 3, 3])

    def test_state_dict_round_trips_row_steps_through_json(self):
        batches = _partial_batches(12, steps=5)
        W, opt = _run_training(lambda ps: Adam(ps, lr=0.01), batches, dense=False, n=12)
        state = opt.state_dict()
        assert "row_steps" in state
        # Slots stay dense param-shaped arrays — the PR 2 checkpoint format.
        for buf in state["slots"].values():
            for arr in buf.values():
                assert arr.shape == W.data.shape
        # row_steps survives the checkpoint meta-JSON channel (keys become
        # strings, values plain lists).
        json_part = json.loads(json.dumps({k: v for k, v in state.items() if k != "slots"}))
        restored = dict(json_part)
        restored["slots"] = state["slots"]

        W2 = Parameter(W.data.copy(), name="emb")
        opt2 = Adam([W2], lr=0.01)
        opt2.load_state_dict(restored)
        np.testing.assert_array_equal(opt2._last[id(W2)], opt._last[id(W)])

        # Continued training is bitwise identical to the uninterrupted run.
        cont = _partial_batches(12, steps=4, seed=9)
        coef = np.random.default_rng(7).normal(size=(20, 4))[:12]
        for idx in cont:
            for p, o in ((W, opt), (W2, opt2)):
                o.zero_grad()
                out = F.take_rows(p, idx)
                F.sum(F.mul(out, F.astensor(coef[idx]))).backward()
                o.step()
        np.testing.assert_array_equal(W.data, W2.data)

    def test_legacy_state_without_row_steps_loads(self):
        W = Parameter(np.ones((4, 2)), name="W")
        opt = Adam([W], lr=0.01)
        W.grad = np.ones((4, 2))
        opt.step()
        state = opt.state_dict()
        assert "row_steps" not in state  # dense-only history stays legacy-shaped
        opt2 = Adam([Parameter(np.ones((4, 2)))], lr=0.01)
        opt2.load_state_dict(state)
        assert opt2._last == {}

    def test_row_steps_validation(self):
        W = Parameter(np.ones((4, 2)), name="W")
        opt = Adam([W], lr=0.01)
        state = opt.state_dict()
        state["row_steps"] = {"0": [1, 2]}  # wrong row count
        with pytest.raises(ValueError, match="row_steps"):
            Adam([Parameter(np.ones((4, 2)))], lr=0.01).load_state_dict(state)
        state["row_steps"] = {"5": [0, 0, 0, 0]}
        with pytest.raises(ValueError, match="indexes parameter"):
            Adam([Parameter(np.ones((4, 2)))], lr=0.01).load_state_dict(state)
