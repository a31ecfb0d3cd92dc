"""Tests for the core Tensor / tape machinery."""

import numpy as np
import pytest

from repro.autograd import Parameter, Tensor, functional as F, is_grad_enabled, no_grad
from repro.autograd.tensor import astensor, collect_parameters, unbroadcast


class TestTensorBasics:
    def test_construction_from_list(self):
        t = Tensor([1.0, 2.0, 3.0])
        assert t.shape == (3,)
        assert not t.requires_grad

    def test_construction_from_array(self):
        a = np.arange(6.0).reshape(2, 3)
        t = Tensor(a)
        assert t.shape == (2, 3)
        assert t.ndim == 2
        assert t.size == 6

    def test_object_array_rejected(self):
        with pytest.raises(TypeError):
            Tensor(np.array([object()]))

    def test_numpy_returns_underlying(self):
        a = np.ones(3)
        t = Tensor(a)
        assert t.numpy() is a

    def test_item_scalar(self):
        assert Tensor(np.array(2.5)).item() == 2.5

    def test_item_single_element(self):
        assert Tensor(np.array([3.0])).item() == 3.0

    def test_len(self):
        assert len(Tensor(np.zeros((4, 2)))) == 4

    def test_repr_mentions_shape(self):
        assert "shape=(2,)" in repr(Tensor(np.zeros(2)))

    def test_repr_mentions_grad(self):
        assert "requires_grad=True" in repr(Parameter(np.zeros(2)))

    def test_detach_cuts_tape(self):
        p = Parameter(np.ones(3))
        d = p.detach()
        assert not d.requires_grad
        assert d.data is p.data

    def test_dtype_property(self):
        assert Tensor(np.zeros(2, dtype=np.float64)).dtype == np.float64

    def test_T_transposes(self):
        p = Parameter(np.arange(6.0).reshape(2, 3))
        assert p.T.shape == (3, 2)


class TestBackward:
    def test_scalar_backward_default_grad(self):
        p = Parameter(np.array([2.0]))
        loss = F.sum(F.mul(p, p))
        loss.backward()
        np.testing.assert_allclose(p.grad, [4.0])

    def test_backward_requires_grad(self):
        t = Tensor(np.ones(2))
        with pytest.raises(RuntimeError):
            t.backward()

    def test_nonscalar_backward_needs_grad(self):
        p = Parameter(np.ones(3))
        out = F.mul(p, astensor(2.0))
        with pytest.raises(RuntimeError):
            out.backward()

    def test_nonscalar_backward_with_grad(self):
        p = Parameter(np.ones(3))
        out = F.mul(p, astensor(2.0))
        out.backward(np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(p.grad, [2.0, 4.0, 6.0])

    def test_gradient_accumulates_across_backwards(self):
        p = Parameter(np.array([1.0]))
        F.sum(p).backward()
        F.sum(p).backward()
        np.testing.assert_allclose(p.grad, [2.0])

    def test_zero_grad(self):
        p = Parameter(np.array([1.0]))
        F.sum(p).backward()
        p.zero_grad()
        assert p.grad is None

    def test_diamond_graph_accumulates_once_per_path(self):
        # loss = (p + p) · 1 → dloss/dp = 2 per element.
        p = Parameter(np.ones(3))
        loss = F.sum(F.add(p, p))
        loss.backward()
        np.testing.assert_allclose(p.grad, [2.0, 2.0, 2.0])

    def test_shared_subexpression(self):
        p = Parameter(np.array([3.0]))
        q = F.mul(p, p)  # p²
        loss = F.sum(F.add(q, q))  # 2p² → grad 4p = 12
        loss.backward()
        np.testing.assert_allclose(p.grad, [12.0])

    def test_add_alias_safety(self):
        # `add` forwards the same grad array to both parents; ensure the two
        # parents' grad buffers are independent afterwards.
        a = Parameter(np.zeros(3))
        b = Parameter(np.zeros(3))
        F.sum(F.add(a, b)).backward()
        a.grad += 100.0
        np.testing.assert_allclose(b.grad, np.ones(3))

    def test_deep_chain(self):
        p = Parameter(np.array([1.0]))
        x = p
        for _ in range(200):
            x = F.add(x, astensor(0.0))
        F.sum(x).backward()
        np.testing.assert_allclose(p.grad, [1.0])

    def test_backward_frees_tape(self):
        p = Parameter(np.ones(2))
        out = F.mul(p, p)
        loss = F.sum(out)
        loss.backward()
        assert out._backward is None
        assert out._parents == ()


class TestNoGrad:
    def test_no_grad_disables_tape(self):
        p = Parameter(np.ones(2))
        with no_grad():
            out = F.mul(p, p)
        assert not out.requires_grad

    def test_no_grad_restores(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_no_grad_restores_on_exception(self):
        with pytest.raises(ValueError):
            with no_grad():
                raise ValueError("boom")
        assert is_grad_enabled()

    def test_nested_no_grad(self):
        with no_grad():
            with no_grad():
                assert not is_grad_enabled()
            assert not is_grad_enabled()


class TestUnbroadcast:
    def test_identity_when_shapes_match(self):
        g = np.ones((2, 3))
        assert unbroadcast(g, (2, 3)) is g

    def test_sums_leading_axes(self):
        g = np.ones((4, 2, 3))
        out = unbroadcast(g, (2, 3))
        np.testing.assert_allclose(out, np.full((2, 3), 4.0))

    def test_sums_expanded_axes(self):
        g = np.ones((2, 3))
        out = unbroadcast(g, (2, 1))
        np.testing.assert_allclose(out, np.full((2, 1), 3.0))

    def test_scalar_target(self):
        g = np.ones((2, 3))
        out = unbroadcast(g, ())
        assert out.shape == ()
        assert out == 6.0


class TestOperators:
    def test_add_operator(self):
        out = Tensor(np.ones(2)) + Tensor(np.ones(2))
        np.testing.assert_allclose(out.data, [2.0, 2.0])

    def test_radd_scalar(self):
        out = 1.0 + Tensor(np.ones(2))
        np.testing.assert_allclose(out.data, [2.0, 2.0])

    def test_sub_operator(self):
        out = Tensor(np.ones(2)) - 0.5
        np.testing.assert_allclose(out.data, [0.5, 0.5])

    def test_rsub(self):
        out = 1.0 - Tensor(np.ones(2))
        np.testing.assert_allclose(out.data, [0.0, 0.0])

    def test_mul_operator(self):
        out = Tensor(np.full(2, 3.0)) * 2.0
        np.testing.assert_allclose(out.data, [6.0, 6.0])

    def test_div_operator(self):
        out = Tensor(np.full(2, 3.0)) / 2.0
        np.testing.assert_allclose(out.data, [1.5, 1.5])

    def test_rdiv(self):
        out = 6.0 / Tensor(np.full(2, 3.0))
        np.testing.assert_allclose(out.data, [2.0, 2.0])

    def test_neg_operator(self):
        out = -Tensor(np.ones(2))
        np.testing.assert_allclose(out.data, [-1.0, -1.0])

    def test_pow_operator(self):
        out = Tensor(np.full(2, 3.0)) ** 2
        np.testing.assert_allclose(out.data, [9.0, 9.0])

    def test_matmul_operator(self):
        a = Tensor(np.eye(2))
        b = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_allclose((a @ b).data, b.data)

    def test_sum_method(self):
        t = Tensor(np.arange(6.0).reshape(2, 3))
        assert t.sum().item() == 15.0

    def test_mean_method(self):
        t = Tensor(np.arange(6.0).reshape(2, 3))
        assert t.mean().item() == 2.5

    def test_reshape_method(self):
        t = Tensor(np.arange(6.0))
        assert t.reshape(2, 3).shape == (2, 3)
        assert t.reshape((3, 2)).shape == (3, 2)


class TestCollectParameters:
    def test_collects_from_object(self):
        class Model:
            def __init__(self):
                self.a = Parameter(np.zeros(2))
                self.b = Parameter(np.zeros(3))
                self.other = "not a parameter"

        params = collect_parameters(Model())
        assert len(params) == 2

    def test_collects_from_nested_lists_and_dicts(self):
        class Model:
            def __init__(self):
                self.layers = [{"w": Parameter(np.zeros(1))}, {"w": Parameter(np.zeros(1))}]

        assert len(collect_parameters(Model())) == 2

    def test_plain_tensor_not_collected(self):
        class Model:
            def __init__(self):
                self.t = Tensor(np.zeros(2))

        assert collect_parameters(Model()) == []

    def test_cycle_safe(self):
        class Node:
            pass

        a, b = Node(), Node()
        a.peer, b.peer = b, a
        a.p = Parameter(np.zeros(1))
        assert len(collect_parameters(a)) == 1


class TestParameter:
    def test_requires_grad_even_under_no_grad(self):
        with no_grad():
            p = Parameter(np.zeros(2))
        assert p.requires_grad

    def test_float64_coercion(self):
        """Non-float input becomes float64; float32 and float64 are kept."""
        assert Parameter(np.zeros(2, dtype=np.int64)).dtype == np.float64
        assert Parameter([1, 2]).dtype == np.float64
        assert Parameter(np.zeros(2, dtype=np.float16)).dtype == np.float64
        assert Parameter(np.zeros(2, dtype=np.float32)).dtype == np.float32
        assert Parameter(np.zeros(2, dtype=np.float64)).dtype == np.float64
