"""Runtime numeric sanitizer tests: NaN/Inf injection names the originating
op, shape drift is caught at the optimizer step, float64 upcasts on float32
inputs are reported, enable/disable fully restores the engine, and CKAT's
float32 training runs clean under it in both attention modes."""

import numpy as np
import pytest

from repro.analysis.profiler import profiled
from repro.analysis.sanitizer import (
    HOOK,
    SanitizerError,
    disable,
    enable,
    install_from_env,
    is_enabled,
    sanitized,
)
from repro.autograd import Adam, Parameter, SparseRowGrad, Tensor
from repro.autograd import functional as F
from repro.autograd.ops import active_hooks, registered_ops
from repro.autograd.optim import Optimizer
from repro.models import CKAT, CKATConfig, FitConfig


def _engine():
    """Every callable the instrumentation may replace, by identity."""
    ops = {f"{m.__name__}.{n}": getattr(m, n) for m, n in registered_ops()}
    ops["Optimizer.step"] = Optimizer.step
    ops["Tensor.__init__"] = Tensor.__init__
    ops["Tensor.accumulate_grad"] = Tensor.accumulate_grad
    return ops


def _assert_engine_is(expected):
    for name, fn in _engine().items():
        assert fn is expected[name], f"{name} not restored"


@pytest.fixture(autouse=True)
def _sanitizer_off_after():
    yield
    disable()


# ------------------------------------------------------------- NaN injection
def test_nan_from_op_names_the_op():
    with sanitized():
        t = Tensor(np.array([0.0, 1.0]), requires_grad=True)
        with pytest.raises(SanitizerError) as exc_info:
            with np.errstate(divide="ignore"):
                F.mean(F.log(t))
    err = exc_info.value
    assert err.op == "log"  # innermost op, not the enclosing mean
    assert err.kind == "inf"
    assert "log" in str(err)


def test_nan_named_through_composite_loss():
    with sanitized():
        # exp(large) overflows to inf inside 'exp'; bpr_loss never runs.
        big = Tensor(np.array([1e6]))
        with pytest.raises(SanitizerError) as exc_info:
            with np.errstate(over="ignore"):
                F.bpr_loss(F.exp(big), Tensor(np.array([0.0])))
    assert exc_info.value.op == "exp"


def test_tensor_construction_checked():
    with sanitized():
        with pytest.raises(SanitizerError) as exc_info:
            Tensor(np.array([1.0, np.nan]))
    assert exc_info.value.kind == "nan"


def test_accumulate_grad_checked_and_labeled():
    with sanitized():
        p = Parameter(np.ones(3), name="emb.W")
        with pytest.raises(SanitizerError) as exc_info:
            p.accumulate_grad(np.array([1.0, np.nan, 2.0]))
    assert exc_info.value.op == "accumulate_grad[emb.W]"
    assert exc_info.value.kind == "nan"


# ------------------------------------------------------------ optimizer step
def test_step_rejects_shape_mismatch():
    with sanitized():
        p = Parameter(np.ones(3), name="w")
        p.grad = np.ones(2)
        opt = Adam([p])
        with pytest.raises(SanitizerError) as exc_info:
            opt.step()
    assert exc_info.value.kind == "shape"
    assert "step[w]" == exc_info.value.op


def test_step_rejects_nonfinite_gradient():
    with sanitized():
        p = Parameter(np.ones(3), name="w")
        p.grad = np.array([1.0, np.inf, 0.0])
        opt = Adam([p])
        with pytest.raises(SanitizerError) as exc_info:
            opt.step()
    assert exc_info.value.kind == "inf"
    assert exc_info.value.op == "step[w]"


# ------------------------------------------------------------- sparse grads
def test_accumulate_grad_checks_sparse_values():
    with sanitized():
        p = Parameter(np.ones((4, 2)), name="emb.W")
        bad = SparseRowGrad((4, 2), np.array([0, 2]), np.array([[1.0, np.nan], [0.0, 1.0]]))
        with pytest.raises(SanitizerError) as exc_info:
            p.accumulate_grad(bad)
    assert exc_info.value.op == "accumulate_grad[emb.W]"
    assert exc_info.value.kind == "nan"


def test_step_rejects_nonfinite_sparse_gradient():
    with sanitized():
        p = Parameter(np.ones((4, 2)), name="w")
        p.grad = SparseRowGrad((4, 2), np.array([1]), np.array([[np.inf, 0.0]]))
        opt = Adam([p])
        with pytest.raises(SanitizerError) as exc_info:
            opt.step()
    assert exc_info.value.kind == "inf"
    assert exc_info.value.op == "step[w]"


def test_step_rejects_sparse_shape_drift():
    with sanitized():
        p = Parameter(np.ones((4, 2)), name="w")
        p.grad = SparseRowGrad((5, 2), np.array([0]), np.array([[1.0, 1.0]]))
        opt = Adam([p])
        with pytest.raises(SanitizerError) as exc_info:
            opt.step()
    assert exc_info.value.kind == "shape"
    assert exc_info.value.op == "step[w]"


def test_sparse_embedding_training_clean_under_sanitizer():
    rng = np.random.default_rng(1)
    with sanitized():
        W = Parameter(rng.normal(size=(16, 4)), name="W")
        opt = Adam([W], lr=0.01)
        for _ in range(5):
            opt.zero_grad()
            idx = rng.integers(0, 16, size=8)
            loss = F.sum(F.mul(F.take_rows(W, idx), F.take_rows(W, idx)))
            loss.backward()
            assert isinstance(W.grad, SparseRowGrad)
            opt.step()
    assert np.isfinite(W.data).all()


# -------------------------------------------------------------- dtype upcast
def test_float64_upcast_on_float32_inputs_flagged():
    def upcasting_op(a):
        return Tensor(a.data.astype(np.float64))

    with pytest.raises(SanitizerError) as exc_info:
        HOOK.op("upcasting_op", upcasting_op, (Tensor(np.ones(3, dtype=np.float32)),), {})
    assert exc_info.value.kind == "upcast"
    assert exc_info.value.op == "upcasting_op"


def test_float64_constant_upcasting_float32_operand_flagged():
    """A float32 operand meeting a float64 constant is an upcast too."""
    x32 = Tensor(np.ones(3, dtype=np.float32))
    with sanitized(), pytest.raises(SanitizerError) as exc_info:
        F.mul(x32, F.astensor(0.5))
    assert exc_info.value.kind == "upcast"
    assert exc_info.value.op == "mul"


def test_float32_preserving_ops_clean():
    with sanitized():
        a = Tensor(np.ones(3, dtype=np.float32))
        b = Tensor(np.ones(3, dtype=np.float32))
        out = F.add(a, b)
    assert out.dtype == np.float32


# ------------------------------------------------------- install / uninstall
def test_disable_restores_engine_exactly():
    original_add = F.add
    original_init = Tensor.__init__
    enable()
    assert F.add is not original_add
    disable()
    assert F.add is original_add
    assert Tensor.__init__ is original_init
    # Disabled: non-finite tensors are allowed again.
    Tensor(np.array([np.nan]))


def test_double_install_never_double_wraps():
    """A second install (env install + explicit enable) must not stack
    wrappers — one disable must restore the pristine engine."""
    original = _engine()
    enable()
    wrapped = _engine()
    enable()  # second install: no-op
    assert _engine() == wrapped
    assert all(wrapped[name] is not fn for name, fn in original.items())
    assert active_hooks() == (HOOK,)
    disable()
    _assert_engine_is(original)
    assert active_hooks() == ()


def test_nested_enable_disable_restores_exactly():
    original = _engine()
    with sanitized():
        with sanitized():
            assert is_enabled()
        assert is_enabled()
    _assert_engine_is(original)


def test_disable_inside_a_profile_keeps_profiling_and_restores_engine():
    """The sanitizer leaving before a profile must neither blind the profile
    nor stay installed after it."""
    original = _engine()
    enable()
    with profiled() as report:
        disable()
        F.log(Tensor(np.array([2.0])))
    assert report.stats["log"].calls == 1
    _assert_engine_is(original)
    with np.errstate(invalid="ignore"):
        F.log(Tensor(np.array([-1.0])))  # NaN allowed again: no sanitizer


def test_profile_ending_inside_sanitizer_keeps_sanitizing():
    original = _engine()
    with profiled():
        enable()
    assert is_enabled()
    with pytest.raises(SanitizerError):
        with np.errstate(invalid="ignore"):
            F.log(Tensor(np.array([-1.0])))
    disable()
    _assert_engine_is(original)


def test_sanitized_context_is_nesting_safe():
    enable()
    with sanitized():
        assert is_enabled()
    assert is_enabled()  # outer enable survives the context exit
    disable()
    assert not is_enabled()


def test_install_from_env():
    assert install_from_env({"REPRO_SANITIZE": "1"}) is True
    assert is_enabled()
    disable()
    for off in ({}, {"REPRO_SANITIZE": "0"}, {"REPRO_SANITIZE": "false"}):
        assert install_from_env(off) is False
        assert not is_enabled()


# ------------------------------------------------------------ training smoke
def test_training_loop_runs_clean_under_sanitizer():
    rng = np.random.default_rng(0)
    with sanitized():
        W = Parameter(rng.normal(size=(8, 4)), name="W")
        opt = Adam([W], lr=0.01)
        losses = []
        for _ in range(10):
            opt.zero_grad()
            pos = F.take_rows(W, np.array([0, 1, 2]))
            neg = F.take_rows(W, np.array([3, 4, 5]))
            loss = F.bpr_loss(F.sum(pos, axis=1), F.sum(neg, axis=1))
            loss.backward()
            opt.step()
            losses.append(float(loss.item()))
    assert losses[-1] < losses[0]  # optimized, with no sanitizer trips
    assert np.isfinite(W.data).all()


@pytest.mark.parametrize("attention_mode", ["epoch", "batch"])
def test_ckat_epoch_runs_clean_under_sanitizer(ooi_split, ooi_ckg_best, attention_mode):
    """CKAT's float32 parameters through every fused op, the BPR and the
    TransR phase: one epoch trips no upcast, NaN/Inf or shape check.  A
    float64 constant multiplied into the propagated table in
    ``CKAT.propagate`` trips the upcast check here, in both modes."""
    model = CKAT(
        ooi_split.train.num_users,
        ooi_split.train.num_items,
        ooi_ckg_best,
        CKATConfig(attention_mode=attention_mode),
        seed=0,
    )
    with sanitized():
        model.fit(ooi_split.train, FitConfig(epochs=1, seed=0))
    assert {p.data.dtype for p in model.parameters()} == {np.dtype(np.float32)}
