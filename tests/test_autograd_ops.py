"""The op registry and its hook: one install point for every instrumentation.

With no hook active the engine is the original function objects; hooks run
outermost first around one shared op-depth counter, and the last hook out,
whatever the order, restores the engine exactly.
"""

import numpy as np
import pytest

from repro.autograd import Adam, Parameter, Tensor
from repro.autograd import functional as F
from repro.autograd.ops import Hook, active_hooks, add_hook, op_depth, registered_ops, remove_hook
from repro.autograd.optim import Optimizer
from repro.kernels import dispatch


class _Recorder(Hook):
    def __init__(self, label, events):
        self.label, self.events = label, events

    def op(self, name, call, args, kwargs):
        self.events.append((self.label, name, op_depth()))
        return call(*args, **kwargs)

    def step(self, optimizer, call):
        self.events.append((self.label, "step"))
        call()


def _engine():
    ops = {(m.__name__, n): getattr(m, n) for m, n in registered_ops()}
    ops[("optim", "step")] = Optimizer.step
    return ops


@pytest.fixture(autouse=True)
def _no_hooks_left():
    yield
    for hook in active_hooks():
        remove_hook(hook)


def test_registry_lists_functional_and_fused_ops():
    names = [(m.__name__, n) for m, n in registered_ops()]
    assert names == [("repro.autograd.functional", n) for n in F.__all__] + [
        ("repro.kernels.dispatch", n) for n in dispatch.TENSOR_OPS
    ]


def test_uninstrumented_engine_is_the_original_functions():
    """No hook active: every op and Optimizer.step is the function as defined,
    so an uninstrumented run pays nothing."""
    assert active_hooks() == ()
    assert op_depth() == 0
    for module, name in registered_ops():
        fn = getattr(module, name)
        assert not hasattr(fn, "__wrapped__"), name
        assert (fn.__module__, fn.__name__) == (module.__name__, name)
    assert not hasattr(Optimizer.step, "__wrapped__")
    assert Optimizer.step.__qualname__ == "Optimizer.step"


def test_hooks_run_outermost_first_around_one_depth_counter():
    events = []
    outer, inner = _Recorder("outer", events), _Recorder("inner", events)
    add_hook(outer)
    add_hook(inner)
    add_hook(outer)  # already active: no-op
    assert active_hooks() == (outer, inner)
    F.bpr_loss(Tensor(np.array([1.0])), Tensor(np.array([0.0])))
    assert events[:4] == [
        ("outer", "bpr_loss", 1),
        ("inner", "bpr_loss", 1),
        ("outer", "sub", 2),
        ("inner", "sub", 2),
    ]
    assert op_depth() == 0
    events.clear()
    p = Parameter(np.ones(2))
    p.grad = np.ones(2)
    Adam([p]).step()
    assert events == [("outer", "step"), ("inner", "step")]


@pytest.mark.parametrize("first_out", [0, 1])
def test_last_hook_out_restores_engine_in_any_order(first_out):
    original = _engine()
    hooks = [Hook(), Hook()]
    for hook in hooks:
        add_hook(hook)
    wrapped = _engine()
    assert all(wrapped[key] is not fn for key, fn in original.items())
    remove_hook(hooks[first_out])
    assert _engine() == wrapped
    remove_hook(hooks[first_out])  # already gone: no-op
    assert _engine() == wrapped
    remove_hook(hooks[1 - first_out])
    for key, fn in _engine().items():
        assert fn is original[key], key
