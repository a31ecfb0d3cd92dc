"""The registry of differentiable ops and the one hook that instruments them.

:func:`registered_ops` lists every op that builds tape nodes: the public
functions of :mod:`repro.autograd.functional` and the fused Tensor ops of
:mod:`repro.kernels.dispatch` (``TENSOR_OPS``).  Tools that watch the engine
(the numeric sanitizer, the op profiler) are :class:`Hook` objects:

- adding the first hook installs one wrapper per registered op and one on
  :meth:`~repro.autograd.optim.Optimizer.step`;
- each wrapper keeps the single op-depth counter (:func:`op_depth`) and runs
  the active hooks in the order they were added, the first outermost;
- removing the last hook, in whatever order the hooks leave, puts the
  original callables back, so an uninstrumented run calls the ops directly
  and pays nothing.
"""

from __future__ import annotations

import functools
import importlib
from types import ModuleType
from typing import Any, Callable, List, Tuple

from repro.autograd import functional
from repro.autograd.optim import Optimizer

__all__ = ["Hook", "registered_ops", "add_hook", "remove_hook", "active_hooks", "op_depth"]


class Hook:
    """One instrumentation layer over the registered ops and the optimizer.

    Override :meth:`op` and/or :meth:`step`; the defaults call straight
    through.  ``call`` runs the next hook inward, or the op itself.
    """

    def op(self, name: str, call: Callable, args: tuple, kwargs: dict) -> Any:
        """Run registered op ``name``; ``call(*args, **kwargs)`` performs it."""
        return call(*args, **kwargs)

    def step(self, optimizer: Optimizer, call: Callable[[], None]) -> None:
        """Run ``optimizer.step()``; ``call()`` performs it."""
        call()


def registered_ops() -> List[Tuple[ModuleType, str]]:
    """``(module, name)`` of every differentiable op, functional ops first."""
    # Imported here: dispatch builds on repro.autograd, so a top-level import
    # would be circular.
    dispatch = importlib.import_module("repro.kernels.dispatch")
    return [(functional, name) for name in functional.__all__] + [
        (dispatch, name) for name in dispatch.TENSOR_OPS
    ]


_hooks: Tuple[Hook, ...] = ()
# (owner, attribute, original) for every callable the wrappers replaced.
_originals: List[Tuple[Any, str, Callable]] = []
_depth = 0


def active_hooks() -> Tuple[Hook, ...]:
    """The installed hooks, outermost first."""
    return _hooks


def op_depth() -> int:
    """Registered-op calls running now, the current one included (0 outside)."""
    return _depth


def _run_op(hooks: Tuple[Hook, ...], name: str, fn: Callable, args: tuple, kwargs: dict) -> Any:
    if not hooks:
        return fn(*args, **kwargs)
    return hooks[0].op(name, lambda *a, **k: _run_op(hooks[1:], name, fn, a, k), args, kwargs)


def _run_step(hooks: Tuple[Hook, ...], optimizer: Optimizer, fn: Callable) -> None:
    if not hooks:
        fn(optimizer)
        return
    hooks[0].step(optimizer, lambda: _run_step(hooks[1:], optimizer, fn))


def _wrap_op(name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        global _depth
        _depth += 1
        try:
            return _run_op(_hooks, name, fn, args, kwargs)
        finally:
            _depth -= 1

    return wrapped


def _wrap_step(fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapped(self: Optimizer) -> None:
        _run_step(_hooks, self, fn)

    return wrapped


def _install() -> None:
    for module, name in registered_ops():
        fn = getattr(module, name)
        _originals.append((module, name, fn))
        setattr(module, name, _wrap_op(name, fn))
    _originals.append((Optimizer, "step", Optimizer.step))
    Optimizer.step = _wrap_step(Optimizer.step)  # type: ignore[method-assign]


def _uninstall() -> None:
    while _originals:
        owner, attr, fn = _originals.pop()
        setattr(owner, attr, fn)


def add_hook(hook: Hook) -> None:
    """Activate ``hook`` innermost of the active ones (no-op if active)."""
    global _hooks
    if hook in _hooks:
        return
    if not _hooks:
        _install()
    _hooks = _hooks + (hook,)


def remove_hook(hook: Hook) -> None:
    """Deactivate ``hook`` (no-op if inactive); the last one out uninstalls."""
    global _hooks
    if hook not in _hooks:
        return
    _hooks = tuple(h for h in _hooks if h is not hook)
    if not _hooks:
        _uninstall()
