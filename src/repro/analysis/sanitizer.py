"""Runtime numeric sanitizer for the autograd engine.

Static analysis (:mod:`repro.analysis.lint`) catches structural hazards; this
module catches the *numeric* ones that only exist at run time: NaN/Inf values
appearing mid-computation, gradients whose shape has drifted from their
parameter, and silent float64 upcasts leaking into the float32 evaluation
fast path.  When enabled it instruments the engine at four choke points —

- every registered op (:func:`repro.autograd.ops.registered_ops`: the public
  ops of :mod:`repro.autograd.functional` and the fused Tensor ops of
  :mod:`repro.kernels.dispatch`), through the sanitizer's
  :class:`~repro.autograd.ops.Hook` (outputs are checked for non-finite
  values and for a float32 input producing a float64 output);
- :meth:`~repro.autograd.optim.Optimizer.step`, through the same hook
  (gradient/parameter shape agreement and finiteness before the update,
  parameter finiteness after);
- :class:`~repro.autograd.tensor.Tensor` construction (data checked unless
  the tensor is being built inside a registered op, which already names
  the op);
- :meth:`~repro.autograd.tensor.Tensor.accumulate_grad` (incoming gradients
  checked before they are folded into the buffer).  Only the sanitizer
  patches these two Tensor methods.

Every violation raises :class:`SanitizerError` carrying the *innermost*
offending op name, so a NaN born in ``log`` is reported as ``log`` even when
it surfaces inside ``bpr_loss``.

Enable with the ``REPRO_SANITIZE=1`` environment variable (checked when
the :mod:`repro` package is first imported), the :func:`sanitized` context
manager, or explicit :func:`enable`/:func:`disable` calls.  The op wrappers
belong to the registry and come off when its last hook is removed, in any
order against other hooks (a profile may outlive the sanitizer or the other
way round), so a disabled sanitizer costs nothing.
"""

from __future__ import annotations

import contextlib
import functools
import os
from typing import Callable, Iterator, List, Optional

import numpy as np

from repro.autograd.ops import Hook, active_hooks, add_hook, op_depth, remove_hook
from repro.autograd.sparse import SparseRowGrad
from repro.autograd.tensor import Tensor

__all__ = [
    "ENV_VAR",
    "SanitizerError",
    "HOOK",
    "enable",
    "disable",
    "is_enabled",
    "sanitized",
    "install_from_env",
]

ENV_VAR = "REPRO_SANITIZE"


class SanitizerError(RuntimeError):
    """A numeric invariant was violated during an instrumented operation.

    Attributes
    ----------
    op:
        Name of the innermost instrumented operation (e.g. ``"log"``,
        ``"step[fm.v]"``, ``"accumulate_grad[ckat.W0]"``).
    kind:
        One of ``"nan"``, ``"inf"``, ``"upcast"``, ``"shape"``.
    """

    def __init__(self, message: str, op: str, kind: str):
        super().__init__(message)
        self.op = op
        self.kind = kind


# ------------------------------------------------------------------- checks

def _check_finite(arr: np.ndarray, op: str, what: str) -> None:
    """Raise :class:`SanitizerError` if a float array holds NaN or Inf."""
    if not np.issubdtype(arr.dtype, np.floating):
        return
    if np.isfinite(arr).all():
        return
    kind = "nan" if np.isnan(arr).any() else "inf"
    raise SanitizerError(
        f"{kind.upper()} detected in {what} of '{op}'", op=op, kind=kind
    )


def _tensor_args(args, kwargs) -> List[Tensor]:
    """Collect Tensor operands from an op call (one level into sequences)."""
    found: List[Tensor] = []

    def visit(value) -> None:
        if isinstance(value, Tensor):
            found.append(value)
        elif isinstance(value, (list, tuple)):
            for item in value:
                if isinstance(item, Tensor):
                    found.append(item)

    for a in args:
        visit(a)
    for v in kwargs.values():
        visit(v)
    return found


# ------------------------------------------------------------------- hook
class _SanitizerHook(Hook):
    """Checks every registered op's output and every optimizer step."""

    def op(self, name, call, args, kwargs):
        out = call(*args, **kwargs)
        if isinstance(out, Tensor):
            _check_finite(out.data, name, "output")
            ins = _tensor_args(args, kwargs)
            if out.data.dtype == np.float64 and any(t.data.dtype == np.float32 for t in ins):
                raise SanitizerError(
                    f"silent float64 upcast in '{name}': a tensor input is "
                    "float32 but the output is float64",
                    op=name,
                    kind="upcast",
                )
        return out

    def step(self, optimizer, call):
        for p in optimizer.params:
            if p.grad is None:
                continue
            label = p.name or f"param{p.data.shape}"
            if p.grad.shape != p.data.shape:
                raise SanitizerError(
                    f"gradient shape {p.grad.shape} does not match parameter "
                    f"shape {p.data.shape} in 'step[{label}]'",
                    op=f"step[{label}]",
                    kind="shape",
                )
            garr = p.grad.values if isinstance(p.grad, SparseRowGrad) else p.grad
            _check_finite(garr, f"step[{label}]", "gradient")
        call()
        for p in optimizer.params:
            if p.grad is not None:
                label = p.name or f"param{p.data.shape}"
                _check_finite(p.data, f"step[{label}]", "updated parameter")


#: The sanitizer's :class:`~repro.autograd.ops.Hook`; :func:`enable` adds it.
HOOK = _SanitizerHook()


def _sanitized_tensor_init(original: Callable) -> Callable:
    @functools.wraps(original)
    def wrapped(self, data, requires_grad=False, _parents=(), _backward=None, name=""):
        original(self, data, requires_grad, _parents, _backward, name)
        # Quiet inside a registered op: the hook checks the finished output
        # and, unlike the constructor, knows the op's name.
        if op_depth() == 0:
            label = name or f"Tensor{self.data.shape}"
            _check_finite(self.data, label, "data")

    return wrapped


def _sanitized_accumulate_grad(original: Callable) -> Callable:
    @functools.wraps(original)
    def wrapped(self, grad, owned=False):
        label = self.name or f"tensor{self.data.shape}"
        if isinstance(grad, SparseRowGrad):
            # Check the stored row values directly — np.asarray would
            # densify, defeating the sparse path's whole point.
            _check_finite(grad.values, f"accumulate_grad[{label}]", "sparse gradient")
        else:
            _check_finite(np.asarray(grad), f"accumulate_grad[{label}]", "gradient")
        original(self, grad, owned)

    return wrapped


# ------------------------------------------------------------ install state
# The Tensor methods only the sanitizer patches, saved while it is enabled.
_saved_tensor_init: Optional[Callable] = None
_saved_accumulate_grad: Optional[Callable] = None


def is_enabled() -> bool:
    """Whether the sanitizer instrumentation is currently installed."""
    return HOOK in active_hooks()


def enable() -> None:
    """Install the instrumentation (idempotent)."""
    global _saved_tensor_init, _saved_accumulate_grad
    if is_enabled():
        return
    _saved_tensor_init = Tensor.__init__
    _saved_accumulate_grad = Tensor.accumulate_grad
    Tensor.__init__ = _sanitized_tensor_init(_saved_tensor_init)
    Tensor.accumulate_grad = _sanitized_accumulate_grad(_saved_accumulate_grad)
    add_hook(HOOK)


def disable() -> None:
    """Remove the instrumentation, restoring the original engine (idempotent)."""
    global _saved_tensor_init, _saved_accumulate_grad
    if not is_enabled():
        return
    remove_hook(HOOK)
    Tensor.__init__ = _saved_tensor_init
    Tensor.accumulate_grad = _saved_accumulate_grad
    _saved_tensor_init = _saved_accumulate_grad = None


@contextlib.contextmanager
def sanitized() -> Iterator[None]:
    """Context manager enabling the sanitizer for the enclosed block.

    Nesting-safe: if the sanitizer was already enabled on entry it stays
    enabled on exit.
    """
    was_enabled = is_enabled()
    enable()
    try:
        yield
    finally:
        if not was_enabled:
            disable()


def install_from_env(environ=None) -> bool:
    """Enable the sanitizer when ``REPRO_SANITIZE`` is set to a truthy value.

    Called once when the :mod:`repro` package is first imported (by any
    ``import repro.…``), and only if the variable is set and non-empty, so
    an unset variable never imports this module; returns whether it
    enabled.  This is the only place that parses the value.  Recognized
    falsy values: unset, empty, ``0``, ``false``, ``no``, ``off``
    (case-insensitive).
    """
    env = os.environ if environ is None else environ
    value = env.get(ENV_VAR, "").strip().lower()
    if value in ("", "0", "false", "no", "off"):
        return False
    enable()
    return True
