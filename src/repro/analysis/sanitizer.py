"""Runtime numeric sanitizer for the autograd engine.

Static analysis (:mod:`repro.analysis.lint`) catches structural hazards; this
module catches the *numeric* ones that only exist at run time: NaN/Inf values
appearing mid-computation, gradients whose shape has drifted from their
parameter, and silent float64 upcasts leaking into the float32 evaluation
fast path.  When enabled it instruments the engine at four choke points —

- every public op in :mod:`repro.autograd.functional` and every fused Tensor
  op in :mod:`repro.kernels.dispatch` (outputs are checked for non-finite
  values and for a float32 input producing a float64 output);
- :class:`~repro.autograd.tensor.Tensor` construction (data checked unless
  the tensor is being built inside an instrumented op, which already names
  the op);
- :meth:`~repro.autograd.tensor.Tensor.accumulate_grad` (incoming gradients
  checked before they are folded into the buffer);
- :meth:`~repro.autograd.optim.Optimizer.step` (gradient/parameter shape
  agreement and finiteness before the update, parameter finiteness after).

Every violation raises :class:`SanitizerError` carrying the *innermost*
offending op name, so a NaN born in ``log`` is reported as ``log`` even when
it surfaces inside ``bpr_loss``.

Enable with the ``REPRO_SANITIZE=1`` environment variable (checked when
the :mod:`repro` package is first imported), the :func:`sanitized` context
manager, or explicit
:func:`enable`/:func:`disable` calls.  The instrumentation is installed by
patching module/class attributes and fully removed on :func:`disable`, so a
disabled sanitizer costs nothing.
"""

from __future__ import annotations

import contextlib
import functools
import os
from typing import Callable, Dict, Iterator, List, Optional

import numpy as np

from repro.autograd import functional as F
from repro.autograd import optim as _optim
from repro.autograd.sparse import SparseRowGrad
from repro.autograd.tensor import Tensor
from repro.kernels import dispatch as _dispatch

__all__ = [
    "ENV_VAR",
    "SanitizerError",
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


# ----------------------------------------------------------------- wrappers
# Depth of instrumented-op calls currently on the stack.  The Tensor.__init__
# hook stays quiet while an op is running: the op wrapper performs the same
# check on the finished output and, unlike the constructor, knows the op name.
_op_depth = 0


def _wrap_op(name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        global _op_depth
        _op_depth += 1
        try:
            out = fn(*args, **kwargs)
        finally:
            _op_depth -= 1
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

    wrapped.__sanitizer_wrapped__ = True
    return wrapped


def _sanitized_tensor_init(original: Callable) -> Callable:
    @functools.wraps(original)
    def wrapped(self, data, requires_grad=False, _parents=(), _backward=None, name=""):
        original(self, data, requires_grad, _parents, _backward, name)
        if _op_depth == 0:
            label = name or f"Tensor{self.data.shape}"
            _check_finite(self.data, label, "data")

    wrapped.__sanitizer_wrapped__ = True
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

    wrapped.__sanitizer_wrapped__ = True
    return wrapped


def _sanitized_step(original: Callable) -> Callable:
    @functools.wraps(original)
    def wrapped(self):
        for p in self.params:
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
        original(self)
        for p in self.params:
            if p.grad is not None:
                label = p.name or f"param{p.data.shape}"
                _check_finite(p.data, f"step[{label}]", "updated parameter")

    wrapped.__sanitizer_wrapped__ = True
    return wrapped


# ------------------------------------------------------------ install state
_installed = False
_saved_ops: Dict[str, Callable] = {}
_saved_dispatch_ops: Dict[str, Callable] = {}
_saved_tensor_init: Optional[Callable] = None
_saved_accumulate_grad: Optional[Callable] = None
_saved_step: Optional[Callable] = None


def is_enabled() -> bool:
    """Whether the sanitizer instrumentation is currently installed."""
    return _installed


def _already_wrapped(fn: Callable) -> bool:
    return bool(getattr(fn, "__sanitizer_wrapped__", False))


def enable() -> None:
    """Install the instrumentation (idempotent).

    Guarded twice: the module-level ``_installed`` flag short-circuits the
    common repeat call (``REPRO_SANITIZE=1`` install at import plus an
    explicit ``sanitized()`` block), and a per-function
    ``__sanitizer_wrapped__`` marker refuses to wrap an already-instrumented
    attribute even if the flag is ever out of sync with the patched engine
    (e.g. the sanitizer module imported under two names).  Without the
    second guard a double install would also poison ``disable()``: the
    "original" it saves on the second pass is the first pass's wrapper, so
    the engine could never be fully restored.
    """
    global _installed, _saved_tensor_init, _saved_accumulate_grad, _saved_step
    if _installed:
        return
    for name in F.__all__:
        fn = getattr(F, name)
        if _already_wrapped(fn):
            continue
        _saved_ops[name] = fn
        setattr(F, name, _wrap_op(name, fn))
    for name in _dispatch.TENSOR_OPS:
        fn = getattr(_dispatch, name)
        if _already_wrapped(fn):
            continue
        _saved_dispatch_ops[name] = fn
        setattr(_dispatch, name, _wrap_op(name, fn))
    if not _already_wrapped(Tensor.__init__):
        _saved_tensor_init = Tensor.__init__
        Tensor.__init__ = _sanitized_tensor_init(_saved_tensor_init)
    if not _already_wrapped(Tensor.accumulate_grad):
        _saved_accumulate_grad = Tensor.accumulate_grad
        Tensor.accumulate_grad = _sanitized_accumulate_grad(_saved_accumulate_grad)
    if not _already_wrapped(_optim.Optimizer.step):
        _saved_step = _optim.Optimizer.step
        _optim.Optimizer.step = _sanitized_step(_saved_step)
    _installed = True


def disable() -> None:
    """Remove the instrumentation, restoring the original engine (idempotent)."""
    global _installed, _saved_tensor_init, _saved_accumulate_grad, _saved_step
    if not _installed:
        return
    for name, fn in _saved_ops.items():
        setattr(F, name, fn)
    _saved_ops.clear()
    for name, fn in _saved_dispatch_ops.items():
        setattr(_dispatch, name, fn)
    _saved_dispatch_ops.clear()
    if _saved_tensor_init is not None:
        Tensor.__init__ = _saved_tensor_init
    if _saved_accumulate_grad is not None:
        Tensor.accumulate_grad = _saved_accumulate_grad
    if _saved_step is not None:
        _optim.Optimizer.step = _saved_step
    _saved_tensor_init = _saved_accumulate_grad = _saved_step = None
    _installed = False


@contextlib.contextmanager
def sanitized() -> Iterator[None]:
    """Context manager enabling the sanitizer for the enclosed block.

    Nesting-safe: if the sanitizer was already enabled on entry it stays
    enabled on exit.
    """
    was_enabled = _installed
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
