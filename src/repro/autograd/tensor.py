"""Core tensor type and tape machinery for the reverse-mode autodiff engine.

The design follows the classic define-by-run pattern: every differentiable
operation returns a new :class:`Tensor` holding references to its parents and
a closure that, given the output gradient, accumulates gradients into the
parents.  Calling :meth:`Tensor.backward` on a scalar loss walks the tape in
reverse topological order.

Broadcasting is handled once, centrally, by :func:`unbroadcast`: a gradient
flowing into an operand that was broadcast during the forward pass is summed
over the broadcast axes so that ``grad.shape == operand.shape`` always holds.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.autograd.sparse import SparseRowGrad

ArrayLike = Union[np.ndarray, float, int, "Tensor"]
GradLike = Union[np.ndarray, SparseRowGrad]

_GRAD_ENABLED = True


def is_grad_enabled() -> bool:
    """Return whether operations currently record onto the autodiff tape."""
    return _GRAD_ENABLED


@contextlib.contextmanager
def no_grad():
    """Context manager disabling tape recording (e.g. during evaluation).

    Inside the block every op behaves like plain NumPy: outputs have
    ``requires_grad=False`` and no backward closures are created, which keeps
    full-ranking evaluation allocation-free of tape nodes.
    """
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` over axes that were introduced or expanded by broadcasting.

    Parameters
    ----------
    grad:
        Gradient with the broadcasted (output) shape.
    shape:
        The original operand shape the gradient must be reduced back to.
    """
    if grad.shape == shape:
        return grad
    # Remove leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size 1 in the operand but expanded in the output.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _as_array(value: ArrayLike, dtype=None) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    arr = np.asarray(value, dtype=dtype)
    if arr.dtype == object:
        raise TypeError(f"cannot build tensor from object array: {value!r}")
    return arr


def float_dtype(dtype) -> np.dtype:
    """The dtype values of ``dtype`` compute in: float32 and float64 are
    kept, anything else (ints, bools, float16) becomes float64."""
    dtype = np.dtype(dtype)
    return dtype if dtype in (np.float32, np.float64) else np.dtype(np.float64)


def astensor(value: ArrayLike, like: Optional["Tensor"] = None) -> "Tensor":
    """Coerce ``value`` to a :class:`Tensor` (constants get requires_grad=False).

    A constant takes the float dtype of ``like``, the tensor whose graph it
    joins (float64 without one): a Python-float margin or scale must not
    upcast a float32 graph.
    """
    if isinstance(value, Tensor):
        return value
    dtype = float_dtype(like.data.dtype) if like is not None else np.float64
    return Tensor(_as_array(value, dtype=dtype), requires_grad=False)


class Tensor:
    """An ndarray wrapper participating in reverse-mode autodiff.

    Attributes
    ----------
    data:
        The underlying :class:`numpy.ndarray` value.
    grad:
        Accumulated gradient after ``backward`` — a dense array of
        ``data.shape``, or a :class:`~repro.autograd.sparse.SparseRowGrad`
        when every contribution came through an embedding gather; ``None``
        until gradients flow.
    requires_grad:
        Whether gradients should be computed for this tensor.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _parents: Sequence["Tensor"] = (),
        _backward: Optional[Callable[[np.ndarray], None]] = None,
        name: str = "",
    ):
        self.data = _as_array(data)
        self.grad: Optional[GradLike] = None
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self._parents: Tuple["Tensor", ...] = tuple(_parents) if self.requires_grad else ()
        self._backward = _backward if self.requires_grad else None
        self.name = name

    # ------------------------------------------------------------------ meta
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        label = f", name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}{grad_flag}{label})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (a view, not a copy)."""
        return self.data

    def item(self) -> float:
        """Return the value of a 0-d / single-element tensor as a Python float."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but cut off from the tape."""
        return Tensor(self.data, requires_grad=False)

    # ------------------------------------------------------------- gradients
    def zero_grad(self) -> None:
        """Reset the accumulated gradient to ``None``."""
        self.grad = None

    def accumulate_grad(self, grad: GradLike, owned: bool = False) -> None:
        """Add ``grad`` into this tensor's gradient buffer (allocating lazily).

        ``owned=True`` asserts the caller hands over a freshly-allocated
        array that no other tensor will see — it is then stored without a
        defensive copy (later accumulations mutate it in place).  Backward
        closures that compute a new temporary (e.g. ``grad * x``) pass
        ``owned=True``; closures that forward a shared array (e.g. ``add``
        passing the same grad to both parents) use the safe default.

        ``grad`` may be a :class:`~repro.autograd.sparse.SparseRowGrad`
        (emitted by ``take_rows``/``embedding`` backward for leaf tensors):
        sparse + sparse merges row lists, sparse arriving on a dense buffer
        scatter-adds into it, and a dense grad arriving on a sparse buffer
        densifies the buffer first.  Sparse grads are never broadcast — their
        shape must match the tensor exactly.  Either kind is stored in the
        tensor's dtype.
        """
        if isinstance(grad, SparseRowGrad):
            if grad.shape != self.data.shape:
                raise ValueError(
                    f"sparse grad shape {grad.shape} does not match tensor "
                    f"shape {self.data.shape}"
                )
            if grad.values.dtype != self.data.dtype:
                grad = SparseRowGrad(
                    grad.shape, grad.indices, grad.values.astype(self.data.dtype),
                    coalesced=grad.coalesced,
                )
            if self.grad is None:
                self.grad = grad
            elif isinstance(self.grad, SparseRowGrad):
                self.grad.merge_(grad)
            else:
                grad.add_to_dense(self.grad)
            return
        if isinstance(self.grad, SparseRowGrad):
            self.grad = self.grad.to_dense()
        shaped = unbroadcast(np.asarray(grad), self.data.shape)
        if shaped is not grad:
            owned = True  # unbroadcast allocated a reduction
        if self.grad is None:
            if (
                not owned
                or shaped.dtype != self.data.dtype
                or not shaped.flags.owndata
                or not shaped.flags.writeable
            ):
                shaped = shaped.astype(self.data.dtype, copy=True)
            self.grad = shaped
        else:
            self.grad += shaped

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor through the recorded tape.

        Parameters
        ----------
        grad:
            Output gradient.  Defaults to 1 for scalar tensors; required for
            non-scalar roots.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar backward()")
            grad = np.ones_like(self.data)
        self.accumulate_grad(np.asarray(grad, dtype=self.data.dtype))

        topo: List[Tensor] = []
        visited = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                g = node.grad
                if isinstance(g, SparseRowGrad):
                    # Backward closures expect ndarrays; sparse grads only
                    # reach non-leaf nodes through unusual graphs (e.g. a
                    # gather whose source is itself an op output).
                    g = g.to_dense()
                node._backward(g)
                # Free intermediate gradients/tape references eagerly; keep
                # leaf grads (parameters) for the optimizer.
                if node._parents:
                    node.grad = None
            node._backward = None
            node._parents = ()

    # ------------------------------------------------------------ operators
    # The actual op implementations live in repro.autograd.functional; the
    # dunder methods below delegate so users can write natural expressions.
    def __add__(self, other: ArrayLike) -> "Tensor":
        from repro.autograd import functional as F

        return F.add(self, astensor(other, self))

    __radd__ = __add__

    def __sub__(self, other: ArrayLike) -> "Tensor":
        from repro.autograd import functional as F

        return F.sub(self, astensor(other, self))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        from repro.autograd import functional as F

        return F.sub(astensor(other, self), self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        from repro.autograd import functional as F

        return F.mul(self, astensor(other, self))

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        from repro.autograd import functional as F

        return F.div(self, astensor(other, self))

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        from repro.autograd import functional as F

        return F.div(astensor(other, self), self)

    def __neg__(self) -> "Tensor":
        from repro.autograd import functional as F

        return F.neg(self)

    def __pow__(self, exponent: float) -> "Tensor":
        from repro.autograd import functional as F

        return F.power(self, exponent)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        from repro.autograd import functional as F

        return F.matmul(self, astensor(other, self))

    # ------------------------------------------------------------- reducers
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        from repro.autograd import functional as F

        return F.sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        from repro.autograd import functional as F

        return F.mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape) -> "Tensor":
        from repro.autograd import functional as F

        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return F.reshape(self, shape)

    def transpose(self, axes: Optional[Sequence[int]] = None) -> "Tensor":
        from repro.autograd import functional as F

        return F.transpose(self, axes)

    @property
    def T(self) -> "Tensor":
        return self.transpose()


class Parameter(Tensor):
    """A :class:`Tensor` that is a trainable model parameter.

    Identical to ``Tensor(data, requires_grad=True)`` but the distinct type
    lets models and optimizers collect parameters generically.  A float32 or
    float64 array keeps its dtype; any other input becomes float64.
    """

    __slots__ = ()

    def __init__(self, data: ArrayLike, name: str = ""):
        arr = _as_array(data)
        arr = arr.astype(float_dtype(arr.dtype), copy=False)
        super().__init__(arr, requires_grad=True, name=name)
        # Parameters are leaves even under no_grad construction.
        self.requires_grad = True


def collect_parameters(obj, _seen=None) -> List[Parameter]:
    """Recursively gather :class:`Parameter` instances from an object.

    Walks ``__dict__`` attributes, lists/tuples and dict values.  Used by
    model ``parameters()`` implementations so each model does not need to
    enumerate its parameters by hand.
    """
    if _seen is None:
        _seen = set()
    params: List[Parameter] = []
    if id(obj) in _seen:
        return params
    _seen.add(id(obj))
    if isinstance(obj, Parameter):
        return [obj]
    if isinstance(obj, Tensor):
        return []
    if isinstance(obj, dict):
        values: Iterable = obj.values()
    elif isinstance(obj, (list, tuple)):
        values = obj
    elif hasattr(obj, "__dict__"):
        values = vars(obj).values()
    else:
        return params
    for value in values:
        params.extend(collect_parameters(value, _seen))
    return params
