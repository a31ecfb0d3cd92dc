"""Differentiable operations for the NumPy autodiff engine.

Every function takes and returns :class:`~repro.autograd.tensor.Tensor`
objects.  Forward passes are single vectorized NumPy expressions; backward
closures are defined alongside and capture only the arrays they need.

Graph-specific primitives
-------------------------
Knowledge-graph propagation works over *ragged* neighborhoods: every entity
has a variable number of incident triples.  We store edges sorted by head
entity (CSR layout, see :mod:`repro.kg.adjacency`) so the ragged reductions
become contiguous segment operations:

- :func:`segment_sum` — sum edge messages into per-head buckets;
- :func:`segment_softmax` — the knowledge-aware attention normalization of
  CKAT Eq. (5), a numerically-stable softmax within each head's segment;
- :func:`embedding` — row gather with scatter-add backward, the workhorse of
  every embedding-based model.

All segment ops take an ``offsets`` array of length ``num_segments + 1``
delimiting each segment in the sorted edge arrays, enabling
``np.add.reduceat`` / ``np.maximum.reduceat`` instead of Python loops.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.autograd.sparse import SparseRowGrad, sparse_grads_enabled
from repro.autograd.tensor import Tensor, astensor, float_dtype, is_grad_enabled, unbroadcast

# This module shadows the builtins ``sum`` and ``abs`` with tensor ops; keep
# handles to the originals for internal use.
_sorted = sorted

__all__ = [
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "power",
    "matmul",
    "sum",
    "mean",
    "reshape",
    "transpose",
    "concat",
    "stack",
    "take_rows",
    "embedding",
    "tanh",
    "sigmoid",
    "relu",
    "leaky_relu",
    "exp",
    "log",
    "sqrt",
    "abs",
    "clip",
    "softmax",
    "log_sigmoid",
    "softplus",
    "dropout",
    "segment_sum",
    "segment_max",
    "segment_softmax",
    "squared_norm",
    "bpr_loss",
    "bpr_objective",
    "margin_ranking_loss",
    "l2_normalize",
]


def _make(out_data: np.ndarray, parents: Sequence[Tensor], backward) -> Tensor:
    """Build an output tensor, recording on the tape only when needed."""
    requires = is_grad_enabled() and any(p.requires_grad for p in parents)
    if not requires:
        return Tensor(out_data, requires_grad=False)
    return Tensor(out_data, requires_grad=True, _parents=parents, _backward=backward)


# --------------------------------------------------------------- arithmetic
def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise broadcasted addition."""
    out = a.data + b.data

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(grad)
        if b.requires_grad:
            b.accumulate_grad(grad)

    return _make(out, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise broadcasted subtraction."""
    out = a.data - b.data

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(grad)
        if b.requires_grad:
            b.accumulate_grad(-grad, owned=True)

    return _make(out, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise broadcasted multiplication."""
    out = a.data * b.data

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(grad * b.data, owned=True)
        if b.requires_grad:
            b.accumulate_grad(grad * a.data, owned=True)

    return _make(out, (a, b), backward)


def div(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise broadcasted division."""
    out = a.data / b.data

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(grad / b.data, owned=True)
        if b.requires_grad:
            b.accumulate_grad(-grad * a.data / (b.data * b.data), owned=True)

    return _make(out, (a, b), backward)


def neg(a: Tensor) -> Tensor:
    """Elementwise negation."""
    out = -a.data

    def backward(grad: np.ndarray) -> None:
        a.accumulate_grad(-grad, owned=True)

    return _make(out, (a,), backward)


def power(a: Tensor, exponent: float) -> Tensor:
    """Elementwise power with a constant exponent."""
    out = a.data**exponent

    def backward(grad: np.ndarray) -> None:
        a.accumulate_grad(grad * exponent * a.data ** (exponent - 1), owned=True)

    return _make(out, (a,), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product supporting 1-D/2-D/batched operands (NumPy semantics)."""
    out = a.data @ b.data

    def backward(grad: np.ndarray) -> None:
        ad, bd = a.data, b.data
        grad = np.asarray(grad)
        if a.requires_grad:
            if ad.ndim == 1 and bd.ndim == 1:
                ga = grad * bd  # scalar grad times vector
            elif bd.ndim == 1:
                # out = ad @ b(vector): out[..., i] = sum_j ad[..., i, j] b[j]
                ga = np.expand_dims(grad, -1) * bd
            elif ad.ndim == 1:
                # out = a(vector) @ bd: out[..., j] = sum_i a[i] bd[..., i, j]
                ga = grad @ np.swapaxes(bd, -1, -2)
            else:
                ga = grad @ np.swapaxes(bd, -1, -2)
            a.accumulate_grad(unbroadcast(np.asarray(ga), ad.shape), owned=True)
        if b.requires_grad:
            if ad.ndim == 1 and bd.ndim == 1:
                gb = grad * ad
            elif ad.ndim == 1:
                gb = np.multiply.outer(ad, grad) if grad.ndim == 1 else np.swapaxes(
                    np.expand_dims(grad, -1) * ad, -1, -2
                )
            elif bd.ndim == 1:
                gb = np.swapaxes(ad, -1, -2) @ grad if ad.ndim == 2 else (
                    np.swapaxes(ad, -1, -2) @ np.expand_dims(grad, -1)
                ).squeeze(-1)
            else:
                gb = np.swapaxes(ad, -1, -2) @ grad
            b.accumulate_grad(unbroadcast(np.asarray(gb), bd.shape), owned=True)

    return _make(out, (a, b), backward)


# ----------------------------------------------------------------- reducers
def sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:  # noqa: A001
    """Sum over ``axis`` (all axes by default)."""
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(grad: np.ndarray) -> None:
        g = np.asarray(grad)
        if axis is None:
            a.accumulate_grad(np.broadcast_to(g, a.data.shape))
            return
        if not keepdims:
            axes = axis if isinstance(axis, tuple) else (axis,)
            for ax in _sorted(ax % a.data.ndim for ax in axes):
                g = np.expand_dims(g, ax)
        a.accumulate_grad(np.broadcast_to(g, a.data.shape))

    return _make(out, (a,), backward)


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    """Arithmetic mean over ``axis``."""
    if axis is None:
        count = a.data.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        count = int(np.prod([a.data.shape[ax] for ax in axes]))
    return mul(sum(a, axis=axis, keepdims=keepdims), astensor(1.0 / count, a))


def reshape(a: Tensor, shape: Tuple[int, ...]) -> Tensor:
    """Reshape preserving element order."""
    out = a.data.reshape(shape)

    def backward(grad: np.ndarray) -> None:
        a.accumulate_grad(grad.reshape(a.data.shape))

    return _make(out, (a,), backward)


def transpose(a: Tensor, axes: Optional[Sequence[int]] = None) -> Tensor:
    """Axis permutation (full reversal when ``axes`` is None)."""
    out = a.data.transpose(axes)

    def backward(grad: np.ndarray) -> None:
        if axes is None:
            a.accumulate_grad(grad.transpose())
        else:
            a.accumulate_grad(grad.transpose(np.argsort(axes)))

    return _make(out, (a,), backward)


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis`` (CKAT layer-concat, Eq. 10)."""
    tensors = [astensor(t) for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(grad: np.ndarray) -> None:
        pieces = np.split(grad, splits, axis=axis)
        for t, piece in zip(tensors, pieces):
            if t.requires_grad:
                t.accumulate_grad(piece)

    return _make(out, tuple(tensors), backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack equal-shape tensors along a new axis."""
    tensors = [astensor(t) for t in tensors]
    out = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        pieces = np.moveaxis(grad, axis, 0)
        for t, piece in zip(tensors, pieces):
            if t.requires_grad:
                t.accumulate_grad(piece)

    return _make(out, tuple(tensors), backward)


# ------------------------------------------------------------------- gather
def take_rows(a: Tensor, indices: np.ndarray) -> Tensor:
    """Gather rows ``a[indices]`` along axis 0 with scatter-add backward.

    The backward pass builds a :class:`~repro.autograd.sparse.SparseRowGrad`
    holding only the gathered rows.  When ``a`` is a leaf (a parameter
    table), the sparse grad is accumulated as-is and the optimizer consumes
    it with a scatter-update; for intermediate tensors — whose own backward
    closures expect dense arrays — it is densified on the spot, equal to a
    dense ``np.add.at`` scatter bit for bit.
    """
    idx = np.asarray(indices, dtype=np.intp)
    out = a.data[idx]

    def backward(grad: np.ndarray) -> None:
        flat = np.asarray(grad).reshape((idx.size,) + a.data.shape[1:])
        _accumulate_sparse(a, SparseRowGrad(a.data.shape, idx, flat))

    return _make(out, (a,), backward)


def _accumulate_sparse(t: Tensor, g: SparseRowGrad) -> None:
    """Hand a leaf table ``g`` as is (sparse grads on), anything else dense."""
    if sparse_grads_enabled() and not t._parents:
        t.accumulate_grad(g)
    else:
        t.accumulate_grad(g.to_dense(), owned=True)


def embedding(weight: Tensor, indices: np.ndarray) -> Tensor:
    """Embedding lookup: rows of ``weight`` selected by integer ``indices``.

    Functionally identical to :func:`take_rows`; provided as a named op so
    model code reads as the paper's embedding-layer notation.
    """
    return take_rows(weight, indices)


# -------------------------------------------------------------- activations
def tanh(a: Tensor) -> Tensor:
    """Hyperbolic tangent (used inside CKAT's attention, Eq. 4)."""
    out = np.tanh(a.data)

    def backward(grad: np.ndarray) -> None:
        a.accumulate_grad(grad * (1.0 - out * out), owned=True)

    return _make(out, (a,), backward)


def sigmoid(a: Tensor) -> Tensor:
    """Numerically stable logistic sigmoid."""
    out = _stable_sigmoid(a.data)

    def backward(grad: np.ndarray) -> None:
        a.accumulate_grad(grad * out * (1.0 - out), owned=True)

    return _make(out, (a,), backward)


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=float_dtype(x.dtype))
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def relu(a: Tensor) -> Tensor:
    """Rectified linear unit."""
    out = np.maximum(a.data, 0.0)

    def backward(grad: np.ndarray) -> None:
        a.accumulate_grad(grad * (a.data > 0), owned=True)

    return _make(out, (a,), backward)


def leaky_relu(a: Tensor, negative_slope: float = 0.2) -> Tensor:
    """LeakyReLU, the aggregator nonlinearity of CKAT Eqs. (6)-(7)."""
    out = np.where(a.data > 0, a.data, negative_slope * a.data)

    def backward(grad: np.ndarray) -> None:
        slope = np.where(a.data > 0, 1.0, negative_slope).astype(grad.dtype, copy=False)
        a.accumulate_grad(grad * slope, owned=True)

    return _make(out, (a,), backward)


def exp(a: Tensor) -> Tensor:
    """Elementwise exponential."""
    out = np.exp(a.data)

    def backward(grad: np.ndarray) -> None:
        a.accumulate_grad(grad * out, owned=True)

    return _make(out, (a,), backward)


def log(a: Tensor) -> Tensor:
    """Elementwise natural logarithm."""
    out = np.log(a.data)

    def backward(grad: np.ndarray) -> None:
        a.accumulate_grad(grad / a.data, owned=True)

    return _make(out, (a,), backward)


def sqrt(a: Tensor) -> Tensor:
    """Elementwise square root."""
    out = np.sqrt(a.data)

    def backward(grad: np.ndarray) -> None:
        a.accumulate_grad(grad * 0.5 / out, owned=True)

    return _make(out, (a,), backward)


def abs(a: Tensor) -> Tensor:  # noqa: A001
    """Elementwise absolute value (subgradient 0 at 0)."""
    out = np.abs(a.data)

    def backward(grad: np.ndarray) -> None:
        a.accumulate_grad(grad * np.sign(a.data), owned=True)

    return _make(out, (a,), backward)


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp values to ``[lo, hi]``; gradient is zero outside the interval."""
    out = np.clip(a.data, lo, hi)

    def backward(grad: np.ndarray) -> None:
        a.accumulate_grad(grad * ((a.data >= lo) & (a.data <= hi)), owned=True)

    return _make(out, (a,), backward)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Softmax along ``axis`` with the max-subtraction stability trick."""
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def backward(grad: np.ndarray) -> None:
        dot = (grad * out).sum(axis=axis, keepdims=True)
        a.accumulate_grad(out * (grad - dot), owned=True)

    return _make(out, (a,), backward)


def log_sigmoid(a: Tensor) -> Tensor:
    """``log(sigmoid(x))`` computed stably — the BPR loss kernel (Eq. 12)."""
    x = a.data
    # min(x, 0) − log1p(exp(−|x|)) is the branch-free stable form: the exp
    # argument is always ≤ 0, so neither branch of a where() can overflow.
    out = np.minimum(x, 0.0) - np.log1p(np.exp(-np.abs(x)))

    def backward(grad: np.ndarray) -> None:
        a.accumulate_grad(grad * _stable_sigmoid(-x), owned=True)

    return _make(out, (a,), backward)


def softplus(a: Tensor) -> Tensor:
    """``log(1 + exp(x))`` computed stably."""
    x = a.data
    # max(x, 0) + log1p(exp(−|x|)) — branch-free, overflow-safe.
    out = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))

    def backward(grad: np.ndarray) -> None:
        a.accumulate_grad(grad * _stable_sigmoid(x), owned=True)

    return _make(out, (a,), backward)


def _keep_mask(
    p: float, rng: Optional[np.random.Generator], shape: Tuple[int, ...], training: bool = True
) -> Optional[np.ndarray]:
    """Check ``p``, then draw the dropout keep-mask (``None``: no dropout)."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return None
    if rng is None:
        raise ValueError("dropout with p > 0 needs a generator")
    return rng.random(shape) >= p


def dropout(
    a: Tensor, p: float, rng: Optional[np.random.Generator], training: bool = True
) -> Tensor:
    """Inverted dropout with keep-probability scaling.

    Parameters
    ----------
    p:
        Drop probability in ``[0, 1)``.
    rng:
        Explicit generator — all stochastic components in this repo take one
        so runs are reproducible bit-for-bit.
    training:
        When False (or ``p == 0``) this is the identity; ``p`` is checked first.
    """
    keep = _keep_mask(p, rng, a.data.shape, training)
    if keep is None:
        return a
    mask = keep.astype(float_dtype(a.data.dtype))
    mask *= 1.0 / (1.0 - p)
    out = a.data * mask

    def backward(grad: np.ndarray) -> None:
        a.accumulate_grad(grad * mask, owned=True)

    return _make(out, (a,), backward)


# --------------------------------------------------------------- segment ops
def _check_offsets(offsets: np.ndarray, total: int) -> np.ndarray:
    offsets = np.asarray(offsets, dtype=np.intp)
    if offsets.ndim != 1 or offsets[0] != 0 or offsets[-1] != total:
        raise ValueError(
            f"offsets must be 1-D, start at 0 and end at {total}; got "
            f"shape={offsets.shape}, first={offsets[0] if offsets.size else None}, "
            f"last={offsets[-1] if offsets.size else None}"
        )
    if np.any(np.diff(offsets) < 0):
        raise ValueError("offsets must be nondecreasing")
    return offsets


def segment_sum(values: Tensor, offsets: np.ndarray) -> Tensor:
    """Sum contiguous segments of ``values`` (axis 0) into one row each.

    ``offsets`` has length ``num_segments + 1``; segment ``i`` is
    ``values[offsets[i]:offsets[i+1]]``.  Empty segments produce zero rows.
    Implemented with ``np.add.reduceat`` on the non-empty segments.
    """
    offsets = _check_offsets(offsets, values.data.shape[0])
    num_segments = len(offsets) - 1
    out = np.zeros((num_segments,) + values.data.shape[1:], dtype=values.data.dtype)
    lengths = np.diff(offsets)
    nonempty = lengths > 0
    if nonempty.any():
        out[nonempty] = np.add.reduceat(values.data, offsets[:-1][nonempty], axis=0)

    def backward(grad: np.ndarray) -> None:
        seg_ids = np.repeat(np.arange(num_segments, dtype=np.int64), lengths)
        values.accumulate_grad(grad[seg_ids], owned=True)

    return _make(out, (values,), backward)


def segment_max(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Non-differentiable per-segment maximum (stability shift for softmax)."""
    offsets = _check_offsets(offsets, values.shape[0])
    num_segments = len(offsets) - 1
    lengths = np.diff(offsets)
    out = np.full((num_segments,) + values.shape[1:], -np.inf, dtype=float_dtype(values.dtype))
    nonempty = lengths > 0
    if nonempty.any():
        out[nonempty] = np.maximum.reduceat(values, offsets[:-1][nonempty], axis=0)
    return out


def segment_softmax(scores: Tensor, offsets: np.ndarray) -> Tensor:
    """Softmax within each contiguous segment of a 1-D score vector.

    This is CKAT Eq. (5): attention logits for the triples of each head
    entity are normalized against that head's other triples only.  Segments
    must be contiguous (edges sorted by head); empty segments are allowed.
    """
    if scores.data.ndim != 1:
        raise ValueError("segment_softmax expects 1-D scores")
    offsets = _check_offsets(offsets, scores.data.shape[0])
    num_segments = len(offsets) - 1
    lengths = np.diff(offsets)
    seg_ids = np.repeat(np.arange(num_segments, dtype=np.int64), lengths)

    maxes = segment_max(scores.data, offsets)
    shifted = scores.data - maxes[seg_ids]
    e = np.exp(shifted)
    denom = np.zeros(num_segments, dtype=e.dtype)
    nonempty = lengths > 0
    if nonempty.any():
        denom[nonempty] = np.add.reduceat(e, offsets[:-1][nonempty])
    out = e / denom[seg_ids]

    def backward(grad: np.ndarray) -> None:
        # d softmax: out * (grad - sum_segment(grad * out))
        weighted = grad * out
        seg_dot = np.zeros(num_segments, dtype=weighted.dtype)
        if nonempty.any():
            seg_dot[nonempty] = np.add.reduceat(weighted, offsets[:-1][nonempty])
        scores.accumulate_grad(out * (grad - seg_dot[seg_ids]), owned=True)

    return _make(out, (scores,), backward)


# -------------------------------------------------------------------- losses
def squared_norm(a: Tensor) -> Tensor:
    """Sum of squares ``‖a‖²`` — the L2 regularizer of Eq. (13)."""
    out = np.asarray((a.data * a.data).sum())

    def backward(grad: np.ndarray) -> None:
        a.accumulate_grad(2.0 * grad * a.data, owned=True)

    return _make(out, (a,), backward)


def bpr_loss(pos_scores: Tensor, neg_scores: Tensor) -> Tensor:
    """Bayesian Personalized Ranking loss: ``-mean(log σ(pos - neg))`` (Eq. 12)."""
    return neg(mean(log_sigmoid(sub(pos_scores, neg_scores))))


def bpr_objective(
    user_table: Tensor,
    item_table: Tensor,
    users: np.ndarray,
    pos: np.ndarray,
    neg: np.ndarray,
    l2: float,
) -> Tensor:
    """One BPR minibatch objective as one tape node (Eqs. 11–13).

    Gathers ``u = user_table[users]``, ``i = item_table[pos]`` and
    ``j = item_table[neg]`` and returns
    ``−mean log σ(⟨u, i⟩ − ⟨u, j⟩) + (λ/B)(‖u‖² + ‖i‖² + ‖j‖²)``, the value of
    the ``take_rows``/``mul``/``sum``/:func:`bpr_loss`/squared-norm chain.
    With ``g = −σ(⟨u, j⟩ − ⟨u, i⟩)/B`` the gradient is ``g·(i − j) + 2λ/B·u``
    for ``u``, ``g·u + 2λ/B·i`` for ``i`` and ``−g·u + 2λ/B·j`` for ``j``, sent
    as one :class:`~repro.autograd.sparse.SparseRowGrad` per source table: a
    non-leaf source (CKAT's propagated table, used for users and items) is
    densified once, not once per gather.
    """
    u_idx = np.asarray(users, dtype=np.intp)
    i_idx = np.asarray(pos, dtype=np.intp)
    j_idx = np.asarray(neg, dtype=np.intp)
    batch = len(u_idx)
    u, i, j = user_table.data[u_idx], item_table.data[i_idx], item_table.data[j_idx]
    # Every product goes through one scratch: the chain's arithmetic, bit
    # for bit, without its five (B, d) temporaries.
    prod = np.multiply(u, i)
    x = prod.sum(axis=1)
    x -= np.multiply(u, j, out=prod).sum(axis=1)
    log_sig = np.minimum(x, 0.0) - np.log1p(np.exp(-np.abs(x)))
    scale = l2 / batch
    reg = np.multiply(u, u, out=prod).sum()
    reg += np.multiply(i, i, out=prod).sum()
    reg += np.multiply(j, j, out=prod).sum()
    del prod
    out = np.asarray(-(log_sig.sum() * (1.0 / batch)) + reg * scale)

    def backward(grad: np.ndarray) -> None:
        g = (-float(grad) / batch) * _stable_sigmoid(-x)[:, None]
        decay = 2.0 * scale * float(grad)
        # The u, i and j row grads, stacked in place.
        vals = np.empty((3 * batch,) + u.shape[1:], dtype=u.dtype)
        gu, gi, gj = vals[:batch], vals[batch : 2 * batch], vals[2 * batch :]
        np.multiply(g, u, out=gj)
        np.multiply(decay, i, out=gi)
        gi += gj
        np.multiply(decay, j, out=gu)
        np.subtract(gu, gj, out=gj)
        np.subtract(i, j, out=gu)
        gu *= g
        gu += decay * u
        if user_table is item_table:
            idx = np.concatenate([u_idx, i_idx, j_idx])
            _accumulate_sparse(user_table, SparseRowGrad(user_table.data.shape, idx, vals))
            return
        if user_table.requires_grad:
            _accumulate_sparse(user_table, SparseRowGrad(user_table.data.shape, u_idx, gu))
        if item_table.requires_grad:
            idx = np.concatenate([i_idx, j_idx])
            _accumulate_sparse(item_table, SparseRowGrad(item_table.data.shape, idx, vals[batch:]))

    return _make(out, (user_table, item_table), backward)


def margin_ranking_loss(pos_energy: Tensor, neg_energy: Tensor, margin: float) -> Tensor:
    """TransR margin loss: ``mean(max(0, pos + γ - neg))`` (Eq. 2).

    ``pos_energy`` is the score ``fr`` of true triples (lower = better),
    ``neg_energy`` of corrupted ones.
    """
    return mean(relu(add(sub(pos_energy, neg_energy), astensor(margin, pos_energy))))


def l2_normalize(a: Tensor, axis: int = -1, eps: float = 1e-12) -> Tensor:
    """Normalize rows of ``a`` to unit L2 norm (entity-embedding constraint).

    ``eps`` is added under the square root so zero rows stay finite (their
    gradient is then also well-defined).  One tape node, whose gradient
    ``(g − y·⟨g, y⟩) / n`` uses the saved output ``y`` and norms ``n``.
    """
    norms = np.sqrt((a.data * a.data).sum(axis=axis, keepdims=True) + eps)
    out = a.data / norms

    def backward(grad: np.ndarray) -> None:
        dot = (grad * out).sum(axis=axis, keepdims=True)
        a.accumulate_grad((grad - out * dot) / norms, owned=True)

    return _make(out, (a,), backward)
