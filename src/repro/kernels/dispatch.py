"""Fused-kernel dispatch — the single sanctioned entry point.

Models and evaluators call the fused ops **only** through this module
(reprolint RPL010 enforces the funnel); the raw cache-blocked
implementations live in :mod:`repro.kernels.numpy_backend`.

Backends
--------
``numpy``
    The default: every fused op runs its cache-blocked NumPy kernel.
``oracle``
    Fusion disabled: callers fall back to their original per-op autograd
    chains, which remain the parity oracle for every fused kernel.  Select
    it to benchmark against or to bisect a suspected kernel bug out of a run.

Selection: ``REPRO_KERNELS`` environment variable (``numpy`` or ``oracle``;
unset means ``numpy``) read once at first use, then :func:`set_backend` /
the :func:`kernel_backend` context manager.

The differentiable wrappers (:func:`edge_attention_scores`,
:func:`weighted_neighbor_sum`) build ordinary tape nodes, so ``Tensor``,
``backward`` and checkpointing are untouched: a fused op is just one fat node
where the oracle chain records eight thin ones.  Gradients for leaf embedding
tables are emitted as :class:`~repro.autograd.sparse.SparseRowGrad`, matching
the oracle's gather backward.
"""

from __future__ import annotations

import contextlib
import os
from typing import Iterator, Optional, Union

import numpy as np
import scipy.sparse as sp

from repro.autograd.functional import _make
from repro.autograd.sparse import SparseRowGrad, sparse_grads_enabled
from repro.autograd.tensor import Tensor
from repro.kernels import numpy_backend

__all__ = [
    "ENV_VAR",
    "BACKENDS",
    "TENSOR_OPS",
    "available_backends",
    "get_backend",
    "set_backend",
    "kernel_backend",
    "fused_enabled",
    "edge_attention_scores",
    "transr_energy",
    "weighted_neighbor_sum",
    "masked_topk",
    "build_weighted_csr",
]

ENV_VAR = "REPRO_KERNELS"
BACKENDS = ("numpy", "oracle")

#: Dispatch ops that return Tensors — instrumented by the numeric sanitizer
#: and the op-timer profiler exactly like the ``repro.autograd.functional``
#: public surface.
TENSOR_OPS = ("edge_attention_scores", "weighted_neighbor_sum", "transr_energy")

_backend: Optional[str] = None


class _BufferPool:
    """Recycle the large per-call arrays of the fused attention op.

    The op saves two ``(E, k)`` activations for backward and scratches a
    ``(2E, d)`` gradient block — ~40 MB of fresh page faults per training
    step if allocated anew.  Buffers are handed out by shape and returned
    once consumed; an unreturned buffer (e.g. a forward whose graph is
    discarded without backward) is simply garbage-collected and the pool
    re-allocates, so reuse is an optimization, never a correctness issue.
    """

    _MAX_FREE = 4  # per shape — bounds worst-case retention

    def __init__(self) -> None:
        self._free: dict = {}

    def take(self, shape) -> np.ndarray:
        stack = self._free.get(shape)
        if stack:
            return stack.pop()
        return np.empty(shape, dtype=np.float64)

    def give(self, *arrays: np.ndarray) -> None:
        for arr in arrays:
            stack = self._free.setdefault(arr.shape, [])
            if len(stack) < self._MAX_FREE:
                stack.append(arr)


_pool = _BufferPool()


def available_backends() -> tuple:
    """Every backend name; both run wherever NumPy does."""
    return BACKENDS


def _resolve_from_env() -> str:
    value = os.environ.get(ENV_VAR, "").strip().lower() or "numpy"
    if value not in BACKENDS:
        raise ValueError(f"unrecognized {ENV_VAR}={value!r}; expected numpy or oracle")
    return value


def _validate(name: str) -> str:
    if name not in BACKENDS:
        raise ValueError(f"unknown kernel backend {name!r}; expected one of {BACKENDS}")
    return name


def get_backend() -> str:
    """The active backend name, resolving ``REPRO_KERNELS`` on first use."""
    global _backend
    if _backend is None:
        _backend = _resolve_from_env()
    return _backend


def set_backend(name: str) -> None:
    """Select the kernel backend for subsequent fused-op calls."""
    global _backend
    _backend = _validate(name)


@contextlib.contextmanager
def kernel_backend(name: str) -> Iterator[None]:
    """Temporarily switch backends (benchmarks pit ``oracle`` against fused)."""
    global _backend
    prev = _backend
    set_backend(name)
    try:
        yield
    finally:
        _backend = prev


def fused_enabled() -> bool:
    """Whether callers should take the fused path (False under ``oracle``)."""
    return get_backend() != "oracle"


# ----------------------------------------------------------- fused attention
def edge_attention_scores(
    entity_emb: Tensor, relation_emb: Tensor, proj: Tensor, adj
) -> Tensor:
    """Unnormalized knowledge-aware attention scores, shape ``(num_edges,)``.

    One tape node for the per-relation ``gather → project → tanh → dot``
    chain of Eq. 4, in head-sorted edge order, ready for
    :func:`~repro.autograd.functional.segment_softmax`.  The relation
    grouping, its inverse scatter permutation and the grouped endpoints all
    come precomputed from the adjacency caches.
    """
    order, bounds = adj.relation_edge_groups()
    inverse = adj.relation_scatter_index()
    heads_r, tails_r = adj.relation_edge_endpoints()
    ent, rel, prj = entity_emb.data, relation_emb.data, proj.data
    num_edges = adj.num_edges
    k = rel.shape[1]
    scores_r, th, pt = numpy_backend.edge_attention_forward(
        ent,
        rel,
        prj,
        heads_r,
        tails_r,
        bounds,
        th_out=_pool.take((num_edges, k)),
        pt_out=_pool.take((num_edges, k)),
    )
    out = scores_r[inverse]
    released = False

    def backward(grad: np.ndarray) -> None:
        nonlocal released
        groups = adj.attention_grad_groups()
        num_runs = len(groups.head_rows) + len(groups.tail_rows)
        gp_buf = _pool.take((num_edges, k))
        gu_buf = _pool.take((num_edges, k))
        node_scratch = _pool.take((num_runs, ent.shape[1]))
        node_vals, grad_rel, grad_proj = numpy_backend.edge_attention_backward(
            np.asarray(grad)[order],
            ent,
            rel,
            prj,
            bounds,
            th,
            pt,
            groups.head_offsets,
            groups.head_rows,
            groups.head_bounds,
            groups.tail_perm,
            groups.tail_offsets,
            groups.tail_rows,
            groups.tail_bounds,
            gp_buf=gp_buf,
            gu_buf=gu_buf,
            node_out=node_scratch,
        )
        if entity_emb.requires_grad:
            # Coalesce the per-(entity, relation) partial rows to the
            # touched entities with the adjacency's cached grouping: the
            # sparse merge and the optimizer then handle at most
            # num_entities rows, and the reduction never materializes
            # per-edge gradient rows at all.
            values = numpy_backend.segment_sum_rows(
                node_vals, groups.perm, groups.offsets
            )
            g = SparseRowGrad(ent.shape, groups.rows, values, coalesced=True)
            if sparse_grads_enabled() and not entity_emb._parents:
                entity_emb.accumulate_grad(g)
            else:
                entity_emb.accumulate_grad(g.to_dense(), owned=True)
        _pool.give(gp_buf, gu_buf, node_scratch)
        if not released:
            released = True
            _pool.give(th, pt)
        if relation_emb.requires_grad:
            relation_emb.accumulate_grad(grad_rel, owned=True)
        if proj.requires_grad:
            proj.accumulate_grad(grad_proj, owned=True)

    node = _make(out, (entity_emb, relation_emb, proj), backward)
    if node._backward is None:
        # Inference path: the graph recorded no backward, so the saved
        # activations can be recycled immediately.
        _pool.give(th, pt)
    return node


# ------------------------------------------------------------- TransR energy
def transr_energy(
    entity_emb: Tensor,
    relation_emb: Tensor,
    proj: Tensor,
    heads: np.ndarray,
    rels: np.ndarray,
    tails: np.ndarray,
) -> Tensor:
    """Fused TransR plausibility scores ``‖W_r e_h + e_r − W_r e_t‖²`` (Eq. 1).

    One tape node for the grouped gather → project → translate → norm chain
    of :meth:`repro.models.embeddings.TransR.energy`, shape ``(B,)``.
    Always NumPy: triple batches are optimizer-step sized, so each relation
    group is a single BLAS call either way — the fusion removes the per-group
    tape nodes, not arithmetic.
    """
    heads = np.asarray(heads, dtype=np.int64)
    rels = np.asarray(rels, dtype=np.int64)
    tails = np.asarray(tails, dtype=np.int64)
    ent, rel, prj = entity_emb.data, relation_emb.data, proj.data
    num_relations = rel.shape[0]
    order = np.argsort(rels, kind="stable")
    heads_g, tails_g = heads[order], tails[order]
    counts = np.bincount(rels[order], minlength=num_relations)
    bounds = np.zeros(num_relations + 1, dtype=np.int64)
    np.cumsum(counts, out=bounds[1:])
    scores_g, diff = numpy_backend.transr_energy_forward(
        ent, rel, prj, heads_g, tails_g, bounds
    )
    out = np.empty(len(rels), dtype=np.float64)
    out[order] = scores_g

    def backward(grad: np.ndarray) -> None:
        ent_rows, grad_rel, grad_proj = numpy_backend.transr_energy_backward(
            np.asarray(grad)[order], ent, rel, prj, heads_g, tails_g, bounds, diff
        )
        if entity_emb.requires_grad:
            idx = np.concatenate([heads_g, tails_g])
            g = SparseRowGrad(ent.shape, idx, ent_rows)
            if sparse_grads_enabled() and not entity_emb._parents:
                entity_emb.accumulate_grad(g)
            else:
                entity_emb.accumulate_grad(g.to_dense(), owned=True)
        present = np.flatnonzero(counts > 0)
        if relation_emb.requires_grad:
            # Restrict to the relations present so the lazy optimizer touches
            # the same row set as the oracle chain's gather backward.
            _accumulate_rows(relation_emb, grad_rel, present)
        if proj.requires_grad:
            _accumulate_rows(proj, grad_proj, present)

    return _make(out, (entity_emb, relation_emb, proj), backward)


def _accumulate_rows(param: Tensor, dense_grad: np.ndarray, rows: np.ndarray) -> None:
    """Accumulate ``dense_grad`` restricted to ``rows`` as a sparse row grad."""
    g = SparseRowGrad(
        dense_grad.shape, rows, dense_grad[rows], coalesced=True
    )
    if sparse_grads_enabled() and not param._parents:
        param.accumulate_grad(g)
    else:
        param.accumulate_grad(g.to_dense(), owned=True)


# --------------------------------------------------------- fused propagation
def weighted_neighbor_sum(
    embeddings: Tensor, edge_weights: Union[Tensor, np.ndarray], adj
) -> Tensor:
    """Fused ``gather(tails) → scale → segment-sum`` propagation step (Eq. 8).

    ``edge_weights`` may be a Tensor (differentiable attention, the exact
    Eq. 4–5 path) or a constant array (frozen attention / uniform weights);
    either way the ``(E, d)`` weighted-messages temporary of the per-op chain
    is never materialized.  Returns the per-entity neighborhood aggregate,
    shape ``(num_entities, d)``.
    """
    weights_tensor = edge_weights if isinstance(edge_weights, Tensor) else None
    w = (
        weights_tensor.data
        if weights_tensor is not None
        else np.asarray(edge_weights, dtype=np.float64)
    )
    emb = embeddings.data
    out = numpy_backend.weighted_neighbor_sum(emb, w, adj.tails, adj.offsets)

    def backward(grad: np.ndarray) -> None:
        grad = np.asarray(grad)
        needs_gw = weights_tensor is not None and weights_tensor.requires_grad
        gw: Optional[np.ndarray] = None
        if embeddings.requires_grad:
            in_order, in_offsets, heads_in, tails_in = adj.incoming_edge_groups()
            if needs_gw:
                # One edge pass for both gradients: the weight grad reads
                # the same gathered grad_out rows as the embedding grad.
                g_emb, gw_sorted = numpy_backend.weighted_backward_fused(
                    grad, emb, w[in_order], heads_in, tails_in, in_offsets
                )
                gw = np.empty(adj.num_edges, dtype=np.float64)
                gw[in_order] = gw_sorted
            else:
                g_emb = numpy_backend.weighted_neighbor_sum(
                    grad, w[in_order], heads_in, in_offsets
                )
            if sparse_grads_enabled() and not embeddings._parents:
                # Leaf table: restrict to rows with incoming edges so the
                # lazy optimizer touches the same row set as the oracle's
                # gather backward.
                touched = np.flatnonzero(np.diff(in_offsets) > 0)
                embeddings.accumulate_grad(
                    SparseRowGrad(
                        emb.shape, touched, g_emb[touched], coalesced=True
                    )
                )
            else:
                embeddings.accumulate_grad(g_emb, owned=True)
        if needs_gw:
            if gw is None:
                gw = numpy_backend.weighted_edge_grad(grad, emb, adj.heads, adj.tails)
            weights_tensor.accumulate_grad(gw, owned=True)

    parents = (embeddings,) if weights_tensor is None else (embeddings, weights_tensor)
    return _make(out, parents, backward)


# ---------------------------------------------------------- fused evaluation
def masked_topk(
    user_vecs: np.ndarray,
    item_vecs: np.ndarray,
    k: int,
    neg_buf: np.ndarray,
    train_indptr: np.ndarray,
    train_indices: np.ndarray,
    batch: np.ndarray,
    valid_out: "np.ndarray | None" = None,
) -> np.ndarray:
    """Fused score → negate → train-mask → top-k for one evaluation batch.

    Always NumPy: the product is one BLAS call into the caller's reusable
    buffer, which no jitted loop improves on.  Ranking (including tie
    behavior) is identical to the evaluator's per-op chain.  ``valid_out``
    receives per-row real-candidate counts (see the backend docstring) so
    serving callers can truncate masked filler from short rows.
    """
    return numpy_backend.masked_topk(
        user_vecs,
        item_vecs,
        k,
        neg_buf,
        train_indptr,
        train_indices,
        batch,
        valid_out=valid_out,
    )


# ------------------------------------------------- frozen-attention adjacency
def build_weighted_csr(adj, edge_weights: np.ndarray):
    """CSR matrix ``A[h, t] = Σ attention(h, r, t)`` over parallel edges.

    The frozen-attention fast path computes propagation as ``A @ embeddings``
    (:func:`~repro.autograd.functional.spmm`).
    """
    matrix = sp.csr_matrix(
        (np.asarray(edge_weights, dtype=np.float64), (adj.heads, adj.tails)),
        shape=(adj.num_entities, adj.num_entities),
    )
    matrix.sum_duplicates()
    return matrix
