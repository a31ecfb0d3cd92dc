"""Fused-kernel dispatch — the single sanctioned entry point.

Models and evaluators call the fused ops **only** through this module
(reprolint RPL010 enforces the funnel); the raw-array
implementations live in :mod:`repro.kernels.numpy_backend`.  Each fused op
has one path: its NumPy/scipy kernel.

The differentiable wrappers (:func:`edge_attention_scores`,
:func:`weighted_neighbor_sum`, :func:`aggregate`, :func:`transr_energy`) build
ordinary tape nodes, so ``Tensor``, ``backward`` and checkpointing are
untouched: a fused op is just one fat node where the per-op autograd chain
it replaced records many thin ones.  Gradients for leaf embedding tables are
emitted as :class:`~repro.autograd.sparse.SparseRowGrad`, matching that
chain's gather backward.  Because callers look the wrappers up on this
module at call time, patching one of them here reroutes every call site.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.autograd.functional import _accumulate_sparse, _keep_mask, _make
from repro.autograd.sparse import SparseRowGrad, segment_sum_rows, sparse_grads_enabled
from repro.autograd.tensor import Tensor
from repro.kernels import numpy_backend

__all__ = [
    "TENSOR_OPS",
    "available_backends",
    "get_backend",
    "edge_attention_scores",
    "transr_energy",
    "weighted_neighbor_sum",
    "aggregate",
    "masked_topk",
    "masked_select",
]

#: Dispatch ops that return Tensors — instrumented by the numeric sanitizer
#: and the op-timer profiler exactly like the ``repro.autograd.functional``
#: public surface.
TENSOR_OPS = ("edge_attention_scores", "weighted_neighbor_sum", "aggregate", "transr_energy")


def available_backends() -> tuple:
    """``("numpy",)``, the one kernel backend; kept for the benchmark run record."""
    return ("numpy",)


def get_backend() -> str:
    """``"numpy"``, the backend every fused op runs; kept for the benchmark run record."""
    return "numpy"


# ----------------------------------------------------------- fused attention
def edge_attention_scores(
    entity_emb: Tensor, relation_emb: Tensor, proj: Tensor, adj
) -> Tensor:
    """Unnormalized knowledge-aware attention scores, shape ``(num_edges,)``.

    One tape node for the per-relation ``gather → project → tanh → dot``
    chain of Eq. 4, in head-sorted edge order, ready for
    :func:`~repro.autograd.functional.segment_softmax`.  The relation
    grouping, its inverse scatter permutation and the (entity, relation) run
    structure all come precomputed from the adjacency caches.
    """
    order, _ = adj.relation_edge_groups()
    groups = adj.attention_grad_groups()
    ent, rel, prj = entity_emb.data, relation_emb.data, proj.data
    scores_r, th, pt = numpy_backend.edge_attention_forward(
        ent,
        rel,
        prj,
        groups.head_rows,
        groups.head_bounds,
        groups.tail_rows,
        groups.tail_bounds,
        groups.head_run,
        groups.tail_run,
    )
    out = scores_r[adj.relation_scatter_index()]

    def backward(grad: np.ndarray) -> None:
        node_vals, grad_rel, grad_proj = numpy_backend.edge_attention_backward(
            np.asarray(grad)[order],
            ent,
            rel,
            prj,
            th,
            pt,
            groups.head_offsets,
            groups.head_rows,
            groups.head_bounds,
            groups.tail_run,
            groups.tail_rows,
            groups.tail_bounds,
        )
        if entity_emb.requires_grad:
            # Coalesce the per-run partial rows to the touched entities with
            # the adjacency's cached grouping: the sparse merge and the
            # optimizer then handle at most num_entities rows.
            values = segment_sum_rows(node_vals, groups.perm, groups.offsets)
            _accumulate_sparse(
                entity_emb, SparseRowGrad(ent.shape, groups.rows, values, coalesced=True)
            )
        if relation_emb.requires_grad:
            relation_emb.accumulate_grad(grad_rel, owned=True)
        if proj.requires_grad:
            proj.accumulate_grad(grad_proj, owned=True)

    return _make(out, (entity_emb, relation_emb, proj), backward)


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
    behind :meth:`repro.models.embeddings.TransR.energy`, shape ``(B,)``.  Each
    distinct (relation, entity) pair of the batch is projected once, and
    the backward reduces to those run rows before any per-relation GEMM, so
    a positive‖corrupted margin batch pays for its ~2k distinct pairs, not
    its 4·B endpoints.  All three grads arrive coalesced: the entity grad
    on the batch's unique entities, the relation and projection grads on
    the relations present.
    """
    heads = np.asarray(heads, dtype=np.int64)
    rels = np.asarray(rels, dtype=np.int64)
    tails = np.asarray(tails, dtype=np.int64)
    ent, rel, prj = entity_emb.data, relation_emb.data, proj.data
    runs = numpy_backend.transr_runs(heads, rels, tails, ent.shape[0], rel.shape[0])
    out, diff = numpy_backend.transr_energy_forward(ent, rel, prj, rels, *runs)

    def backward(grad: np.ndarray) -> None:
        run_vals, grad_rel, grad_proj = numpy_backend.transr_energy_backward(
            np.asarray(grad), ent, prj, rels, diff, *runs
        )
        run_rows, run_bounds = runs[0], runs[1]
        if entity_emb.requires_grad:
            g_ent = SparseRowGrad(ent.shape, run_rows, run_vals).coalesce()
            _accumulate_sparse(entity_emb, g_ent)
        # Restrict to the relations present so the lazy optimizer touches the
        # same row set as the oracle chain's gather backward.
        present = np.flatnonzero(np.diff(run_bounds))
        for param, g in ((relation_emb, grad_rel), (proj, grad_proj)):
            if param.requires_grad:
                rows = SparseRowGrad(g.shape, present, g[present], coalesced=True)
                _accumulate_sparse(param, rows)

    return _make(out, (entity_emb, relation_emb, proj), backward)


# --------------------------------------------------------- fused propagation
def weighted_neighbor_sum(
    embeddings: Tensor, edge_weights: Union[Tensor, np.ndarray], adj
) -> Tensor:
    """Fused ``gather(tails) → scale → segment-sum`` propagation step (Eq. 8).

    ``edge_weights`` may be a Tensor (differentiable attention, the exact
    Eq. 4–5 path) or a constant array (frozen attention / uniform weights);
    either way the step is one CSR product ``A @ embeddings`` over the
    adjacency arrays and its embedding gradient ``Aᵀ @ grad``, so the
    ``(E, d)`` weighted-messages temporary of the per-op chain never exists.
    Constant weights are cast to the embeddings' dtype, so float64 uniform
    weights do not turn a float32 propagation into a float64 one.  Returns
    the per-entity neighborhood aggregate, shape ``(num_entities, d)``.
    """
    emb = embeddings.data
    weights_tensor = edge_weights if isinstance(edge_weights, Tensor) else None
    w = (
        weights_tensor.data
        if weights_tensor is not None
        else np.asarray(edge_weights, dtype=emb.dtype)
    )
    matrix = numpy_backend.weighted_adjacency(w, adj.tails, adj.offsets, emb.shape[0])
    out = matrix @ emb

    def backward(grad: np.ndarray) -> None:
        grad = np.asarray(grad)
        if embeddings.requires_grad:
            g_emb = matrix.T @ grad
            if sparse_grads_enabled() and not embeddings._parents:
                # Leaf table: restrict to rows with incoming edges so the
                # lazy optimizer touches the same row set as the oracle's
                # gather backward.
                touched = np.flatnonzero(
                    np.bincount(adj.tails, minlength=emb.shape[0])
                )
                embeddings.accumulate_grad(
                    SparseRowGrad(
                        emb.shape, touched, g_emb[touched], coalesced=True
                    )
                )
            else:
                embeddings.accumulate_grad(g_emb, owned=True)
        if weights_tensor is not None and weights_tensor.requires_grad:
            gw = numpy_backend.gather_dot(grad, emb, adj.heads, adj.tails)
            weights_tensor.accumulate_grad(gw, owned=True)

    parents = (embeddings,) if weights_tensor is None else (embeddings, weights_tensor)
    return _make(out, parents, backward)


# --------------------------------------------------------- fused aggregator
def aggregate(
    self_emb: Tensor, neigh_emb: Tensor, weight: Tensor, bias: Tensor, mode: str,
    p: float = 0.0, rng: Optional[np.random.Generator] = None,
) -> Tensor:
    """One propagation layer's aggregator and message dropout (Eqs. 6–7).

    ``LeakyReLU(combine(e_h, e_Nh) @ W + b)``, ``combine`` the concat or the
    sum (``mode``), then inverted dropout at drop probability ``p``, as one
    tape node saving only the boolean pre-activation sign and keep-mask.
    The mask is drawn by the helper :func:`repro.autograd.functional.dropout`
    uses, so the RNG stream is that of the per-op chain.
    """
    x, n, w = self_emb.data, neigh_emb.data, weight.data
    keep = _keep_mask(p, rng, (x.shape[0], w.shape[1]))
    scale = 1.0 / (1.0 - p)
    out, positive = numpy_backend.aggregate_forward(x, n, w, bias.data, mode, keep, scale)
    parents = (self_emb, neigh_emb, weight, bias)

    def backward(grad: np.ndarray) -> None:
        grads = numpy_backend.aggregate_backward(
            np.asarray(grad), x, n, w, mode, positive, keep, scale
        )
        for t, g in zip(parents, grads):
            if t.requires_grad:
                t.accumulate_grad(g)

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
    behavior) is :func:`masked_select`'s over the negated product.  ``valid_out``
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


def masked_select(
    neg_buf: np.ndarray,
    k: int,
    train_indptr: np.ndarray,
    train_indices: np.ndarray,
    batch: np.ndarray,
    valid_out: "np.ndarray | None" = None,
) -> np.ndarray:
    """The train-mask → top-k half of :func:`masked_topk`, over scores the
    caller already wrote, negated, into ``neg_buf`` (masked in place).

    The one selection every top-k in the package runs: the evaluator,
    ``Recommender.recommend`` and serving.  Serving fills each row with its
    own GEMV so a row's bits cannot depend on its batch mates, then selects
    the whole block in one call.
    """
    return numpy_backend.masked_select(
        neg_buf, k, train_indptr, train_indices, batch, valid_out=valid_out
    )
