"""Cache-blocked NumPy implementations of the fused kernels.

Every function here operates on **raw ndarrays** — no autograd Tensors, no
tape.  The differentiable wrappers in :mod:`repro.kernels.dispatch` call
these for both directions of each fused op; each op has exactly this one
implementation, checked against the per-op autograd chain
(``REPRO_KERNELS=oracle``).

Blocking strategy
-----------------
The per-op oracle chains materialize ``(E, d)`` / ``(E, k)`` temporaries at
every step of the attention and propagation pipelines (gathered endpoint
embeddings, projected embeddings, tanh outputs, weighted messages, …).  The
kernels below stream over edges in blocks sized so the working set — one
gathered block plus one projected block — stays in cache
(:func:`edge_block`), writing each result directly into its preallocated
destination.  Matmul FLOPs are unchanged; what disappears is the allocator
traffic and the extra full-array passes between the fine-grained ops.

Segment reductions reuse the ``np.add.reduceat`` discipline of
:func:`repro.autograd.functional.segment_sum`: reduce only the non-empty
segments intersecting the current block and accumulate with ``+=`` so a
segment spanning a block boundary sums its partial results in block order.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

__all__ = [
    "edge_block",
    "edge_attention_forward",
    "edge_attention_backward",
    "transr_energy_forward",
    "transr_energy_backward",
    "weighted_neighbor_sum",
    "weighted_edge_grad",
    "weighted_backward_fused",
    "segment_sum_rows",
    "masked_topk",
]

#: Target bytes for one gathered edge block (values chosen so two float64
#: blocks — gather + projection — fit comfortably in a 256 KiB+ L2 cache).
_BLOCK_TARGET_BYTES = 1 << 20


def edge_block(dim: int, target_bytes: int = _BLOCK_TARGET_BYTES) -> int:
    """Edges per block so a ``(block, dim)`` float64 scratch is ~``target_bytes``."""
    if dim <= 0:
        raise ValueError(f"dim must be positive, got {dim}")
    return max(512, target_bytes // (8 * dim))


def _block_segments(
    offsets: np.ndarray, e0: int, e1: int
) -> Tuple[int, np.ndarray, np.ndarray]:
    """Segment geometry of the edge range ``[e0, e1)``.

    Returns ``(first_segment, local_starts, nonempty)`` where ``local_starts``
    are the block-relative start offsets of every segment intersecting the
    range (one per segment, clipped to the range) and ``nonempty`` masks the
    segments that actually own edges inside it.
    """
    first = int(np.searchsorted(offsets, e0, side="right")) - 1
    last = int(np.searchsorted(offsets, e1 - 1, side="right")) - 1
    local = np.clip(offsets[first : last + 2] - e0, 0, e1 - e0)
    lengths = np.diff(local)
    return first, local[:-1], lengths > 0


# ------------------------------------------------------------ edge attention
def edge_attention_forward(
    ent: np.ndarray,
    rel: np.ndarray,
    proj: np.ndarray,
    heads_r: np.ndarray,
    tails_r: np.ndarray,
    bounds: np.ndarray,
    block: Optional[int] = None,
    th_out: Optional[np.ndarray] = None,
    pt_out: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unnormalized attention scores ``(W_r e_t)ᵀ tanh(W_r e_h + e_r)``.

    Inputs are in **relation-grouped order**: ``heads_r``/``tails_r`` are the
    edge endpoints permuted so equal relations are contiguous, ``bounds``
    delimits each relation's run.  Returns ``(scores, th, pt)`` where ``th``
    (the tanh activations) and ``pt`` (the projected tails) are saved for the
    backward pass — two ``(E, k)`` arrays instead of the oracle's eight-odd
    intermediates.  ``th_out``/``pt_out`` let the caller recycle those
    activations across steps (27 MB of fresh page faults per call otherwise).
    """
    num_edges = len(heads_r)
    num_entities = ent.shape[0]
    k = rel.shape[1]
    d = ent.shape[1]
    if block is None:
        block = edge_block(max(k, d))
    scores = np.empty(num_edges, dtype=np.float64)
    th = th_out if th_out is not None else np.empty((num_edges, k), dtype=np.float64)
    pt = pt_out if pt_out is not None else np.empty((num_edges, k), dtype=np.float64)
    gather = np.empty((min(block, num_edges) or 1, d), dtype=np.float64)
    table: Optional[np.ndarray] = None
    for r in range(len(bounds) - 1):
        lo, hi = int(bounds[r]), int(bounds[r + 1])
        if hi == lo:
            continue
        w_t = proj[r].T  # (d, k), one view per relation
        r_vec = rel[r]
        if num_entities <= hi - lo:
            if table is None:
                table = np.empty((num_entities, k), dtype=np.float64)
            # Project-once: every entity's ``e W_r`` in one (N, d)·(d, k)
            # matmul, then gather projected rows per edge endpoint — N·k·d
            # FLOPs instead of 2·(hi-lo)·k·d when the group has more edges
            # than there are entities (the dense-graph regime).
            np.matmul(ent, w_t, out=table)
            np.take(table, heads_r[lo:hi], axis=0, out=th[lo:hi])
            th[lo:hi] += r_vec
            np.tanh(th[lo:hi], out=th[lo:hi])
            np.take(table, tails_r[lo:hi], axis=0, out=pt[lo:hi])
            np.einsum("ij,ij->i", pt[lo:hi], th[lo:hi], out=scores[lo:hi])
            continue
        for b0 in range(lo, hi, block):
            b1 = min(b0 + block, hi)
            th_b = th[b0:b1]
            pt_b = pt[b0:b1]
            gat = gather[: b1 - b0]
            np.take(ent, heads_r[b0:b1], axis=0, out=gat)
            np.matmul(gat, w_t, out=th_b)
            th_b += r_vec
            np.tanh(th_b, out=th_b)
            np.take(ent, tails_r[b0:b1], axis=0, out=gat)
            np.matmul(gat, w_t, out=pt_b)
            np.einsum("ij,ij->i", pt_b, th_b, out=scores[b0:b1])
    return scores, th, pt


def edge_attention_backward(
    grad_scores: np.ndarray,
    ent: np.ndarray,
    rel: np.ndarray,
    proj: np.ndarray,
    bounds: np.ndarray,
    th: np.ndarray,
    pt: np.ndarray,
    head_offsets: np.ndarray,
    head_rows: np.ndarray,
    head_bounds: np.ndarray,
    tail_perm: np.ndarray,
    tail_offsets: np.ndarray,
    tail_rows: np.ndarray,
    tail_bounds: np.ndarray,
    block: Optional[int] = None,
    gp_buf: Optional[np.ndarray] = None,
    gu_buf: Optional[np.ndarray] = None,
    node_out: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward of :func:`edge_attention_forward`, reduced before the matmuls.

    ``grad_scores`` is the score gradient in relation-grouped order.  The
    chain rule factors every output through the per-edge ``(E, k)``
    gradients ``gu = g·pt·(1−th²)`` and ``gp = g·th``; because ``W_r`` and
    ``e_r`` are constant within a relation group, and every edge sharing a
    head (tail) also shares its entity row, those can be segment-summed to
    one row per touched *(entity, relation)* pair **first** (the head/tail
    run structure comes precomputed from
    :meth:`~repro.kg.adjacency.CSRAdjacency.attention_grad_groups`):

    - ``d e_h`` rows: ``GU_runs @ W_r`` — runs·k·d FLOPs instead of E·k·d;
    - ``d e_t`` rows: ``GP_runs @ W_r`` likewise;
    - ``d W_r = GU_runsᵀ @ ent[head_rows] + GP_runsᵀ @ ent[tail_rows]`` —
      gathering one entity row per run instead of one per edge;
    - ``d e_r = Σ GU_runs``.

    Returns ``(node_vals, grad_rel, grad_proj)`` where ``node_vals`` stacks
    the per-head-run gradients (first ``len(head_rows)`` rows) over the
    per-tail-run gradients, ready for the final coalesce to unique entities
    (``segment_sum_rows`` with the cached ``perm``/``offsets``).
    ``gp_buf``/``gu_buf`` recycle the two ``(E, k)`` scratches and
    ``node_out`` the result buffer.
    """
    num_edges = len(grad_scores)
    k = rel.shape[1]
    d = ent.shape[1]
    num_head_runs = len(head_rows)
    num_tail_runs = len(tail_rows)
    grad_rel = np.zeros_like(rel)
    grad_proj = np.zeros_like(proj)
    node_vals = (
        node_out
        if node_out is not None
        else np.empty((num_head_runs + num_tail_runs, d), dtype=np.float64)
    )
    if num_edges == 0:
        return node_vals[:0], grad_rel, grad_proj
    if block is None:
        block = edge_block(max(k, d))
    gp = gp_buf if gp_buf is not None else np.empty((num_edges, k), dtype=np.float64)
    gu = gu_buf if gu_buf is not None else np.empty((num_edges, k), dtype=np.float64)
    # d scores / d pt = th ; d scores / d th = pt ; d th / d u = 1 - th².
    g = grad_scores[:, None]
    np.multiply(g, th, out=gp)
    np.multiply(g, pt, out=gu)
    damp = np.empty((min(block, num_edges), k), dtype=np.float64)
    for b0 in range(0, num_edges, block):
        b1 = min(b0 + block, num_edges)
        dp = damp[: b1 - b0]
        np.multiply(th[b0:b1], th[b0:b1], out=dp)
        np.subtract(1.0, dp, out=dp)
        gu[b0:b1] *= dp
    # Head runs are contiguous in relation-grouped order (stable sort of the
    # CSR layout), so GU reduces in place; tail runs need the cached
    # within-group sort.
    gu_runs = np.add.reduceat(gu, head_offsets[:-1], axis=0)
    gp_runs = segment_sum_rows(gp, tail_perm, tail_offsets, block=block)
    for r in range(len(bounds) - 1):
        hs, he = int(head_bounds[r]), int(head_bounds[r + 1])
        ts, te = int(tail_bounds[r]), int(tail_bounds[r + 1])
        if he == hs and te == ts:
            continue
        w_r = proj[r]  # (k, d)
        gu_r = gu_runs[hs:he]
        gp_r = gp_runs[ts:te]
        np.matmul(gu_r, w_r, out=node_vals[hs:he])  # d e_h per head run
        np.matmul(gp_r, w_r, out=node_vals[num_head_runs + ts : num_head_runs + te])
        grad_proj[r] += gu_r.T @ ent[head_rows[hs:he]]
        grad_proj[r] += gp_r.T @ ent[tail_rows[ts:te]]
        grad_rel[r] += gu_r.sum(axis=0)
    return node_vals, grad_rel, grad_proj


# ------------------------------------------------------------ TransR energy
def transr_energy_forward(
    ent: np.ndarray,
    rel: np.ndarray,
    proj: np.ndarray,
    heads_g: np.ndarray,
    tails_g: np.ndarray,
    bounds: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """TransR plausibility ``‖W_r e_h + e_r − W_r e_t‖²`` (Eq. 1), fused.

    Inputs are in relation-grouped order (``bounds`` delimits each
    relation's run in the batch).  Returns ``(scores, diff)`` where ``diff``
    holds the per-triple translation residuals ``W_r e_h + e_r − W_r e_t``
    saved for the backward pass.  Batches are optimizer-step sized (a few
    thousand triples), so each relation group is one matmul — the win over
    the per-op chain is collapsing its ~8 tape nodes per relation group
    (gathers, reshapes, transposes, concat, inverse scatter) into one.
    """
    n = len(heads_g)
    k = rel.shape[1]
    scores = np.empty(n, dtype=np.float64)
    diff = np.empty((n, k), dtype=np.float64)
    for r in range(len(bounds) - 1):
        lo, hi = int(bounds[r]), int(bounds[r + 1])
        if hi == lo:
            continue
        w_t = proj[r].T  # (d, k)
        d_b = diff[lo:hi]
        np.matmul(ent[heads_g[lo:hi]], w_t, out=d_b)
        d_b += rel[r]
        d_b -= ent[tails_g[lo:hi]] @ w_t
        np.einsum("ij,ij->i", d_b, d_b, out=scores[lo:hi])
    return scores, diff


def transr_energy_backward(
    grad_scores: np.ndarray,
    ent: np.ndarray,
    rel: np.ndarray,
    proj: np.ndarray,
    heads_g: np.ndarray,
    tails_g: np.ndarray,
    bounds: np.ndarray,
    diff: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward of :func:`transr_energy_forward`.

    Returns ``(ent_rows, grad_rel, grad_proj)``: ``ent_rows`` stacks the
    per-triple head gradients (first B rows) over the tail gradients (last B
    rows, the negation), indexed by ``concat(heads_g, tails_g)``; the
    relation-table and projection-tensor gradients are dense ``(R, k)`` /
    ``(R, k, d)`` accumulators the caller restricts to the relations present.
    """
    n = len(heads_g)
    d = ent.shape[1]
    ent_rows = np.empty((2 * n, d), dtype=np.float64)
    grad_rel = np.zeros_like(rel)
    grad_proj = np.zeros_like(proj)
    for r in range(len(bounds) - 1):
        lo, hi = int(bounds[r]), int(bounds[r + 1])
        if hi == lo:
            continue
        # d score / d diff = 2 g diff ; diff = W_r e_h + e_r − W_r e_t.
        gd = 2.0 * grad_scores[lo:hi, None] * diff[lo:hi]  # (m, k)
        w_r = proj[r]  # (k, d)
        np.matmul(gd, w_r, out=ent_rows[lo:hi])
        np.negative(ent_rows[lo:hi], out=ent_rows[n + lo : n + hi])
        grad_rel[r] += gd.sum(axis=0)
        grad_proj[r] += gd.T @ ent[heads_g[lo:hi]]
        grad_proj[r] -= gd.T @ ent[tails_g[lo:hi]]
    return ent_rows, grad_rel, grad_proj


# -------------------------------------------------------- fused propagation
def weighted_neighbor_sum(
    emb: np.ndarray,
    weights: np.ndarray,
    tails: np.ndarray,
    offsets: np.ndarray,
    block: Optional[int] = None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """``out[h] = Σ_{e ∈ segment(h)} weights[e] · emb[tails[e]]`` (Eq. 8).

    Edges are sorted by head (CSR layout, ``offsets`` delimiting segments).
    The gather → weight → segment-reduce chain runs block-by-block through a
    reused ``(block, d)`` scratch, so the ``(E, d)`` weighted-messages
    temporary of the per-op chain is never materialized.
    """
    num_segments = len(offsets) - 1
    d = emb.shape[1]
    num_edges = len(tails)
    if block is None:
        block = edge_block(d)
    if out is None:
        out = np.zeros((num_segments, d), dtype=np.float64)
    else:
        out[:] = 0.0
    if num_edges == 0:
        return out
    scratch = np.empty((min(block, num_edges), d), dtype=np.float64)
    for e0 in range(0, num_edges, block):
        e1 = min(e0 + block, num_edges)
        sb = scratch[: e1 - e0]
        np.take(emb, tails[e0:e1], axis=0, out=sb)
        sb *= weights[e0:e1, None]
        first, starts, nonempty = _block_segments(offsets, e0, e1)
        reduced = np.add.reduceat(sb, starts[nonempty], axis=0)
        out[first : first + len(starts)][nonempty] += reduced
    return out


def weighted_backward_fused(
    grad_out: np.ndarray,
    emb: np.ndarray,
    w_in: np.ndarray,
    heads_in: np.ndarray,
    tails_in: np.ndarray,
    in_offsets: np.ndarray,
    block: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Both :func:`weighted_neighbor_sum` gradients in one edge pass.

    In the tail-grouped (transpose) layout, the embedding gradient
    ``g_emb[t] = Σ w_e · grad_out[heads[e]]`` and the per-edge weight
    gradient ``gw[e] = grad_out[heads[e]] · emb[tails[e]]`` read the *same*
    gathered ``grad_out`` rows — running them separately gathers that
    ``(E, d)`` block twice.  Here each block is gathered once, dotted
    against the tail rows for ``gw`` (bit-identical to
    :func:`weighted_edge_grad`: the per-edge dot is order-independent
    across edges), then scaled by ``w_in`` and segment-reduced for
    ``g_emb``.  ``gw`` comes back in tail-sorted order; the caller scatters
    it with the inverse of the tail permutation.
    """
    num_edges = len(heads_in)
    num_segments = len(in_offsets) - 1
    d = emb.shape[1]
    g_emb = np.zeros((num_segments, d), dtype=np.float64)
    gw_sorted = np.empty(num_edges, dtype=np.float64)
    if num_edges == 0:
        return g_emb, gw_sorted
    if block is None:
        block = edge_block(d)
    bmax = min(block, num_edges)
    g_gat = np.empty((bmax, d), dtype=np.float64)
    e_gat = np.empty((bmax, d), dtype=np.float64)
    for e0 in range(0, num_edges, block):
        e1 = min(e0 + block, num_edges)
        n = e1 - e0
        gb = g_gat[:n]
        eb = e_gat[:n]
        np.take(grad_out, heads_in[e0:e1], axis=0, out=gb)
        np.take(emb, tails_in[e0:e1], axis=0, out=eb)
        np.einsum("ij,ij->i", gb, eb, out=gw_sorted[e0:e1])
        gb *= w_in[e0:e1, None]
        first, starts, nonempty = _block_segments(in_offsets, e0, e1)
        reduced = np.add.reduceat(gb, starts[nonempty], axis=0)
        g_emb[first : first + len(starts)][nonempty] += reduced
    return g_emb, gw_sorted


def segment_sum_rows(
    values: np.ndarray,
    gather_idx: np.ndarray,
    run_offsets: np.ndarray,
    block: Optional[int] = None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """``out[s] = Σ_{p ∈ run s} values[gather_idx[p]]`` — blocked coalesce.

    The gradient-coalescing primitive: ``gather_idx`` permutes ``values`` rows
    so rows belonging to the same output segment are contiguous, and
    ``run_offsets`` (length ``num_runs + 1``) delimits each run.  Identical
    segment-reduction shape to :func:`weighted_neighbor_sum` minus the weight
    pass; a plain ``np.add.reduceat(values[gather_idx], ...)`` materializes
    the full permuted copy and runs ~2x slower than this blocked stream.
    """
    num_runs = len(run_offsets) - 1
    num_rows = len(gather_idx)
    d = values.shape[1]
    if block is None:
        block = edge_block(d)
    if out is None:
        out = np.zeros((num_runs, d), dtype=np.float64)
    else:
        out[:] = 0.0
    if num_rows == 0:
        return out
    scratch = np.empty((min(block, num_rows), d), dtype=np.float64)
    for e0 in range(0, num_rows, block):
        e1 = min(e0 + block, num_rows)
        sb = scratch[: e1 - e0]
        np.take(values, gather_idx[e0:e1], axis=0, out=sb)
        first, starts, nonempty = _block_segments(run_offsets, e0, e1)
        reduced = np.add.reduceat(sb, starts[nonempty], axis=0)
        out[first : first + len(starts)][nonempty] += reduced
    return out


def weighted_edge_grad(
    grad_out: np.ndarray,
    emb: np.ndarray,
    heads: np.ndarray,
    tails: np.ndarray,
    block: Optional[int] = None,
) -> np.ndarray:
    """Per-edge weight gradient ``gw[e] = grad_out[heads[e]] · emb[tails[e]]``."""
    num_edges = len(tails)
    d = emb.shape[1]
    if block is None:
        block = edge_block(d)
    gw = np.empty(num_edges, dtype=np.float64)
    if num_edges == 0:
        return gw
    bmax = min(block, num_edges)
    g_gat = np.empty((bmax, d), dtype=np.float64)
    e_gat = np.empty((bmax, d), dtype=np.float64)
    for e0 in range(0, num_edges, block):
        e1 = min(e0 + block, num_edges)
        n = e1 - e0
        np.take(grad_out, heads[e0:e1], axis=0, out=g_gat[:n])
        np.take(emb, tails[e0:e1], axis=0, out=e_gat[:n])
        np.einsum("ij,ij->i", g_gat[:n], e_gat[:n], out=gw[e0:e1])
    return gw


# ---------------------------------------------------------- fused evaluation
def masked_topk(
    user_vecs: np.ndarray,
    item_vecs: np.ndarray,
    k: int,
    neg_buf: np.ndarray,
    train_indptr: np.ndarray,
    train_indices: np.ndarray,
    batch: np.ndarray,
    valid_out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Fused score → negate → train-mask → top-k over one user batch.

    Writes ``-(user_vecs @ item_vecsᵀ)`` straight into the caller's reusable
    ``neg_buf`` rows (negating the small ``(B, dim)`` factor once instead of
    copy-negating the ``(B, N)`` score matrix), masks each user's training
    positives to ``+inf`` with one flat fancy-index, and returns the row-wise
    top-``k`` item ids, best first, stable under ties — the exact ranking the
    per-op evaluator chain produces.

    When ``k`` exceeds a row's unmasked-candidate count the selection
    necessarily includes masked (``+inf``) columns; the stable sort pushes
    them past every real candidate, so each row is always a valid prefix of
    real recommendations followed by masked filler.  ``valid_out`` (int64,
    length ≥ rows) receives each row's real-candidate count so callers that
    must never surface a masked id — the serving layer — can clamp per row,
    mirroring the single-user clamp in ``Recommender.recommend``.  A row
    whose every candidate is masked reports 0.
    """
    rows = user_vecs.shape[0]
    n_items = item_vecs.shape[0]
    if not 0 < k <= n_items:
        raise ValueError(f"k must be in [1, {n_items}] (num_items), got {k}")
    buf = neg_buf[:rows]
    if buf.dtype == user_vecs.dtype == item_vecs.dtype:
        # Negation of the (B, dim) factor is exact in IEEE arithmetic, so the
        # blocked product equals -(U @ Vᵀ) bit-for-bit.
        np.matmul(-user_vecs, item_vecs.T, out=buf)
    else:
        # Mixed precision (e.g. float32 score buffer over float64 factors):
        # compute the product at factor precision and downcast on the copy-
        # negate — the exact sequence of the per-op evaluator chain.
        np.multiply(user_vecs @ item_vecs.T, -1.0, out=buf, casting="unsafe")
    deg = train_indptr[batch + 1] - train_indptr[batch]
    total = int(deg.sum())
    if total:
        row_ids = np.repeat(np.arange(rows, dtype=np.int64), deg)
        run_starts = np.zeros(rows, dtype=np.int64)
        np.cumsum(deg[:-1], out=run_starts[1:])
        flat = np.repeat(train_indptr[batch] - run_starts, deg) + np.arange(
            total, dtype=np.int64
        )
        buf[row_ids, train_indices[flat]] = np.inf
    top = np.argpartition(buf, k - 1, axis=1)[:, :k]
    row_idx = np.arange(rows, dtype=np.int64)[:, None]
    order = np.argsort(buf[row_idx, top], axis=1, kind="stable")
    result = top[row_idx, order]
    if valid_out is not None:
        if valid_out.shape[0] < rows:
            raise ValueError(
                f"valid_out has {valid_out.shape[0]} rows, batch has {rows}"
            )
        np.sum(buf[row_idx, result] < np.inf, axis=1, out=valid_out[:rows])
    return result
