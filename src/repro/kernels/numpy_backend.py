"""NumPy/scipy implementations of the fused kernels.

Every function here operates on **raw ndarrays** — no autograd Tensors, no
tape.  The differentiable wrappers in :mod:`repro.kernels.dispatch` call
these for both directions of each fused op; each op has exactly this one
implementation, checked against the per-op autograd chain it replaced
(the drop-ins of ``tests/kernel_oracle.py``).

Run factoring and CSR products
------------------------------
The per-op oracle chains materialize ``(E, d)`` / ``(E, k)`` temporaries at
every step of the attention and propagation pipelines (gathered endpoint
embeddings, projected embeddings, tanh outputs, weighted messages, …).  The
kernels below never build a per-edge matrix:

- **Attention** (Eq. 4).  ``tanh(W_r e_h + e_r)`` depends only on the
  *(head, relation)* pair and ``W_r e_t`` only on the *(tail, relation)*
  pair, so the forward projects one row per head run and one per tail run
  (the runs come from
  :meth:`~repro.kg.adjacency.CSRAdjacency.attention_grad_groups`) and each
  score is a blocked row-dot of two run rows (:func:`gather_dot`).  The
  backward puts the score gradients in one CSR matrix ``S`` (head runs ×
  tail runs) and reduces them to run rows with two sparse products.
- **TransR** (Eq. 1).  ``W_r e`` depends only on the *(relation, entity)*
  pair, so a triple batch projects each distinct pair once
  (:func:`transr_runs`) and gathers its residuals from those rows.  The
  backward reduces the residual gradients to run and relation rows with
  one signed CSR product and runs the per-relation GEMMs on run rows.
- **Propagation** (Eq. 8).  ``Σ_{e ∈ N_h} w_e · e_t`` is the CSR product
  ``A @ emb`` with ``A = csr(w, tails, offsets)`` built straight from the
  adjacency arrays; its embedding gradient is ``Aᵀ @ grad``.
- **Aggregation** (Eqs. 6–7).  Between the two directions of a layer's
  aggregator and dropout only two boolean masks live, where the per-op
  chain keeps the combined input, three activations and a float mask.

The attention and TransR run rows are coalesced to entities by
:func:`repro.autograd.sparse.segment_sum_rows`.  Each sparse product
accumulates a row's terms sequentially in edge order, so results are
deterministic and equal to the oracle up to reassociation.  ``scipy.sparse``
is imported inside the functions that build a CSR matrix, so a process that
only selects (serving) never loads scipy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "edge_attention_forward",
    "edge_attention_backward",
    "transr_runs",
    "transr_energy_forward",
    "transr_energy_backward",
    "weighted_adjacency",
    "gather_dot",
    "aggregate_forward",
    "aggregate_backward",
    "masked_topk",
    "masked_select",
]

#: Target bytes for one gathered edge block (values chosen so the two
#: gathered blocks of :func:`gather_dot` fit in a 256 KiB+ L2 cache).
_BLOCK_TARGET_BYTES = 1 << 20
#: Rows per block of the TransR residual's gathered scratch (256 KiB at
#: k = 64).  A 2048-row (1 MiB) scratch made the OOI forward 2.5x slower:
#: that size is mapped fresh and page-faulted on every call.
_ROW_BLOCK = 512


# ------------------------------------------------------------ edge attention
def edge_attention_forward(
    ent: np.ndarray,
    rel: np.ndarray,
    proj: np.ndarray,
    head_rows: np.ndarray,
    head_bounds: np.ndarray,
    tail_rows: np.ndarray,
    tail_bounds: np.ndarray,
    head_run: np.ndarray,
    tail_run: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unnormalized attention scores ``(W_r e_t)ᵀ tanh(W_r e_h + e_r)``.

    ``head_rows``/``tail_rows`` name the entity of every head/tail run,
    grouped by relation (``head_bounds``/``tail_bounds`` slice the runs per
    relation); ``head_run``/``tail_run`` give each edge's runs in
    relation-grouped edge order.  Returns ``(scores, th, pt)``: the scores
    in relation-grouped order, ``th`` the tanh activations (one row per head
    run) and ``pt`` the projected tails (one row per tail run), both saved
    for the backward pass.
    """
    k = rel.shape[1]
    th = np.empty((len(head_rows), k), dtype=ent.dtype)
    pt = np.empty((len(tail_rows), k), dtype=ent.dtype)
    # One C-contiguous W_rᵀ per call, as in transr_energy_forward: with a
    # transposed view as the right operand, multithreaded OpenBLAS sometimes
    # stalls for tens of milliseconds.
    proj_t = np.ascontiguousarray(proj.transpose(0, 2, 1))
    for r in range(len(head_bounds) - 1):
        hs, he = int(head_bounds[r]), int(head_bounds[r + 1])
        if he == hs:
            continue
        ts, te = int(tail_bounds[r]), int(tail_bounds[r + 1])
        w_t = proj_t[r]  # (d, k)
        th_r = th[hs:he]
        np.matmul(ent[head_rows[hs:he]], w_t, out=th_r)
        th_r += rel[r]
        np.tanh(th_r, out=th_r)
        np.matmul(ent[tail_rows[ts:te]], w_t, out=pt[ts:te])
    return gather_dot(th, pt, head_run, tail_run), th, pt


def edge_attention_backward(
    grad_scores: np.ndarray,
    ent: np.ndarray,
    rel: np.ndarray,
    proj: np.ndarray,
    th: np.ndarray,
    pt: np.ndarray,
    head_offsets: np.ndarray,
    head_rows: np.ndarray,
    head_bounds: np.ndarray,
    tail_run: np.ndarray,
    tail_rows: np.ndarray,
    tail_bounds: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward of :func:`edge_attention_forward`, reduced to run rows first.

    ``grad_scores`` is the score gradient in relation-grouped order, where
    every head run is contiguous.  As the CSR matrix ``S`` (head runs × tail
    runs, ``indptr = head_offsets``, column = the edge's tail run) it gives
    the run-row gradients of both saved activations in one sparse product
    each:

    - ``d th = S @ pt``, so ``gu = (S @ pt)·(1 − th²)`` per head run;
    - ``d pt = Sᵀ @ th`` per tail run.

    ``W_r`` and ``e_r`` are constant within a relation, so the rest runs on
    run rows: ``d e_h = gu @ W_r`` and ``d e_t = gp @ W_r``,
    ``d W_r = guᵀ @ ent[head_rows] + gpᵀ @ ent[tail_rows]`` and
    ``d e_r = Σ gu``.

    Returns ``(node_vals, grad_rel, grad_proj)`` where ``node_vals`` stacks
    the per-head-run entity gradients (first ``len(head_rows)`` rows) over
    the per-tail-run ones, ready for the final coalesce to unique entities
    (:func:`repro.autograd.sparse.segment_sum_rows`).
    """
    import scipy.sparse as sp

    d = ent.shape[1]
    num_head_runs = len(head_rows)
    grad_rel = np.zeros_like(rel)
    grad_proj = np.zeros_like(proj)
    node_vals = np.empty((num_head_runs + len(tail_rows), d), dtype=ent.dtype)
    scores_grad = sp.csr_matrix(
        (grad_scores, tail_run, head_offsets), shape=(num_head_runs, len(tail_rows))
    )
    # d scores / d th = pt ; d th / d u = 1 − th² ; d scores / d pt = th.
    gu = scores_grad @ pt
    # gu *= 1 − th², through one scratch array instead of two temporaries.
    slope = np.multiply(th, th)
    np.subtract(1.0, slope, out=slope)
    gu *= slope
    del slope
    gp = scores_grad.T @ th
    for r in range(len(head_bounds) - 1):
        hs, he = int(head_bounds[r]), int(head_bounds[r + 1])
        if he == hs:
            continue
        ts, te = int(tail_bounds[r]), int(tail_bounds[r + 1])
        w_r = proj[r]  # (k, d)
        gu_r = gu[hs:he]
        gp_r = gp[ts:te]
        np.matmul(gu_r, w_r, out=node_vals[hs:he])
        np.matmul(gp_r, w_r, out=node_vals[num_head_runs + ts : num_head_runs + te])
        grad_proj[r] = gu_r.T @ ent[head_rows[hs:he]]
        grad_proj[r] += gp_r.T @ ent[tail_rows[ts:te]]
        grad_rel[r] = gu_r.sum(axis=0)
    return node_vals, grad_rel, grad_proj


# ------------------------------------------------------------ TransR energy
def transr_runs(
    heads: np.ndarray, rels: np.ndarray, tails: np.ndarray, num_entities: int, num_relations: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The distinct (relation, entity) pairs of a triple batch, grouped by relation.

    ``W_r e`` depends only on the pair, and heads and tails share one pair
    set.  Returns ``(run_rows, run_bounds, head_run, tail_run)``: the entity
    of every run, sorted by (relation, entity); the slices of runs per
    relation (length ``num_relations + 1``); and each triple's head and tail
    run.  Ids out of range raise ``IndexError``: they would alias another
    pair's key.
    """
    if len(rels) and (
        min(heads.min(), tails.min(), rels.min()) < 0
        or max(heads.max(), tails.max()) >= num_entities
        or rels.max() >= num_relations
    ):
        raise IndexError(
            f"triple ids out of range for {num_entities} entities, {num_relations} relations"
        )
    keys = np.concatenate([rels, rels]) * num_entities + np.concatenate([heads, tails])
    pair_keys, run_of = np.unique(keys, return_inverse=True)
    run_rels = pair_keys // num_entities
    run_bounds = np.searchsorted(run_rels, np.arange(num_relations + 1))
    n = len(heads)
    return pair_keys - run_rels * num_entities, run_bounds, run_of[:n], run_of[n:]


def transr_energy_forward(
    ent: np.ndarray,
    rel: np.ndarray,
    proj: np.ndarray,
    rels: np.ndarray,
    run_rows: np.ndarray,
    run_bounds: np.ndarray,
    head_run: np.ndarray,
    tail_run: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """TransR plausibility ``‖W_r e_h + e_r − W_r e_t‖²`` (Eq. 1), run-factored.

    Projects each run of :func:`transr_runs` once, one matmul per relation,
    and gathers every triple's residual ``W_r e_h + e_r − W_r e_t`` from the
    run rows.  Returns ``(scores, diff)``, ``diff`` the residuals saved for
    the backward pass.
    """
    projected = np.empty((len(run_rows), rel.shape[1]), dtype=ent.dtype)
    # C-contiguous W_rᵀ: with a transposed view as the right operand,
    # multithreaded OpenBLAS ran these (~10³ × d × k) products 1.7× slower
    # and sometimes stalled for tens of milliseconds.
    proj_t = np.ascontiguousarray(proj.transpose(0, 2, 1))
    for r in range(len(run_bounds) - 1):
        lo, hi = int(run_bounds[r]), int(run_bounds[r + 1])
        if hi > lo:
            np.matmul(ent[run_rows[lo:hi]], proj_t[r], out=projected[lo:hi])
    diff = projected[head_run]
    # Add e_r and subtract W_r e_t block by block through one small scratch:
    # two full (B, k) gather temporaries cost more in fresh pages than in
    # arithmetic.  The ids are checked by transr_runs, so the gathers run
    # unchecked (see gather_dot).
    n, k = diff.shape
    scratch = np.empty((min(_ROW_BLOCK, n), k), dtype=diff.dtype)
    for lo in range(0, n, _ROW_BLOCK):
        hi = min(lo + _ROW_BLOCK, n)
        d_b, s_b = diff[lo:hi], scratch[: hi - lo]
        d_b += np.take(rel, rels[lo:hi], axis=0, out=s_b, mode="clip")
        d_b -= np.take(projected, tail_run[lo:hi], axis=0, out=s_b, mode="clip")
    return np.einsum("ij,ij->i", diff, diff), diff


def transr_energy_backward(
    grad_scores: np.ndarray,
    ent: np.ndarray,
    proj: np.ndarray,
    rels: np.ndarray,
    diff: np.ndarray,
    run_rows: np.ndarray,
    run_bounds: np.ndarray,
    head_run: np.ndarray,
    tail_run: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward of :func:`transr_energy_forward`, reduced to run rows first.

    The residual gradient is ``2 g · diff``.  One sparse product sums it
    to run rows and relations at once: column ``t`` of the matrix holds
    triple ``t``'s three entries, ``+2g`` in its head run's row, ``−2g`` in
    its tail run's and ``+2g`` in its relation's, so every row sums its
    terms in triple order.  It is a signed 0/1 matrix with the score
    gradients folded in: it multiplies the saved residuals, and neither a
    ``(B, k)`` gradient nor a sort is needed to build it (CSC, three
    entries per column).  With ``G_r`` the run rows of relation ``r``,
    ``d e = G_r @ W_r`` per run and ``d W_r = G_rᵀ @ ent[runs of r]``.

    Returns ``(run_vals, grad_rel, grad_proj)``: the per-run entity
    gradients (rows of ``run_rows``, for the caller's coalesce to unique
    entities) and the dense ``(R, k)`` / ``(R, k, d)`` relation and
    projection gradients.
    """
    import scipy.sparse as sp

    n = len(rels)
    num_runs = len(run_rows)
    num_relations = proj.shape[0]
    rows = np.stack([head_run, tail_run, num_runs + rels], axis=1)
    weights = np.empty((n, 3), dtype=diff.dtype)
    np.multiply(grad_scores, 2.0, out=weights[:, 0])
    np.negative(weights[:, 0], out=weights[:, 1])
    weights[:, 2] = weights[:, 0]
    reduce = sp.csc_matrix(
        (weights.ravel(), rows.ravel(), np.arange(0, 3 * n + 1, 3)),
        shape=(num_runs + num_relations, n),
    )
    sums = reduce @ diff
    run_grads = sums[:num_runs]
    run_vals = np.empty((num_runs, ent.shape[1]), dtype=ent.dtype)
    grad_proj = np.zeros_like(proj)
    for r in range(num_relations):
        lo, hi = int(run_bounds[r]), int(run_bounds[r + 1])
        if hi > lo:
            np.matmul(run_grads[lo:hi], proj[r], out=run_vals[lo:hi])
            np.matmul(run_grads[lo:hi].T, ent[run_rows[lo:hi]], out=grad_proj[r])
    return run_vals, sums[num_runs:], grad_proj


# -------------------------------------------------------- fused propagation
def weighted_adjacency(
    weights: np.ndarray, tails: np.ndarray, offsets: np.ndarray, num_cols: int
) -> sp.csr_matrix:
    """CSR matrix ``A`` with ``A[h, tails[e]] = weights[e]`` for the edges of ``h``.

    Edges are sorted by head (CSR layout, ``offsets`` delimiting segments),
    so the adjacency arrays are the matrix structure as they stand: nothing
    is sorted, and parallel edges stay separate entries, which the product
    sums.
    """
    import scipy.sparse as sp

    return sp.csr_matrix(
        (weights, tails, offsets), shape=(len(offsets) - 1, num_cols)
    )


def gather_dot(
    a: np.ndarray, b: np.ndarray, a_rows: np.ndarray, b_rows: np.ndarray
) -> np.ndarray:
    """``out[e] = a[a_rows[e]] · b[b_rows[e]]``, gathered block by block.

    The attention scores (head-run row · tail-run row) and the propagation
    weight gradient (``grad_out[heads[e]] · emb[tails[e]]``).  Each block
    gathers into a reused ``(block, k)`` scratch, so no per-edge matrix is
    allocated; every dot is independent, so the block size never changes
    the result.  The row ids come from a validated adjacency, so the gathers
    run unchecked (``mode="clip"``): with the default ``mode="raise"``,
    ``np.take`` buffers every ``out=`` gather, which makes this function
    ~3× slower.
    """
    num, k = len(a_rows), a.shape[1]
    itemsize = max(a.dtype.itemsize, b.dtype.itemsize)
    block = max(512, _BLOCK_TARGET_BYTES // (itemsize * max(k, 1)))
    out = np.empty(num, dtype=np.result_type(a, b))
    if num == 0:
        return out
    bmax = min(block, num)
    a_gat = np.empty((bmax, k), dtype=a.dtype)
    b_gat = np.empty((bmax, k), dtype=b.dtype)
    for e0 in range(0, num, block):
        e1 = min(e0 + block, num)
        n = e1 - e0
        np.take(a, a_rows[e0:e1], axis=0, out=a_gat[:n], mode="clip")
        np.take(b, b_rows[e0:e1], axis=0, out=b_gat[:n], mode="clip")
        np.einsum("ij,ij->i", a_gat[:n], b_gat[:n], out=out[e0:e1])
    return out


# --------------------------------------------------------- fused aggregator
NEGATIVE_SLOPE = 0.2  # the aggregator LeakyReLU's, as in F.leaky_relu


def _combine(self_emb: np.ndarray, neigh: np.ndarray, mode: str) -> np.ndarray:
    """The aggregator input: ``e_h ‖ e_Nh`` (concat) or ``e_h + e_Nh`` (sum)."""
    if mode == "concat":
        return np.concatenate([self_emb, neigh], axis=1)
    if mode == "sum":
        return self_emb + neigh
    raise ValueError(f"mode must be 'concat' or 'sum', got {mode!r}")


def aggregate_forward(
    self_emb: np.ndarray, neigh: np.ndarray, weight: np.ndarray, bias: np.ndarray,
    mode: str, keep: Optional[np.ndarray], scale: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """``LeakyReLU(combine(e_h, e_Nh) @ W + b)``, dropout-masked (Eqs. 6–7).

    Kept entries (``keep``; ``None``: no dropout) are scaled by
    ``scale = 1 / (1 − p)`` and dropped ones by zero, the products of the
    per-op chain's float mask.  Returns ``(out, positive)``, ``positive``
    the boolean sign of the pre-activation.
    """
    out = _combine(self_emb, neigh, mode) @ weight
    out += bias
    positive = out > 0
    # max(x, 0.2·x): the LeakyReLU bit for bit, without np.where's per-element branch.
    np.maximum(out, out * NEGATIVE_SLOPE, out=out)
    if keep is not None:
        out *= scale
        out *= keep
    return out, positive


def aggregate_backward(
    grad: np.ndarray, self_emb: np.ndarray, neigh: np.ndarray, weight: np.ndarray,
    mode: str, positive: np.ndarray, keep: Optional[np.ndarray], scale: float,
) -> Tuple[np.ndarray, ...]:
    """Backward of :func:`aggregate_forward`: grads of ``(e_h, e_Nh, W, b)``.

    With ``G`` the pre-activation gradient, ``d combine = G @ Wᵀ`` and
    ``d W = combine(e_h, e_Nh)ᵀ @ G``, the combined input rebuilt here.
    """
    g = np.multiply(grad, scale)
    if keep is not None:
        g *= keep
    # Exactly 1.0 or 0.2, in g's dtype: (1 − 0.2) + 0.2 rounds to 1.
    slope = positive.astype(g.dtype)
    slope *= 1.0 - NEGATIVE_SLOPE
    slope += NEGATIVE_SLOPE
    g *= slope
    del slope
    gj = g @ weight.T
    d = self_emb.shape[1]
    inputs = (gj[:, :d], gj[:, d:]) if mode == "concat" else (gj, gj)
    return inputs + (_combine(self_emb, neigh, mode).T @ g, g.sum(axis=0))


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
    positives and selects through :func:`masked_select`, so its ranking is
    exactly that of ``masked_select`` over the negated product.

    When ``k`` exceeds a row's unmasked-candidate count the selection
    necessarily includes masked (``+inf``) columns; the stable sort pushes
    them past every real candidate, so each row is always a valid prefix of
    real recommendations followed by masked filler.  ``valid_out`` (int64,
    length ≥ rows) receives each row's real-candidate count so callers that
    must never surface a masked id — the serving layer and
    ``Recommender.recommend`` — can clamp per row.  A row whose every
    candidate is masked reports 0.
    """
    rows = user_vecs.shape[0]
    buf = neg_buf[:rows]
    if buf.dtype == user_vecs.dtype == item_vecs.dtype:
        # Negation of the (B, dim) factor is exact in IEEE arithmetic, so the
        # blocked product equals -(U @ Vᵀ) bit-for-bit.
        np.matmul(-user_vecs, item_vecs.T, out=buf)
    else:
        # Mixed precision (float32 CKAT factors, float64 buffer): compute the
        # product at factor precision and widen on the copy-negate — the
        # sequence the evaluator applies to a float32 score function.
        np.multiply(user_vecs @ item_vecs.T, -1.0, out=buf)
    return masked_select(buf, k, train_indptr, train_indices, batch, valid_out)


def masked_select(
    neg_buf: np.ndarray,
    k: int,
    train_indptr: np.ndarray,
    train_indices: np.ndarray,
    batch: np.ndarray,
    valid_out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Train-mask → top-k over a block of already-negated scores.

    The one mask-and-select in the package: the evaluator (directly and as
    the selection half of :func:`masked_topk`), the serving index and
    ``Recommender.recommend`` all rank through it, and the tests hold it to
    a brute-force full stable sort (``tests/ranking_oracle.py``).  Callers
    fill the ``(len(batch), num_items)`` block ``neg_buf`` themselves: row ``i``
    masks the CSR row ``batch[i]`` of ``train_indptr``/``train_indices`` to
    ``+inf`` in place, then the ``k`` smallest entries are selected, best
    first and stable under ties.  Every step works row by row, so a row's
    result depends on that row's scores and exclusions alone.  ``valid_out``
    is filled as in :func:`masked_topk`.
    """
    rows, n_items = neg_buf.shape
    if not 0 < k <= n_items:
        raise ValueError(f"k must be in [1, {n_items}] (num_items), got {k}")
    deg = train_indptr[batch + 1] - train_indptr[batch]
    total = int(deg.sum())
    if total:
        row_ids = np.repeat(np.arange(rows, dtype=np.int64), deg)
        run_starts = np.zeros(rows, dtype=np.int64)
        np.cumsum(deg[:-1], out=run_starts[1:])
        flat = np.repeat(train_indptr[batch] - run_starts, deg) + np.arange(
            total, dtype=np.int64
        )
        neg_buf[row_ids, train_indices[flat]] = np.inf
    top = np.argpartition(neg_buf, k - 1, axis=1)[:, :k]
    row_idx = np.arange(rows, dtype=np.int64)[:, None]
    order = np.argsort(neg_buf[row_idx, top], axis=1, kind="stable")
    result = top[row_idx, order]
    if valid_out is not None:
        if valid_out.shape[0] < rows:
            raise ValueError(
                f"valid_out has {valid_out.shape[0]} rows, batch has {rows}"
            )
        np.sum(neg_buf[row_idx, result] < np.inf, axis=1, out=valid_out[:rows])
    return result
