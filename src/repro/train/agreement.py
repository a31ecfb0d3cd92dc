"""Distributed-vs-serial gradient-agreement harness.

The convergence argument for :class:`~repro.train.sharded.ShardedExecutor`
is that its two-level reduction (worker-local coalesce, then rank-ordered
merge) computes *the same mathematical gradient* as a serial pass over the
same batches — the only divergence is floating-point summation
reassociation, bounded near machine epsilon.  This module measures that
divergence directly, in the style of the distributed-vs-serial adjoint
tests used by distributed-tensor frameworks (dfno/DistDL): run one round
through both reductions on identically-initialized models and report the
elementwise difference per parameter.

The report is both a test fixture (``tests/test_train_sharded.py`` asserts
``within_tolerance``) and a benchmark artifact
(``benchmarks/test_bench_parallel.py`` embeds it in ``BENCH_parallel.json``
so the documented tolerance ships with the measured speedups).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.autograd.sparse import SparseRowGrad
from repro.io.checkpoints import parameter_keys
from repro.parallel import chunk_indices
from repro.train.engine import FitConfig
from repro.train.sharded import _RankState, shard_stream_rng

__all__ = ["gradient_agreement_report", "DEFAULT_TOLERANCE"]

#: Two-level vs flat summation of a few thousand float64 terms reassociates
#: addition; the worst-case relative drift observed across the supported
#: models is orders of magnitude below this (see DESIGN §14).
DEFAULT_TOLERANCE = 1e-9


def _densify(grad) -> np.ndarray:
    return grad.to_dense() if isinstance(grad, SparseRowGrad) else np.asarray(grad)


def gradient_agreement_report(
    model_factory,
    sampler,
    config: FitConfig,
    *,
    workers: int = 2,
    epoch: int = 0,
    tolerance: Optional[float] = None,
) -> dict:
    """Compare one round's gradient: sharded two-level vs serial reduction.

    ``model_factory`` must build identically-initialized models on every
    call (fixed construction seed) — one instance runs the distributed
    reduction, a fresh one the serial reference, and any initialization
    drift would masquerade as gradient disagreement.  ``sampler`` is a
    shard-addressable sampler (``ShardedBPRSampler`` /
    :class:`~repro.train.objectives.TripleShardSampler`); both sides draw
    the *same* batches from the same per-(epoch, shard) RNG streams, so the
    comparison isolates the reduction order.

    Returns a JSON-ready report::

        {"workers": W, "epoch": e, "tolerance": tol, "within_tolerance": bool,
         "max_abs_diff": float, "max_rel_diff": float,
         "params": {key: {"max_abs_diff", "max_rel_diff", "ref_scale", "rows"}}}
    """
    if workers <= 0:
        raise ValueError(f"workers must be positive, got {workers}")
    tol = DEFAULT_TOLERANCE if tolerance is None else float(tolerance)

    # --- distributed side: worker-local accumulate+coalesce, rank-ordered merge
    model_d = model_factory()
    params_d = model_d.parameters()
    hook = getattr(model_d, "row_partitioned_parameters", None)
    part_params = list(hook()) if hook is not None else []
    index_of = {id(p): i for i, p in enumerate(params_d)}
    partitioned = sorted(index_of[id(p)] for p in part_params)
    chunks = [list(c) for c in chunk_indices(sampler.num_shards, workers)]
    while len(chunks) < workers:
        chunks.append([])
    states = [
        _RankState(w, model_d, sampler, config, shards, partitioned)
        for w, shards in enumerate(chunks)
    ]
    merged: Dict[int, object] = {}
    for state in states:  # ascending rank order — the executor's merge order
        state.start_epoch(epoch)
        _, _, grads = state.compute_round(t=1, apply_local=False)
        for i, g in grads.items():
            cur = merged.get(i)
            if cur is None:
                merged[i] = g
            elif isinstance(cur, SparseRowGrad) and isinstance(g, SparseRowGrad):
                cur.merge_(g)
            else:
                merged[i] = _densify(cur) + _densify(g)
    merged = {
        i: g.coalesce() if isinstance(g, SparseRowGrad) else g for i, g in merged.items()
    }

    # --- serial side: one flat accumulation over the identical batches
    model_s = model_factory()
    params_s = model_s.parameters()
    for p in params_s:
        p.grad = None
    for shard in range(sampler.num_shards):
        rng = shard_stream_rng(config.seed, epoch, shard)
        batch = next(sampler.shard_epoch_batches(shard, config.batch_size, rng), None)
        if batch is None:
            continue
        a, b, c = batch
        model_s.batch_loss(a, b, c, rng).backward()

    keys = parameter_keys(params_d)
    per_param: Dict[str, dict] = {}
    max_abs = 0.0
    max_rel = 0.0
    for i, (key, p) in enumerate(zip(keys, params_s)):
        g_serial = p.grad
        g_sharded = merged.get(i)
        if g_serial is None and g_sharded is None:
            continue
        dense_serial = (
            _densify(g_serial) if g_serial is not None else np.zeros(p.data.shape)
        )
        dense_sharded = (
            _densify(g_sharded) if g_sharded is not None else np.zeros(p.data.shape)
        )
        abs_diff = float(np.max(np.abs(dense_sharded - dense_serial)))
        ref_scale = float(np.max(np.abs(dense_serial)))
        rel_diff = abs_diff / ref_scale if ref_scale > 0 else abs_diff
        per_param[key] = {
            "max_abs_diff": abs_diff,
            "max_rel_diff": rel_diff,
            "ref_scale": ref_scale,
            "rows": int(p.data.shape[0]),
        }
        max_abs = max(max_abs, abs_diff)
        max_rel = max(max_rel, rel_diff)
    return {
        "workers": int(workers),
        "epoch": int(epoch),
        "tolerance": tol,
        "within_tolerance": bool(max_rel <= tol),
        "max_abs_diff": max_abs,
        "max_rel_diff": max_rel,
        "params": per_param,
    }
