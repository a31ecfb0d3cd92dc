"""Sparse-row gradient benchmarks: TransR epoch speedup and exactness gates.

The tentpole claim: at facility scale (≥50k entities) an embedding-training
epoch spends almost all its time materializing and consuming dense
table-shaped gradients — ``zeros_like(entity_table)`` per gather backward
plus a full-table optimizer update per step — when a 2048-triple batch only
touches a few thousand rows.  The sparse-row path (``SparseRowGrad``) must
deliver ≥3x on a TransR epoch at that scale while agreeing with the dense
path on small fixtures to rtol=1e-10 (bit-for-bit on batches without
duplicate rows; summation-associativity rounding otherwise).

The exactness tests carry the ``gate_smoke`` marker, so ``make bench-smoke``
runs them in CI without the 50k-entity timing run.
"""

import time

import numpy as np
import pytest

from repro.autograd import SGD, Adam, SparseRowGrad, dense_grads
from repro.models.embeddings import TransR

from conftest import write_bench_json, write_result

N_ENT = 50_000
N_REL = 8
DIM = 32
BATCH = 2048
STEPS = 8


def _epoch_batches(rng, n_ent=N_ENT, n_rel=N_REL, steps=STEPS, batch=BATCH):
    return [
        (
            rng.integers(0, n_ent, size=batch),
            rng.integers(0, n_rel, size=batch),
            rng.integers(0, n_ent, size=batch),
        )
        for _ in range(steps)
    ]


def _run_epoch(batches, *, dense, n_ent=N_ENT, n_rel=N_REL, dim=DIM, opt_cls=Adam, lr=0.01):
    """One TransR epoch over pre-sampled batches; returns (seconds, losses)."""
    model = TransR(n_ent, n_rel, entity_dim=dim, relation_dim=dim, seed=0)
    opt = opt_cls(model.parameters(), lr=lr)
    rng = np.random.default_rng(42)  # corruption sampling, identical per run
    ctx = dense_grads() if dense else _null_ctx()
    losses = []
    with ctx:
        t0 = time.perf_counter()
        for h, r, t in batches:
            opt.zero_grad()
            loss = model.margin_loss(h, r, t, rng)
            loss.backward()
            opt.step()
            losses.append(loss.item())
        elapsed = time.perf_counter() - t0
    return elapsed, losses, model


class _null_ctx:
    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


# ------------------------------------------------------------------ the gate
def test_transr_epoch_speedup():
    """Sparse path ≥3x faster than dense on a 50k-entity TransR epoch."""
    batches = _epoch_batches(np.random.default_rng(7))
    # Warm-up (allocator, caches) on a truncated epoch.
    _run_epoch(batches[:2], dense=False)
    _run_epoch(batches[:2], dense=True)

    t_sparse, losses_sparse, _ = _run_epoch(batches, dense=False)
    t_dense, losses_dense, _ = _run_epoch(batches, dense=True)
    speedup = t_dense / t_sparse
    touched = len(np.unique(np.concatenate([np.r_[h, t] for h, _, t in batches])))
    write_result(
        "bench_sparse_grads",
        f"TransR epoch, {N_ENT} entities x dim {DIM}, {STEPS} steps x batch {BATCH} (Adam)\n"
        f"  rows touched         : {touched} of {N_ENT}\n"
        f"  dense gradients      : {t_dense * 1e3:8.1f} ms\n"
        f"  sparse-row gradients : {t_sparse * 1e3:8.1f} ms  ({speedup:.1f}x)\n"
        f"  first-step loss agreement: {abs(losses_sparse[0] - losses_dense[0]):.2e}",
    )
    write_bench_json(
        "sparse_grads",
        {
            "dense_seconds": t_dense,
            "sparse_seconds": t_sparse,
            "speedup": speedup,
            "gate": 3.0,
            "entities": N_ENT,
            "dim": DIM,
            "rows_touched": int(touched),
        },
    )
    assert np.isfinite(losses_sparse).all() and np.isfinite(losses_dense).all()
    # Step 1 starts from identical params and zero moments, so the losses of
    # the first two steps agree to rounding (lazy Adam only diverges on rows
    # it deliberately leaves untouched).
    assert abs(losses_sparse[0] - losses_dense[0]) < 1e-10
    assert speedup >= 3.0, f"sparse path only {speedup:.2f}x faster than dense"


# ------------------------------------------------------ small-fixture gates
@pytest.mark.gate_smoke
def test_gradients_match_dense_small():
    """Backward emits the same per-parameter gradient either way (rtol 1e-10)."""
    batches = _epoch_batches(np.random.default_rng(3), n_ent=60, n_rel=4, steps=1, batch=64)
    h, r, t = batches[0]

    def grads(dense):
        model = TransR(60, 4, entity_dim=8, relation_dim=8, seed=0)
        rng = np.random.default_rng(5)
        ctx = dense_grads() if dense else _null_ctx()
        with ctx:
            model.margin_loss(h, r, t, rng).backward()
        return [np.asarray(p.grad) for p in model.parameters()]

    for gs, gd in zip(grads(dense=False), grads(dense=True)):
        np.testing.assert_allclose(gs, gd, rtol=1e-10, atol=1e-14)


@pytest.mark.gate_smoke
def test_training_matches_dense_small():
    """A full small-table SGD run lands on the same parameters (rtol 1e-10)."""
    batches = _epoch_batches(np.random.default_rng(11), n_ent=60, n_rel=4, steps=6, batch=64)
    _, losses_s, sparse = _run_epoch(batches, dense=False, n_ent=60, n_rel=4, dim=8, opt_cls=SGD)
    _, losses_d, dense = _run_epoch(batches, dense=True, n_ent=60, n_rel=4, dim=8, opt_cls=SGD)
    np.testing.assert_allclose(losses_s, losses_d, rtol=1e-10)
    for p, q in zip(sparse.parameters(), dense.parameters()):
        np.testing.assert_allclose(p.data, q.data, rtol=1e-10, atol=1e-14)


@pytest.mark.gate_smoke
def test_sparse_path_is_active():
    """The default engine really emits SparseRowGrad for embedding gathers
    (guards against the benchmark silently comparing dense to dense)."""
    model = TransR(60, 4, entity_dim=8, relation_dim=8, seed=0)
    rng = np.random.default_rng(0)
    h, r, t = (rng.integers(0, 60, 16), rng.integers(0, 4, 16), rng.integers(0, 60, 16))
    model.margin_loss(h, r, t, rng).backward()
    assert isinstance(model.entity_emb.grad, SparseRowGrad)
