"""The fused-kernel gates: one full CKAT training epoch and one TransR step,
fused vs oracle, and the memory that epoch allocates.

This is the headline number for the cache-blocked kernel work
(``src/repro/kernels/``): a complete CKAT epoch at table-2 scale — the
TransR phase (10 steps x batch 2048 over the propagation store) plus the
BPR phase (14 minibatches of 512 with full batch-mode attention and
propagation) — must run at least **2x faster** with the fused kernels than
with the per-op oracle chains (``tests/kernel_oracle.py``, swapped in by
``oracle_kernels()``), *and* land on the same trained parameters.

Both sides train from the same seed on the same machine in the same
process; timings are the median of three interleaved repetitions so the
gate doesn't flap on allocator warm-up or scheduler noise.  The model is
cast to the float64 test reference (CKAT trains in float32), and parameter
agreement is asserted with ``rtol=1e-9, atol=1e-12``.  The fused kernels
sum in a different association than the chains (DESIGN.md §10): the
attention backward factors ``1 − tanh²`` out of each run's sum, and the
run-factored TransR backward sums each (relation, entity) run's residual
gradients before its GEMM where the chain multiplies per triple.  After
one epoch that leaves the trained tables within ~2e-13 of the oracle's,
relative to each table's largest entry.  The ``atol`` covers that
reassociation floor; ``rtol`` covers BLAS-build portability.

The TransR step gate (``gate_smoke``) times the phase's unit of work
alone: one margin-loss step at batch 2048, forward, backward and Adam.  Its
oracle side is ``kernel_oracle.transr_margin_loss``, which scores the
positives and the corruptions with two separate per-op energy chains.  It
runs in a fresh subprocess with one BLAS/OpenMP thread (run as a script,
this file prints that measurement), so the heap and thread pools the epoch
tests leave behind in the pytest process do not move it: after
``test_fused_epoch_speedup`` in the same process it read 5.1-5.9x, against
6.5-7.0x alone.
"""

import contextlib
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time
import tracemalloc
from functools import partial

import numpy as np
import pytest

from conftest import BENCH_SCALE, BENCH_SEED, update_bench_json, write_result

from repro.autograd import Adam
from repro.experiments.runner import build_model, default_fit_config
from repro.kg import KnowledgeSources
from repro.models import CKATConfig
from tests.ckat_reference import float64_ckat
from tests.kernel_oracle import oracle_kernels, transr_margin_loss

ROOT = pathlib.Path(__file__).resolve().parent.parent
GATE = 2.0
REPEATS = 3
#: Ceiling on the traced allocation peak of one fused epoch, over the built
#: model (MB).  Measured at full scale: 32.7 MB when each aggregator layer
#: was a chain of ten tape nodes, 25.5 MB with one aggregator node and a
#: one-node L2 normalize.
EPOCH_PEAK_CEILING_MB = 29.0
PARITY_RTOL = 1e-9
PARITY_ATOL = 1e-12
#: Floor on the oracle / fused time of one OOI TransR step (batch 2048,
#: forward, backward and Adam).  Measured on a 2-vCPU VM: 3.9-4.5x when the
#: margin loss made two energy calls that each projected every endpoint,
#: 5.8-6.1x with one run-factored call.
TRANSR_STEP_GATE = 5.0
TRANSR_BATCH = 2048
TRANSR_STEPS = 20

_CONFIG = CKATConfig(attention_mode="batch")


def _train_epoch(ooi_dataset, ckg, graph, backend):
    """Build a fresh float64 CKAT from BENCH_SEED and train one epoch under ``backend``."""
    model = float64_ckat(
        build_model("CKAT", ooi_dataset, ckg, seed=BENCH_SEED, ckat_config=_CONFIG, graph=graph)
    )
    fit_cfg = default_fit_config("CKAT", epochs=1, seed=BENCH_SEED)
    kernels = oracle_kernels() if backend == "oracle" else contextlib.nullcontext()
    with kernels:
        t0 = time.perf_counter()
        model.fit(ooi_dataset.split.train, fit_cfg)
        elapsed = time.perf_counter() - t0
    return elapsed, model


def _param_tables(model):
    tr = model.transr
    return {
        "entity_emb": tr.entity_emb.data,
        "relation_emb": tr.relation_emb.data,
        "proj": tr.proj.data,
    }


def test_fused_epoch_speedup(ooi_dataset):
    """Fused kernels ≥2x faster than the oracle chains on a full CKAT epoch."""
    ckg = ooi_dataset.build_ckg(KnowledgeSources.best())
    graph = ooi_dataset.prepared_graph(KnowledgeSources.best())

    # Untimed warm-up per backend: page in the dataset, the adjacency caches
    # and the BLAS threads so neither timed side pays the cold start.
    _train_epoch(ooi_dataset, ckg, graph, "oracle")
    _train_epoch(ooi_dataset, ckg, graph, "numpy")

    times = {"oracle": [], "numpy": []}
    models = {}
    for _ in range(REPEATS):  # interleaved so machine drift hits both sides
        for backend in ("oracle", "numpy"):
            elapsed, model = _train_epoch(ooi_dataset, ckg, graph, backend)
            times[backend].append(elapsed)
            models[backend] = model

    t_oracle = statistics.median(times["oracle"])
    t_fused = statistics.median(times["numpy"])
    speedup = t_oracle / t_fused

    # Same seed, same machine → the two trajectories must coincide up to
    # the kernels' reassociation (module docstring), which atol absorbs.
    drift = {}
    oracle_tables = _param_tables(models["oracle"])
    fused_tables = _param_tables(models["numpy"])
    for name, ref in oracle_tables.items():
        got = fused_tables[name]
        np.testing.assert_allclose(got, ref, rtol=PARITY_RTOL, atol=PARITY_ATOL)
        denom = max(float(np.abs(ref).max()), 1e-30)
        drift[name] = float(np.abs(got - ref).max()) / denom

    checksum = float(np.abs(oracle_tables["entity_emb"]).sum())
    write_result(
        "bench_kernels_fused_epoch",
        "CKAT full training epoch (table-2 scale, batch attention), fused vs oracle\n"
        f"  oracle per-op chains : {t_oracle * 1e3:8.1f} ms  (median of {REPEATS})\n"
        f"  fused kernels        : {t_fused * 1e3:8.1f} ms  ({speedup:.2f}x, gate >= {GATE}x)\n"
        f"  trained-param drift  : "
        + ", ".join(f"{k}={v:.1e}" for k, v in sorted(drift.items()))
        + f"\n  entity-table |.|-sum : {checksum:.11f}",
    )
    update_bench_json(
        "kernels",
        {
            "oracle_seconds": t_oracle,
            "fused_seconds": t_fused,
            "oracle_seconds_all": times["oracle"],
            "fused_seconds_all": times["numpy"],
            "speedup": speedup,
            "gate": GATE,
            "backend": "numpy",
            "parity_rtol": PARITY_RTOL,
            "parity_atol": PARITY_ATOL,
            "max_relative_drift": max(drift.values()),
            "entity_abs_sum": checksum,
        },
    )
    assert speedup >= GATE, (
        f"fused epoch only {speedup:.2f}x faster than oracle "
        f"({t_fused:.3f}s vs {t_oracle:.3f}s); gate is {GATE}x"
    )


@pytest.mark.gate_smoke
def test_fused_epoch_traced_peak(ooi_dataset):
    """One fused epoch's ``tracemalloc`` peak stays under the ceiling.

    The peak is taken over what the built model already holds, so it counts
    the step's activations, gradients and optimizer state.  Allocation sizes
    do not depend on host speed, so the gate does not flap.
    """
    ckg = ooi_dataset.build_ckg(KnowledgeSources.best())
    graph = ooi_dataset.prepared_graph(KnowledgeSources.best())
    model = build_model(
        "CKAT", ooi_dataset, ckg, seed=BENCH_SEED, ckat_config=_CONFIG, graph=graph
    )
    fit_cfg = default_fit_config("CKAT", epochs=1, seed=BENCH_SEED)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        model.fit(ooi_dataset.split.train, fit_cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    peak_mb = (peak - base) / 2**20
    write_result(
        "bench_kernels_epoch_peak",
        "CKAT fused training epoch (batch attention), traced allocation peak\n"
        f"  over the built model : {peak_mb:6.2f} MB  (ceiling {EPOCH_PEAK_CEILING_MB} MB)",
    )
    update_bench_json(
        "kernels",
        {
            "epoch_traced_peak_mb": peak_mb,
            "epoch_traced_peak_ceiling_mb": EPOCH_PEAK_CEILING_MB,
        },
    )
    assert peak_mb <= EPOCH_PEAK_CEILING_MB, (
        f"one fused epoch allocated a {peak_mb:.2f} MB traced peak; "
        f"the ceiling is {EPOCH_PEAK_CEILING_MB} MB"
    )


def _transr_step_seconds(model, backend):
    """Median wall time of ``TRANSR_STEPS`` TransR steps under ``backend``.

    Each step is what the CKAT TransR phase runs: zero the grads, the margin
    loss over a sampled batch and its corruption, backward, one Adam step.
    Sampling is outside the timed region.
    """
    transr = model.transr
    store = model.ckg.propagation_store
    optimizer = Adam(transr.parameters(), lr=1e-3)
    rng = np.random.default_rng(BENCH_SEED)
    if backend == "oracle":
        margin_loss = partial(transr_margin_loss, transr)
    else:
        margin_loss = transr.margin_loss
    times = []
    for _ in range(TRANSR_STEPS):
        heads, rels, tails = transr.sample_triples(store, TRANSR_BATCH, rng)
        t0 = time.perf_counter()
        optimizer.zero_grad()
        margin_loss(heads, rels, tails, rng).backward()
        optimizer.step()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _transr_step_medians(scale: str, seed: int) -> dict:
    """Oracle and fused TransR step seconds on a fresh OOI CKAT.

    Both backends step the same model in interleaved rounds (the parameter
    values do not change the work); each side's time is the median over
    rounds of the per-round median step.
    """
    from repro.experiments.datasets import load_dataset

    ooi_dataset = load_dataset("ooi", scale=scale, seed=seed)
    ckg = ooi_dataset.build_ckg(KnowledgeSources.best())
    graph = ooi_dataset.prepared_graph(KnowledgeSources.best())
    model = build_model(
        "CKAT", ooi_dataset, ckg, seed=seed, ckat_config=_CONFIG, graph=graph
    )
    for backend in ("oracle", "numpy"):  # untimed warm-up
        _transr_step_seconds(model, backend)
    times = {"oracle": [], "numpy": []}
    for _ in range(REPEATS):
        for backend in ("oracle", "numpy"):
            times[backend].append(_transr_step_seconds(model, backend))
    return {
        "oracle_seconds": statistics.median(times["oracle"]),
        "fused_seconds": statistics.median(times["numpy"]),
    }


@pytest.mark.gate_smoke
def test_transr_step_speedup():
    """One OOI TransR step, fused vs oracle, clears ``TRANSR_STEP_GATE``.

    Measured by :func:`_transr_step_medians` in a fresh subprocess with one
    BLAS/OpenMP thread.
    """
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, __file__, BENCH_SCALE, str(BENCH_SEED)],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    stats = json.loads(proc.stdout)
    t_oracle, t_fused = stats["oracle_seconds"], stats["fused_seconds"]
    speedup = t_oracle / t_fused
    write_result(
        "bench_kernels_transr_step",
        f"CKAT TransR step (batch {TRANSR_BATCH}, Adam), fused vs oracle\n"
        f"  oracle per-op chains : {t_oracle * 1e3:7.2f} ms  (median of {REPEATS} rounds)\n"
        f"  fused kernels        : {t_fused * 1e3:7.2f} ms  "
        f"({speedup:.2f}x, gate >= {TRANSR_STEP_GATE}x)",
    )
    update_bench_json(
        "kernels",
        {
            "transr_step_oracle_seconds": t_oracle,
            "transr_step_fused_seconds": t_fused,
            "transr_step_speedup": speedup,
            "transr_step_gate": TRANSR_STEP_GATE,
            "transr_step_blas_threads": 1,
        },
    )
    assert speedup >= TRANSR_STEP_GATE, (
        f"fused TransR step only {speedup:.2f}x faster than oracle "
        f"({t_fused * 1e3:.2f} ms vs {t_oracle * 1e3:.2f} ms); gate is {TRANSR_STEP_GATE}x"
    )


if __name__ == "__main__":
    print(json.dumps(_transr_step_medians(sys.argv[1], int(sys.argv[2]))))
