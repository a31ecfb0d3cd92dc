"""Data-parallel training benchmark: ≥2x epoch speedup is the gate.

Trains BPRMF and TransR through :class:`~repro.train.TrainEngine` twice —
once with :class:`~repro.train.SerialExecutor`, once with
:class:`~repro.train.ShardedExecutor` over fork workers and mmap'd shared
parameter segments — on the same shard-addressable sampler, and asserts the
parallel run finishes its epochs at least ``SPEEDUP_FLOOR``× faster.  The
timed window includes executor setup (fork + segment arena), so the gate is
conservative: the speedup is what a caller of ``repro train --workers N``
actually observes.

Speed is necessary but not sufficient — each timed run is paired with a
:func:`~repro.train.gradient_agreement_report` check that the distributed
first-round gradient matches a serial reduction of the identical batches to
within the documented tolerance (DESIGN §14: summation reassociation is the
only permitted divergence).

Dataset sizes reuse the tiers of ``test_bench_scale.py``: the default
(``full``) run trains at that file's 1e5-user tier, ``REPRO_BENCH_SCALE=small``
at its 3e4-user smoke tier.  The speedup tests skip on machines with fewer
than four cores — a fork pool cannot demonstrate parallel speedup without
parallel hardware — but the smoke subset (the ``gate_smoke`` marker, wired into
``make verify`` as ``bench-smoke``) runs everywhere: fork-vs-inline
loss identity plus both agreement gates, and it still emits
``BENCH_parallel.json`` so CI always uploads an artifact.
"""

import os
import time

import numpy as np
import pytest
from conftest import BENCH_SCALE, write_bench_json, write_result

from repro.data.interactions import InteractionDataset
from repro.data.sampling import ShardedBPRSampler
from repro.models import BPRMF
from repro.models.base import FitConfig
from repro.train import (
    SerialExecutor,
    ShardedExecutor,
    TrainEngine,
    TransRObjective,
    TripleShardSampler,
    gradient_agreement_report,
)
from repro.train.agreement import DEFAULT_TOLERANCE
from repro.utils.tables import TextTable

WORKERS = 4
CORES = os.cpu_count() or 1
SPEEDUP_FLOOR = 2.0

needs_cores = pytest.mark.skipif(
    CORES < WORKERS,
    reason=f"speedup gate needs >= {WORKERS} cores, have {CORES}",
)

# (num_users, num_items, interactions, epochs) per scale tier; user counts
# match test_bench_scale.py's SMALL/SMOKE tiers.
if BENCH_SCALE == "full":
    BPR_USERS, BPR_ITEMS, BPR_N, BPR_EPOCHS = 100_000, 20_000, 2_000_000, 3
    KG_ENTITIES, KG_RELATIONS, KG_TRIPLES, KG_EPOCHS = 50_000, 8, 500_000, 3
else:
    BPR_USERS, BPR_ITEMS, BPR_N, BPR_EPOCHS = 30_000, 6_000, 600_000, 2
    KG_ENTITIES, KG_RELATIONS, KG_TRIPLES, KG_EPOCHS = 15_000, 8, 150_000, 2

BPR_DIM, BPR_BATCH = 64, 8192
KG_ENT_DIM, KG_REL_DIM, KG_BATCH = 64, 32, 4096

# One JSON artifact accumulates across the tests of this module; each test
# rewrites the file so a partial (smoke-only) run still leaves a valid doc.
_RESULTS: dict = {"workers": WORKERS, "cores": CORES, "tolerance": DEFAULT_TOLERANCE}


def _flush():
    write_bench_json("parallel", _RESULTS)


def _interactions(num_users, num_items, n, seed=0):
    rng = np.random.default_rng(seed)
    return InteractionDataset(
        rng.integers(0, num_users, n),
        rng.integers(0, num_items, n),
        num_users=num_users,
        num_items=num_items,
    )


def _triples(num_entities, num_relations, n, seed=0):
    rng = np.random.default_rng(seed)
    return (
        rng.integers(0, num_entities, n),
        rng.integers(0, num_relations, n),
        rng.integers(0, num_entities, n),
    )


def _timed_fit(model, sampler, cfg, executor, data=None):
    start = time.perf_counter()
    result = TrainEngine(model, executor=executor).fit(data, cfg, sampler=sampler)
    return time.perf_counter() - start, result


def _speedup_row(name, serial_s, parallel_s, epochs, agreement):
    speedup = serial_s / parallel_s
    _RESULTS[name] = {
        "epochs": epochs,
        "serial_seconds": round(serial_s, 3),
        "parallel_seconds": round(parallel_s, 3),
        "serial_epoch_seconds": round(serial_s / epochs, 3),
        "parallel_epoch_seconds": round(parallel_s / epochs, 3),
        "speedup": round(speedup, 3),
        "speedup_floor": SPEEDUP_FLOOR,
        "agreement_max_rel_diff": agreement["max_rel_diff"],
    }
    _flush()
    return speedup


def _render_table():
    table = TextTable(
        ["model", "epochs", "serial s", f"{WORKERS}-worker s", "speedup", "grad rel diff"],
        title=f"Data-parallel training, {WORKERS} workers on {CORES} cores (scale={BENCH_SCALE})",
        float_digits=2,
    )
    for name in ("bprmf", "transr"):
        if name in _RESULTS:
            row = _RESULTS[name]
            table.add_row(
                [
                    name,
                    row["epochs"],
                    row["serial_seconds"],
                    row["parallel_seconds"],
                    f"{row['speedup']:.2f}x",
                    f"{row['agreement_max_rel_diff']:.1e}",
                ]
            )
    write_result("parallel", table.render())


@needs_cores
def test_bprmf_epoch_speedup():
    data = _interactions(BPR_USERS, BPR_ITEMS, BPR_N)
    shards = 2 * WORKERS
    sampler = ShardedBPRSampler(data, users_per_shard=-(-BPR_USERS // shards))
    cfg = FitConfig(epochs=BPR_EPOCHS, batch_size=BPR_BATCH, seed=3)

    agreement = gradient_agreement_report(
        lambda: BPRMF(BPR_USERS, BPR_ITEMS, dim=BPR_DIM, seed=1),
        sampler,
        cfg,
        workers=WORKERS,
    )
    assert agreement["within_tolerance"], agreement

    serial_s, rs = _timed_fit(
        BPRMF(BPR_USERS, BPR_ITEMS, dim=BPR_DIM, seed=1), sampler, cfg, SerialExecutor(), data
    )
    parallel_s, rp = _timed_fit(
        BPRMF(BPR_USERS, BPR_ITEMS, dim=BPR_DIM, seed=1),
        sampler,
        cfg,
        ShardedExecutor(WORKERS),
        data,
    )
    assert np.isfinite(rp.losses).all() and rp.losses[-1] < rp.losses[0]
    assert np.isfinite(rs.losses).all()

    speedup = _speedup_row("bprmf", serial_s, parallel_s, BPR_EPOCHS, agreement)
    _render_table()
    assert speedup >= SPEEDUP_FLOOR, (
        f"BPRMF {WORKERS}-worker epochs only {speedup:.2f}x faster than serial "
        f"({parallel_s:.1f}s vs {serial_s:.1f}s); gate is {SPEEDUP_FLOOR}x"
    )


@needs_cores
def test_transr_epoch_speedup():
    h, r, t = _triples(KG_ENTITIES, KG_RELATIONS, KG_TRIPLES)
    shards = 2 * WORKERS
    sampler = TripleShardSampler(h, r, t, rows_per_shard=-(-KG_TRIPLES // shards))
    cfg = FitConfig(epochs=KG_EPOCHS, batch_size=KG_BATCH, seed=3)

    def make():
        return TransRObjective(
            KG_ENTITIES, KG_RELATIONS, entity_dim=KG_ENT_DIM, relation_dim=KG_REL_DIM, seed=1
        )

    agreement = gradient_agreement_report(make, sampler, cfg, workers=WORKERS)
    assert agreement["within_tolerance"], agreement

    serial_s, rs = _timed_fit(make(), sampler, cfg, SerialExecutor())
    parallel_s, rp = _timed_fit(make(), sampler, cfg, ShardedExecutor(WORKERS))
    assert np.isfinite(rp.losses).all()
    assert np.isfinite(rs.losses).all()

    speedup = _speedup_row("transr", serial_s, parallel_s, KG_EPOCHS, agreement)
    _render_table()
    assert speedup >= SPEEDUP_FLOOR, (
        f"TransR {WORKERS}-worker epochs only {speedup:.2f}x faster than serial "
        f"({parallel_s:.1f}s vs {serial_s:.1f}s); gate is {SPEEDUP_FLOOR}x"
    )


@pytest.mark.gate_smoke
def test_parallel_smoke_agreement():
    """Runs on any core count: correctness gates + the JSON artifact.

    Fork-vs-inline loss identity shows the multiprocess plumbing (segment
    arena, slab exchange, round barrier) changes nothing versus the same
    arithmetic run inline; the agreement reports bound the distributed
    gradient against a serial reduction of identical batches.
    """
    data = _interactions(2_000, 400, 40_000, seed=1)
    sampler = ShardedBPRSampler(data, users_per_shard=256)
    cfg = FitConfig(epochs=2, batch_size=1024, seed=3)

    _, inline = _timed_fit(
        BPRMF(2_000, 400, dim=16, seed=1),
        sampler,
        cfg,
        ShardedExecutor(2, parallel=False),
        data,
    )
    fork_s, fork = _timed_fit(
        BPRMF(2_000, 400, dim=16, seed=1), sampler, cfg, ShardedExecutor(2), data
    )
    assert fork.losses == inline.losses, "fork workers must match inline execution exactly"

    bpr_rep = gradient_agreement_report(
        lambda: BPRMF(2_000, 400, dim=16, seed=1), sampler, cfg, workers=2
    )
    assert bpr_rep["within_tolerance"], bpr_rep

    h, r, t = _triples(1_500, 5, 20_000, seed=2)
    kg_sampler = TripleShardSampler(h, r, t, rows_per_shard=2_500)
    kg_rep = gradient_agreement_report(
        lambda: TransRObjective(1_500, 5, entity_dim=16, relation_dim=8, seed=1),
        kg_sampler,
        FitConfig(epochs=1, batch_size=1024, seed=3),
        workers=2,
    )
    assert kg_rep["within_tolerance"], kg_rep

    _RESULTS["smoke"] = {
        "fork_seconds": round(fork_s, 3),
        "bprmf_agreement": {k: bpr_rep[k] for k in ("max_abs_diff", "max_rel_diff", "workers")},
        "transr_agreement": {k: kg_rep[k] for k in ("max_abs_diff", "max_rel_diff", "workers")},
    }
    _flush()
