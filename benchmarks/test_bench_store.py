"""Artifact-pipeline warm-vs-cold benchmark: the cache must pay for itself.

The gate: building the Table-II dataset set (OOI + GAGE at the bench scale)
through the staged pipeline with a warm artifact cache must be at least
**5× faster** than the cold build — and provably lazy: the warm pass loads
split/CKG/graph straight off the memory maps and regenerates *nothing*
(zero ``built`` in the stage counters, zero store misses, zero trace loads).
Exactness rides along: the warm arrays are bit-identical to the cold ones.

Scale knobs follow conftest (``REPRO_BENCH_SCALE``); the 5× figure targets
``full``, where trace/CKG construction dominates.  A smoke subset
(the ``gate_smoke`` marker) runs in seconds and is part of ``make verify``.
"""

import time

import numpy as np
import pytest

from conftest import BENCH_SCALE, BENCH_SEED, write_bench_json, write_result

from repro.kg.subgraphs import KnowledgeSources
from repro.pipeline import PIPELINE_STAGES, DatasetPipeline

DATASETS = ("ooi", "gage")
SOURCES = KnowledgeSources.best()
MIN_SPEEDUP = 5.0


def _build_all(cache_dir, scale):
    """One full table2-style dataset pass; returns (seconds, pipelines)."""
    pipes = []
    start = time.perf_counter()
    for name in DATASETS:
        pipe = DatasetPipeline(name, scale=scale, seed=BENCH_SEED, cache_dir=cache_dir)
        pipe.split()
        pipe.graph(SOURCES)
        pipes.append(pipe)
    return time.perf_counter() - start, pipes


def _graph_digests(pipes):
    out = {}
    for pipe in pipes:
        arrays, _ = pipe.graph(SOURCES).to_arrays()
        out[pipe.name] = {k: np.asarray(v).tobytes() for k, v in arrays.items()}
    return out


def test_warm_pipeline_speedup(tmp_path_factory):
    cache = str(tmp_path_factory.mktemp("store-bench"))
    cold_seconds, cold_pipes = _build_all(cache, BENCH_SCALE)
    warm_seconds, warm_pipes = _build_all(cache, BENCH_SCALE)
    speedup = cold_seconds / max(warm_seconds, 1e-9)

    # Zero regeneration: all warm stages are mmap loads, no misses, and the
    # Merkle key chain means the trace is never even read back.
    for pipe in warm_pipes:
        counts = pipe.stage_counters()
        assert all(counts[s]["built"] == 0 for s in PIPELINE_STAGES), counts
        assert counts["trace"]["loaded"] == 0
        assert pipe.store.stats()["misses"] == 0

    # Bit-identity: the cache changes wall-clock, never results.
    cold_digests, warm_digests = _graph_digests(cold_pipes), _graph_digests(warm_pipes)
    for name in DATASETS:
        assert cold_digests[name] == warm_digests[name]

    write_result(
        "store_pipeline",
        "Artifact pipeline, table2 dataset set "
        f"({'+'.join(DATASETS)}, scale={BENCH_SCALE})\n"
        f"  cold build : {cold_seconds * 1000:8.1f} ms\n"
        f"  warm build : {warm_seconds * 1000:8.1f} ms\n"
        f"  speedup    : {speedup:8.1f}x  (gate: >= {MIN_SPEEDUP}x)",
    )
    write_bench_json(
        "store",
        {
            "cold_seconds": cold_seconds,
            "warm_seconds": warm_seconds,
            "speedup": speedup,
            "gate": MIN_SPEEDUP,
            "datasets": list(DATASETS),
        },
    )
    assert speedup >= MIN_SPEEDUP, (
        f"warm pipeline build only {speedup:.1f}x faster than cold "
        f"({warm_seconds:.3f}s vs {cold_seconds:.3f}s); gate is {MIN_SPEEDUP}x"
    )


@pytest.mark.gate_smoke
def test_store_smoke(tmp_path):
    """Fast correctness pass (small scale, one dataset) for ``make verify``."""
    cache = str(tmp_path / "cache")
    cold = DatasetPipeline("ooi", scale="small", seed=BENCH_SEED, cache_dir=cache)
    cold.graph(SOURCES)
    assert all(cold.stage_counters()[s]["built"] == 1 for s in PIPELINE_STAGES)

    warm = DatasetPipeline("ooi", scale="small", seed=BENCH_SEED, cache_dir=cache)
    warm.graph(SOURCES)
    counts = warm.stage_counters()
    assert all(counts[s]["built"] == 0 for s in PIPELINE_STAGES)
    assert counts["trace"]["loaded"] == 0 and counts["graph"]["loaded"] == 1
    assert warm.store.stats() == {"hits": 1, "misses": 0, "builds": 0, "evictions": 0}

    c_arrays, c_meta = cold.graph(SOURCES).to_arrays()
    w_arrays, w_meta = warm.graph(SOURCES).to_arrays()
    assert c_meta == w_meta
    for name in c_arrays:
        np.testing.assert_array_equal(np.asarray(c_arrays[name]), np.asarray(w_arrays[name]))
