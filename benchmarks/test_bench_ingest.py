"""Trace-draw benchmarks: the batched draws against ``rng.choice`` loops.

``TraceGenerator.generate`` draws every record from one ``random`` call and
one inverse-CDF search per distinct mixture row; the loop it replaced
(``tests/trace_oracle.py``) called ``rng.choice`` once per user and built
the mixture rows one key at a time.  On the OOI full dataset
``test_trace_draw_speedup`` asserts that both give the same trace bit for
bit, including the trace the dataset pipeline stores, and that the batched
draw is at least 2× faster (medians of 5 interleaved calls of each).

``test_trace_stream_speedup`` does the same for the streamed trace
(``repro.facility.stream.stream_trace``) at a 3,000-user slice of the
scale recipe, against ``tests/trace_oracle.stream``'s one ``rng.choice``
per record: same records bit for bit, and at least 10× faster (medians of
3 interleaved calls; measured 36× on a 2-vCPU VM).

The timings run in a subprocess with one BLAS/OpenMP thread, so the
measurement does not depend on the host's thread pools.  Both carry the
``gate_smoke`` marker (``make bench-smoke``) and fill in
``benchmarks/results/BENCH_ingest.json``.
"""

import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

import pytest

from conftest import BENCH_SEED, update_bench_json, write_result

ROOT = pathlib.Path(__file__).resolve().parent.parent
CALLS = 5
GATE = 2.0
STREAM_USERS = 3_000
STREAM_CALLS = 3
STREAM_GATE = 10.0


def _measure(seed: int) -> dict:
    """Time both draws on the OOI full dataset; check they agree bit for bit."""
    from repro.experiments.datasets import load_dataset
    from repro.facility.trace import TraceGenerator
    from repro.utils.rng import SeedSequenceFactory
    from tests import trace_oracle

    ds = load_dataset("ooi", "full", seed=seed)
    gen = TraceGenerator(
        ds.catalog,
        ds.population,
        ds.affinity,
        queries_per_user_mean=ds.pipeline.recipe()["queries_per_user_mean"],
    )

    def trace_seed():
        return SeedSequenceFactory(seed).get("trace")

    stored = ds.trace
    batched_s, loop_s = [], []
    draws = (
        (gen.generate, batched_s),
        (lambda rng: trace_oracle.generate(gen, rng), loop_s),
    )
    identical = True
    for _ in range(CALLS):
        for draw, times in draws:
            rng = trace_seed()
            start = time.process_time()
            trace = draw(rng)
            times.append(time.process_time() - start)
            identical &= all(
                getattr(trace, name).tobytes() == getattr(stored, name).tobytes()
                for name in ("user_ids", "object_ids", "timestamps")
            )
    return {
        "records": len(stored),
        "users": gen.population.num_users,
        "objects": gen.catalog.num_objects,
        "batched_seconds": statistics.median(batched_s),
        "loop_seconds": statistics.median(loop_s),
        "identical": bool(identical),
    }


def _measure_stream(seed: int) -> dict:
    """Time ``stream_trace`` and the per-record choice loop; check they agree bit for bit."""
    from repro.facility.affinity import OOI_AFFINITY
    from repro.facility.ooi import OOIConfig, build_ooi_catalog
    from repro.facility.stream import stream_trace
    from repro.facility.users import build_user_population
    from tests import trace_oracle

    # The scale recipe's catalog and query rate (repro.experiments.scale).
    catalog = build_ooi_catalog(OOIConfig(num_sites=220), seed=seed)
    population = build_user_population(
        catalog, num_users=STREAM_USERS, num_orgs=15, num_cities=40, seed=seed + 1
    )
    args = (catalog, population, OOI_AFFINITY)
    stream_s, loop_s = [], []
    draws = (
        (lambda: stream_trace(*args, seed=seed, queries_per_user_mean=18.0).materialize(),
         stream_s),
        (lambda: trace_oracle.stream(*args, seed, 18.0), loop_s),
    )
    traces = []
    for _ in range(STREAM_CALLS):
        for draw, times in draws:
            start = time.process_time()
            traces.append(draw())
            times.append(time.process_time() - start)
    identical = all(
        getattr(trace, name).tobytes() == getattr(traces[0], name).tobytes()
        for trace in traces
        for name in ("user_ids", "object_ids", "timestamps")
    )
    return {
        "records": len(traces[0]),
        "users": STREAM_USERS,
        "objects": catalog.num_objects,
        "stream_seconds": statistics.median(stream_s),
        "loop_seconds": statistics.median(loop_s),
        "identical": bool(identical),
    }


def _run_measurement(kind: str) -> dict:
    """Run ``_measure`` (``kind="draw"``) or ``_measure_stream`` in a one-thread subprocess."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, __file__, kind, str(BENCH_SEED)],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout)


@pytest.mark.gate_smoke
def test_trace_draw_speedup():
    stats = _run_measurement("draw")
    speedup = stats["loop_seconds"] / stats["batched_seconds"]
    write_result(
        "bench_ingest",
        f"OOI full trace draw, {stats['users']} users x {stats['objects']} objects, "
        f"{stats['records']} records (CPU time, median of {CALLS} interleaved calls)\n"
        f"  per-user choice loop : {stats['loop_seconds'] * 1e3:8.2f} ms\n"
        f"  batched draw         : {stats['batched_seconds'] * 1e3:8.2f} ms  ({speedup:.1f}x)",
    )
    update_bench_json(
        "ingest",
        {**stats, "speedup": speedup, "gate": GATE, "calls": CALLS, "blas_threads": 1},
    )
    assert stats["identical"], "batched trace draw differs from the per-user choice loop"
    assert speedup >= GATE, f"batched trace draw only {speedup:.2f}x faster than the loop"


@pytest.mark.gate_smoke
def test_trace_stream_speedup():
    stats = _run_measurement("stream")
    speedup = stats["loop_seconds"] / stats["stream_seconds"]
    write_result(
        "bench_ingest_stream",
        f"Streamed trace, {stats['users']} users x {stats['objects']} objects, "
        f"{stats['records']} records (CPU time, median of {STREAM_CALLS} interleaved calls)\n"
        f"  per-record choice loop : {stats['loop_seconds'] * 1e3:8.2f} ms\n"
        f"  stream_trace           : {stats['stream_seconds'] * 1e3:8.2f} ms  ({speedup:.1f}x)",
    )
    update_bench_json(
        "ingest",
        {
            "stream": {
                **stats,
                "speedup": speedup,
                "gate": STREAM_GATE,
                "calls": STREAM_CALLS,
                "blas_threads": 1,
            }
        },
    )
    assert stats["identical"], "stream_trace differs from the per-record choice loop"
    assert speedup >= STREAM_GATE, f"stream_trace only {speedup:.2f}x faster than the loop"


if __name__ == "__main__":
    measure = {"draw": _measure, "stream": _measure_stream}[sys.argv[1]]
    print(json.dumps(measure(int(sys.argv[2]))))
