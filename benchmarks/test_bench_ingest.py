"""Trace-draw benchmarks: the batched draws against ``rng.choice`` loops.

``TraceGenerator.generate`` draws every record from one ``random`` call and
one inverse-CDF search per distinct mixture row; the loop it replaced
(``tests/trace_oracle.py``) called ``rng.choice`` once per user and built
the mixture rows one key at a time.  On the OOI full dataset
``test_trace_draw_speedup`` asserts that both give the same trace bit for
bit, including the trace the dataset pipeline stores, and that the batched
draw is at least 2× faster (medians of 5 interleaved calls of each).

The timings run in a subprocess with one BLAS/OpenMP thread, so the
measurement does not depend on the host's thread pools.  The gate carries
the ``gate_smoke`` marker (``make bench-smoke``) and writes
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

from conftest import BENCH_SEED, write_bench_json, write_result

ROOT = pathlib.Path(__file__).resolve().parent.parent
CALLS = 5
GATE = 2.0


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


def _run_measurement() -> dict:
    """Run ``_measure`` in a one-thread subprocess."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, __file__, str(BENCH_SEED)],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout)


@pytest.mark.gate_smoke
def test_trace_draw_speedup():
    stats = _run_measurement()
    speedup = stats["loop_seconds"] / stats["batched_seconds"]
    write_result(
        "bench_ingest",
        f"OOI full trace draw, {stats['users']} users x {stats['objects']} objects, "
        f"{stats['records']} records (CPU time, median of {CALLS} interleaved calls)\n"
        f"  per-user choice loop : {stats['loop_seconds'] * 1e3:8.2f} ms\n"
        f"  batched draw         : {stats['batched_seconds'] * 1e3:8.2f} ms  ({speedup:.1f}x)",
    )
    write_bench_json(
        "ingest",
        {**stats, "speedup": speedup, "gate": GATE, "calls": CALLS, "blas_threads": 1},
    )
    assert stats["identical"], "batched trace draw differs from the per-user choice loop"
    assert speedup >= GATE, f"batched trace draw only {speedup:.2f}x faster than the loop"


if __name__ == "__main__":
    print(json.dumps(_measure(int(sys.argv[1]))))
