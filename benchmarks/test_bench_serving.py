"""Serving throughput gate: sustained rps, p99 latency, batched bit-identity.

Freezes a BPRMF model at bench scale into a :class:`ScoreIndex`, starts the
asyncio server on an ephemeral port, and drives it with concurrent
keep-alive clients in the same event loop — the single-core worst case,
since server scoring and client load contend for one interpreter.

Gates (full scale):

- ``>= 500`` requests/sec sustained over the timed window;
- p99 request latency ``<= 50 ms`` (client-measured, queueing included);
- every response observed under concurrent load is bit-identical (ids AND
  scores) to single-request scoring against a fresh service;
- after the timed window, a fold-in of every item but one takes ``< 1 s``
  (rejection-sampled negatives took ~11 s on the OOI catalog).  The min and
  median of 64 fold-ins of 3–20 held-out test items are recorded alongside.

Emits ``BENCH_serving.json`` next to the other benchmark gate artifacts.
The test carries the ``gate_smoke`` marker, so ``make bench-smoke`` (part
of ``make verify``) runs all three gates on every push.
"""

import asyncio
import time

import numpy as np
import pytest

from benchmarks.conftest import BENCH_SCALE, BENCH_SEED, write_bench_json, write_result
from repro.models import BPRMF
from repro.models.base import FitConfig
from repro.serving import RecommendServer, RecommendService, ScoreIndex, ServingClient

GATE_RPS = 500.0
GATE_P99_SECONDS = 0.050

NUM_CLIENTS = 8
WARMUP_REQUESTS = 200
TIMED_REQUESTS = 4000
REQUEST_K = 10
FREEZE_EPOCHS = 2  # serving cost is independent of model quality
FOLDIN_SETS = 64
GATE_ALL_BUT_ONE_SECONDS = 1.0


def _freeze_index(ooi_dataset):
    train = ooi_dataset.split.train
    model = BPRMF(train.num_users, train.num_items, dim=64, seed=BENCH_SEED)
    model.fit(train, FitConfig(epochs=FREEZE_EPOCHS, batch_size=512, seed=BENCH_SEED))
    return ScoreIndex.from_model(model, train)


async def _drive(index):
    service = RecommendService(index)
    server = RecommendServer(service, port=0, max_batch=64)
    host, port = await server.start()
    clients = [await ServingClient(host, port).connect() for _ in range(NUM_CLIENTS)]
    num_users = index.num_users
    latencies = np.empty(TIMED_REQUESTS, dtype=np.float64)
    observed = {}

    async def run_client(worker, count, offset, timed):
        for i in range(count):
            user = (offset + i * 13 + worker * 131) % num_users
            start = time.perf_counter()
            status, body = await clients[worker].recommend(user=user, k=REQUEST_K)
            elapsed = time.perf_counter() - start
            assert status == 200, body
            if timed:
                latencies[offset + i] = elapsed
                observed[user] = body

    # Warmup: populate the LRU cache and let the loop settle.
    per_warm = WARMUP_REQUESTS // NUM_CLIENTS
    await asyncio.gather(
        *[run_client(w, per_warm, w * per_warm, False) for w in range(NUM_CLIENTS)]
    )
    per_client = TIMED_REQUESTS // NUM_CLIENTS
    wall_start = time.perf_counter()
    await asyncio.gather(
        *[run_client(w, per_client, w * per_client, True) for w in range(NUM_CLIENTS)]
    )
    wall = time.perf_counter() - wall_start
    for client in clients:
        await client.close()
    await server.stop()
    return wall, latencies, observed, service.stats()


def _time_foldins(index, test):
    """Wall ms of fold-ins of 3–20 held-out items from each of up to
    ``FOLDIN_SETS`` test users, and seconds of one all-but-one fold-in."""
    rng = np.random.default_rng(BENCH_SEED)
    service = RecommendService(index)
    users = np.flatnonzero(np.diff(test.user_offsets) >= 3)
    users = rng.choice(users, size=min(FOLDIN_SETS, users.size), replace=False)
    set_ms = []
    for u in users:
        items = test.item_ids[test.user_offsets[u] : test.user_offsets[u + 1]]
        picked = rng.choice(items, size=min(int(rng.integers(3, 21)), items.size), replace=False)
        start = time.perf_counter()
        service.fold_in(picked)
        set_ms.append(1e3 * (time.perf_counter() - start))
    start = time.perf_counter()
    service.fold_in(np.delete(np.arange(index.num_items), index.num_items // 2))
    return np.array(set_ms), time.perf_counter() - start


@pytest.mark.gate_smoke
def test_bench_serving_throughput(ooi_dataset):
    index = _freeze_index(ooi_dataset)
    wall, latencies, observed, stats = asyncio.run(_drive(index))
    set_ms, all_but_one_s = _time_foldins(index, ooi_dataset.split.test)

    rps = TIMED_REQUESTS / wall
    p50, p99 = np.percentile(latencies, [50, 99])
    mean_batch = TIMED_REQUESTS / max(stats["batches"] - 0, 1)

    # Bit-identity: every response captured under concurrent load must equal
    # single-request scoring on a fresh service over the same frozen index.
    fresh = RecommendService(index)
    mismatches = 0
    for user, body in observed.items():
        expect = fresh.recommend_one({"user": int(user), "k": REQUEST_K})
        if body["items"] != expect["items"] or body["scores"] != expect["scores"]:
            mismatches += 1
    assert mismatches == 0, f"{mismatches}/{len(observed)} responses diverged"

    lines = [
        f"serving throughput (scale={BENCH_SCALE}, {index.num_users} users x "
        f"{index.num_items} items, dim={index.dim}, k={REQUEST_K})",
        f"requests: {TIMED_REQUESTS} over {NUM_CLIENTS} keep-alive connections",
        f"wall: {wall:.2f}s  ->  {rps:.0f} req/s "
        f"(gate >= {GATE_RPS:.0f})",
        f"latency: p50 {p50 * 1e3:.2f} ms, p99 {p99 * 1e3:.2f} ms "
        f"(gate <= {GATE_P99_SECONDS * 1e3:.0f} ms)",
        f"micro-batching: {stats['batches']} batches, mean {mean_batch:.1f} "
        f"req/batch, max {stats['max_batch']}",
        f"user-vector cache: {stats['user_cache']['hits']} hits / "
        f"{stats['user_cache']['misses']} misses",
        f"bit-identity: {len(observed)} users batched == single",
        f"fold-in: {set_ms.size} sets of 3-20 items, min {set_ms.min():.2f} ms, "
        f"median {np.median(set_ms):.2f} ms; all but one of {index.num_items} "
        f"items {all_but_one_s * 1e3:.1f} ms (gate < {GATE_ALL_BUT_ONE_SECONDS:.0f} s)",
    ]
    write_result("serving", "\n".join(lines))
    write_bench_json(
        "serving",
        {
            "requests": TIMED_REQUESTS,
            "clients": NUM_CLIENTS,
            "k": REQUEST_K,
            "wall_seconds": wall,
            "requests_per_second": rps,
            "latency_p50_seconds": float(p50),
            "latency_p99_seconds": float(p99),
            "batches": stats["batches"],
            "mean_batch": mean_batch,
            "max_batch": stats["max_batch"],
            "cache": stats["user_cache"],
            "bit_identical_users": len(observed),
            "gate_rps": GATE_RPS,
            "gate_p99_seconds": GATE_P99_SECONDS,
            "foldin_sets": int(set_ms.size),
            "foldin_min_ms": float(set_ms.min()),
            "foldin_median_ms": float(np.median(set_ms)),
            "foldin_all_but_one_ms": 1e3 * all_but_one_s,
            "gate_foldin_all_but_one_seconds": GATE_ALL_BUT_ONE_SECONDS,
        },
    )
    if BENCH_SCALE == "full":
        assert rps >= GATE_RPS, f"throughput gate: {rps:.0f} < {GATE_RPS} req/s"
        assert p99 <= GATE_P99_SECONDS, (
            f"latency gate: p99 {p99 * 1e3:.1f} ms > {GATE_P99_SECONDS * 1e3:.0f} ms"
        )
        assert all_but_one_s < GATE_ALL_BUT_ONE_SECONDS, (
            f"fold-in gate: all-but-one took {all_but_one_s:.2f} s "
            f">= {GATE_ALL_BUT_ONE_SECONDS:.0f} s"
        )
