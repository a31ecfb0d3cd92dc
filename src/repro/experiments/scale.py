"""The million-user out-of-core recipe, end to end, with memory accounting.

``python -m repro.experiments.scale`` drives the full streamed dataset path —
blocked trace generation → chunked dedup/filter → blocked split → BPRMF
training on the shard-blocked sampler → sharded ranking evaluation — and
prints one JSON object with per-phase wall times, RSS snapshots, and the
process peak RSS (``ru_maxrss``).

The benchmark (`benchmarks/test_bench_scale.py`) runs this module in a
*subprocess* so the reported ``ru_maxrss`` is the high-water mark of exactly
this pipeline, not of whatever the host process touched earlier.  For the
same reason evaluation runs its shards in-process — farming them to
worker processes would move their memory out of the measured budget.

The OOI-style catalog is reused with the site count scaled up: the paper's
facilities serve a few thousand distinct data streams to ~10⁵–10⁶ users, so
scale lives in the *user* dimension while the item space stays catalog-sized.
The monolithic generator then holds several all-records arrays at once
(:func:`monolithic_lower_bound_bytes`); the streamed path holds one block.
"""

from __future__ import annotations

import argparse
import json
import resource
import time
from typing import Optional

import numpy as np

from repro.data.sampling import ShardedBPRSampler
from repro.data.streaming import blocked_per_user_split, streamed_trace_to_interactions
from repro.eval.evaluator import RankingEvaluator
from repro.eval.sharded import sharded_evaluate
from repro.facility.affinity import OOI_AFFINITY
from repro.facility.ooi import OOIConfig, build_ooi_catalog
from repro.facility.stream import load_trace_stream, stream_trace
from repro.facility.users import build_user_population
from repro.models.base import FitConfig
from repro.models.bprmf import BPRMF
from repro.store import ArtifactStore, resolve_cache_dir

__all__ = ["run_scale_pipeline", "monolithic_lower_bound_bytes", "main"]


def peak_rss_mb() -> float:
    """Process peak resident set size in MB (``ru_maxrss`` is KB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def monolithic_lower_bound_bytes(num_mixture_rows: int, num_objects: int, num_records: int) -> int:
    """Bytes the monolithic trace path *must* allocate at peak.

    ``TraceGenerator.generate`` holds the K deduplicated (K, N) float64
    mixture rows and their CDFs, and while it draws, five all-records
    8-byte arrays at once: user ids, each record's mixture row, the uniform
    draws, their grouping order and the drawn object ids.  Everything else
    (timestamps, the record permutation, dedup keys) only adds to this.
    The bound is arithmetic, not measured; the records term grows with the
    trace, where the streamed path's scratch stays one block.
    """
    rows = 2 * int(num_mixture_rows) * int(num_objects) * 8
    records = 5 * int(num_records) * 8
    return rows + records


def run_scale_pipeline(
    num_users: int = 1_000_000,
    num_orgs: int = 5_000,
    num_cities: int = 400,
    num_sites: int = 220,
    queries_per_user_mean: float = 18.0,
    lognormal_sigma: float = 1.2,
    min_user_interactions: int = 3,
    min_item_interactions: int = 1,
    train_fraction: float = 0.8,
    block_size: int = 4096,
    users_per_shard: int = 8192,
    dim: int = 16,
    batch_size: int = 8192,
    epochs: int = 1,
    lr: float = 0.05,
    eval_users: int = 20_000,
    num_eval_shards: int = 8,
    cache_dir: Optional[str] = None,
    seed: int = 7,
) -> dict:
    """Run build → train → eval on the streamed path; return a stats dict."""
    phases = {}
    t_start = time.perf_counter()

    def mark(name: str, t0: float, **extra) -> None:
        phases[name] = {
            "seconds": round(time.perf_counter() - t0, 3),
            "peak_rss_mb": round(peak_rss_mb(), 1),
            **extra,
        }

    root = resolve_cache_dir(cache_dir)
    store = ArtifactStore(root) if root is not None else None

    t0 = time.perf_counter()
    catalog = build_ooi_catalog(OOIConfig(num_sites=num_sites), seed=seed)
    population = build_user_population(
        catalog, num_users=num_users, num_orgs=num_orgs, num_cities=num_cities, seed=seed + 1
    )
    mark("facility", t0, num_objects=catalog.num_objects, num_users=num_users)
    num_mixture_rows = len(
        np.unique(population.user_focus_site * catalog.num_data_types + population.user_focus_dtype)
    )

    recipe = {
        "experiment": "scale",
        "num_users": num_users,
        "num_orgs": num_orgs,
        "num_cities": num_cities,
        "num_sites": num_sites,
        "queries_per_user_mean": queries_per_user_mean,
        "lognormal_sigma": lognormal_sigma,
        "seed": seed,
    }
    t0 = time.perf_counter()
    reader = None
    warm = False
    if store is not None:
        reader = load_trace_stream(store, recipe, block_size)
        warm = reader is not None
    if reader is None:
        reader = stream_trace(
            catalog,
            population,
            OOI_AFFINITY,
            seed=seed,
            queries_per_user_mean=queries_per_user_mean,
            lognormal_sigma=lognormal_sigma,
            block_size=block_size,
            store=store,
            recipe=recipe if store is not None else None,
        )
    mark(
        "trace_stream",
        t0,
        num_records=reader.num_records,
        num_blocks=reader.num_blocks,
        warm=warm,
    )

    t0 = time.perf_counter()
    interactions = streamed_trace_to_interactions(
        reader,
        min_user_interactions=min_user_interactions,
        min_item_interactions=min_item_interactions,
    )
    mark("interactions", t0, num_interactions=len(interactions))

    t0 = time.perf_counter()
    split = blocked_per_user_split(interactions, train_fraction=train_fraction, seed=seed + 2)
    mark("split", t0, train=len(split.train), test=len(split.test))

    t0 = time.perf_counter()
    model = BPRMF(interactions.num_users, interactions.num_items, dim=dim, seed=seed + 3)
    sampler = ShardedBPRSampler(split.train, users_per_shard=users_per_shard)
    fit = model.fit(
        split.train,
        FitConfig(epochs=epochs, batch_size=batch_size, lr=lr, seed=seed + 4),
        sampler=sampler,
    )
    mark("train", t0, final_loss=round(fit.losses[-1], 6), num_shards=sampler.num_shards)

    t0 = time.perf_counter()
    evaluator = RankingEvaluator(split.train, split.test, k=20, user_batch=512)
    users = evaluator.eval_users[: min(eval_users, len(evaluator.eval_users))]
    result = sharded_evaluate(
        evaluator, model.score_users, num_shards=num_eval_shards, users=users
    )
    metrics = {k: round(v, 6) for k, v in result.as_dict().items()}
    mark("eval", t0, users=len(users), **metrics)

    return {
        "recipe": recipe,
        "block_size": block_size,
        "users_per_shard": users_per_shard,
        "dim": dim,
        "batch_size": batch_size,
        "epochs": epochs,
        "num_objects": catalog.num_objects,
        "num_records": reader.num_records,
        "num_interactions": len(interactions),
        "phases": phases,
        "total_seconds": round(time.perf_counter() - t_start, 3),
        "peak_rss_mb": round(peak_rss_mb(), 1),
        "monolithic_lower_bound_mb": round(
            monolithic_lower_bound_bytes(
                num_mixture_rows, catalog.num_objects, reader.num_records
            )
            / 2**20,
            1,
        ),
        "metrics": metrics,
    }


def main(argv=None) -> None:
    """CLI entry point: run the streamed pipeline and print the stats JSON."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--num-users", type=int, default=1_000_000)
    parser.add_argument("--num-orgs", type=int, default=5_000)
    parser.add_argument("--num-cities", type=int, default=400)
    parser.add_argument("--num-sites", type=int, default=220)
    parser.add_argument("--queries-per-user", type=float, default=18.0)
    parser.add_argument("--min-user", type=int, default=3)
    parser.add_argument("--min-item", type=int, default=1)
    parser.add_argument("--block-size", type=int, default=4096)
    parser.add_argument("--users-per-shard", type=int, default=8192)
    parser.add_argument("--dim", type=int, default=16)
    parser.add_argument("--batch-size", type=int, default=8192)
    parser.add_argument("--epochs", type=int, default=1)
    parser.add_argument("--eval-users", type=int, default=20_000)
    parser.add_argument("--cache-dir", type=str, default=None)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    stats = run_scale_pipeline(
        num_users=args.num_users,
        num_orgs=args.num_orgs,
        num_cities=args.num_cities,
        num_sites=args.num_sites,
        queries_per_user_mean=args.queries_per_user,
        min_user_interactions=args.min_user,
        min_item_interactions=args.min_item,
        block_size=args.block_size,
        users_per_shard=args.users_per_shard,
        dim=args.dim,
        batch_size=args.batch_size,
        epochs=args.epochs,
        eval_users=args.eval_users,
        cache_dir=args.cache_dir,
        seed=args.seed,
    )
    print(json.dumps(stats))


if __name__ == "__main__":
    main()
