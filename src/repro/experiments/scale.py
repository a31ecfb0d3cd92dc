"""The million-user recipe, end to end, with memory accounting.

``python -m repro.experiments.scale`` drives the in-memory dataset path
every paper dataset takes — trace generation → dedup/k-core → per-user
split → BPRMF training on the global :class:`~repro.data.sampling.BPRSampler`
→ batched ranking evaluation — and prints one JSON object with per-phase
wall times, RSS snapshots, and the process peak RSS (``ru_maxrss``).

The benchmark (`benchmarks/test_bench_scale.py`) runs this module in a
*subprocess* so the reported ``ru_maxrss`` is the high-water mark of exactly
this pipeline, not of whatever the host process touched earlier.  For the
same reason evaluation runs in-process — farming it to worker processes
would move its memory out of the measured budget.

The OOI-style catalog is reused with the site count scaled up: the paper's
facilities serve a few thousand distinct data streams to ~10⁵–10⁶ users, so
scale lives in the *user* dimension while the item space stays catalog-sized.
Evaluation ranks a sample of users spread evenly over the whole id range,
so the metric does not depend on where in the id space the sample sits.
"""

from __future__ import annotations

import argparse
import json
import resource
import time

import numpy as np

from repro.data.interactions import trace_to_interactions
from repro.data.split import per_user_split
from repro.eval.evaluator import RankingEvaluator
from repro.facility.affinity import OOI_AFFINITY
from repro.facility.ooi import OOIConfig, build_ooi_catalog
from repro.facility.trace import generate_trace
from repro.facility.users import build_user_population
from repro.models.base import FitConfig
from repro.models.bprmf import BPRMF

__all__ = ["run_scale_pipeline", "main"]


def peak_rss_mb() -> float:
    """Process peak resident set size in MB (``ru_maxrss`` is KB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


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
    dim: int = 16,
    batch_size: int = 8192,
    epochs: int = 1,
    lr: float = 0.05,
    eval_users: int = 20_000,
    seed: int = 7,
) -> dict:
    """Run build → train → eval in memory; return a stats dict."""
    phases = {}
    t_start = time.perf_counter()

    def mark(name: str, t0: float, **extra) -> None:
        phases[name] = {
            "seconds": round(time.perf_counter() - t0, 3),
            "peak_rss_mb": round(peak_rss_mb(), 1),
            **extra,
        }

    t0 = time.perf_counter()
    catalog = build_ooi_catalog(OOIConfig(num_sites=num_sites), seed=seed)
    population = build_user_population(
        catalog, num_users=num_users, num_orgs=num_orgs, num_cities=num_cities, seed=seed + 1
    )
    mark("facility", t0, num_objects=catalog.num_objects, num_users=num_users)

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
    trace = generate_trace(
        catalog,
        population,
        OOI_AFFINITY,
        seed=seed,
        queries_per_user_mean=queries_per_user_mean,
        lognormal_sigma=lognormal_sigma,
    )
    num_records = len(trace)
    mark("trace", t0, num_records=num_records)

    t0 = time.perf_counter()
    interactions = trace_to_interactions(
        trace,
        min_user_interactions=min_user_interactions,
        min_item_interactions=min_item_interactions,
    )
    del trace
    num_interactions = len(interactions)
    mark("interactions", t0, num_interactions=num_interactions)

    t0 = time.perf_counter()
    split = per_user_split(interactions, train_fraction=train_fraction, seed=seed + 2)
    del interactions
    mark("split", t0, train=len(split.train), test=len(split.test))

    t0 = time.perf_counter()
    model = BPRMF(split.train.num_users, split.train.num_items, dim=dim, seed=seed + 3)
    fit = model.fit(
        split.train, FitConfig(epochs=epochs, batch_size=batch_size, lr=lr, seed=seed + 4)
    )
    mark("train", t0, final_loss=round(fit.losses[-1], 6))

    t0 = time.perf_counter()
    evaluator = RankingEvaluator(split.train, split.test, k=20, user_batch=512)
    ranked = evaluator.eval_users
    count = min(eval_users, len(ranked))
    users = ranked[np.linspace(0, len(ranked) - 1, num=count).round().astype(np.int64)]
    result = evaluator.evaluate(model.score_users, users=users)
    metrics = {k: round(v, 6) for k, v in result.as_dict().items()}
    mark(
        "eval",
        t0,
        users=len(users),
        user_range=[int(users[0]), int(users[-1])] if len(users) else [],
        **metrics,
    )

    return {
        "recipe": recipe,
        "dim": dim,
        "batch_size": batch_size,
        "epochs": epochs,
        "num_objects": catalog.num_objects,
        "num_records": num_records,
        "num_interactions": num_interactions,
        "phases": phases,
        "total_seconds": round(time.perf_counter() - t_start, 3),
        "peak_rss_mb": round(peak_rss_mb(), 1),
        "metrics": metrics,
    }


def main(argv=None) -> None:
    """CLI entry point: run the pipeline and print the stats JSON."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--num-users", type=int, default=1_000_000)
    parser.add_argument("--num-orgs", type=int, default=5_000)
    parser.add_argument("--num-cities", type=int, default=400)
    parser.add_argument("--num-sites", type=int, default=220)
    parser.add_argument("--queries-per-user", type=float, default=18.0)
    parser.add_argument("--min-user", type=int, default=3)
    parser.add_argument("--min-item", type=int, default=1)
    parser.add_argument("--dim", type=int, default=16)
    parser.add_argument("--batch-size", type=int, default=8192)
    parser.add_argument("--epochs", type=int, default=1)
    parser.add_argument("--eval-users", type=int, default=20_000)
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
        dim=args.dim,
        batch_size=args.batch_size,
        epochs=args.epochs,
        eval_users=args.eval_users,
        seed=args.seed,
    )
    print(json.dumps(stats))


if __name__ == "__main__":
    main()
