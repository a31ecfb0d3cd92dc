"""Reference trace draws: the per-key mixture loop and one ``rng.choice`` per user.

``AffinityModel.unique_user_mixtures`` builds every mixture row in one
broadcast, and ``TraceGenerator.generate`` draws every record from one
``random`` call.  These are the loops they replaced, kept verbatim as the
independent check that the batched code is bit-identical
(``tests/test_ingest_bit_identity.py``) and as the baseline of the draw's
speed gate (``benchmarks/test_bench_ingest.py``).  Test code only.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.facility.affinity import AffinityModel
from repro.facility.catalog import FacilityCatalog
from repro.facility.trace import SECONDS_PER_YEAR, QueryTrace, TraceGenerator
from repro.facility.users import UserPopulation
from repro.utils.rng import ensure_rng


def mixture_distribution(
    affinity: AffinityModel,
    catalog: FacilityCatalog,
    focus_region: int,
    focus_dtype: int,
    base_popularity: np.ndarray,
    focus_site: Optional[int] = None,
) -> np.ndarray:
    """One user's expected item distribution, one key at a time."""
    pop = base_popularity.astype(np.float64)
    region_mask = (catalog.object_region == focus_region).astype(np.float64)
    if focus_site is not None:
        boost = np.ones(catalog.num_objects, dtype=np.float64)
        boost[catalog.object_site == focus_site] = affinity.site_concentration
        region_mask = region_mask * boost
    dtype_mask = (catalog.object_dtype == focus_dtype).astype(np.float64)

    free = pop / pop.sum()

    def norm_or(w: np.ndarray, fallback: np.ndarray) -> np.ndarray:
        s = w.sum()
        return w / s if s > 0 else fallback

    pr, pd = affinity.p_region, affinity.p_dtype
    region_only = norm_or(pop * region_mask, free)
    dtype_only = norm_or(pop * dtype_mask, free)
    if (pop * region_mask).sum() > 0:
        both = norm_or(pop * region_mask * dtype_mask, region_only)
    else:
        both = dtype_only
    return (
        pr * pd * both
        + pr * (1 - pd) * region_only
        + (1 - pr) * pd * dtype_only
        + (1 - pr) * (1 - pd) * free
    )


def unique_user_mixtures(
    affinity: AffinityModel,
    catalog: FacilityCatalog,
    population: UserPopulation,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray]:
    """Mixture rows per (focus site, focus dtype) key, one key per call."""
    pop = affinity.popularity_weights(catalog.num_objects, rng)
    nd = catalog.num_data_types
    keys = population.user_focus_site * nd + population.user_focus_dtype
    uniq, inverse = np.unique(keys, return_inverse=True)
    site_region = catalog.site_region
    rows = np.empty((len(uniq), catalog.num_objects), dtype=np.float64)
    for k, key in enumerate(uniq):
        site = int(key // nd)
        dtype = int(key % nd)
        rows[k] = mixture_distribution(
            affinity, catalog, int(site_region[site]), dtype, pop, focus_site=site
        )
    return rows, inverse


def generate(generator: TraceGenerator, seed=0) -> QueryTrace:
    """``generator``'s trace with one ``rng.choice`` call per user."""
    rng = ensure_rng(seed)
    counts = generator.sample_query_counts(rng, generator.population.num_users)
    rows, inverse = unique_user_mixtures(
        generator.affinity, generator.catalog, generator.population, rng
    )
    mixtures = rows[inverse]
    num_users = generator.population.num_users
    num_objects = generator.catalog.num_objects
    total = int(counts.sum())
    user_ids = np.repeat(np.arange(num_users, dtype=np.int64), counts)
    object_ids = np.empty(total, dtype=np.int64)
    offset = 0
    for u in range(num_users):
        c = int(counts[u])
        object_ids[offset : offset + c] = rng.choice(num_objects, size=c, p=mixtures[u])
        offset += c
    timestamps = np.sort(rng.uniform(0.0, SECONDS_PER_YEAR, size=total))
    order = rng.permutation(total)
    user_ids, object_ids = user_ids[order], object_ids[order]
    return QueryTrace(
        user_ids=user_ids,
        object_ids=object_ids,
        timestamps=timestamps,
        num_users=num_users,
        num_objects=num_objects,
    )

