"""Query-trace generation.

A :class:`QueryTrace` is the synthetic stand-in for the paper's one-year
activity logs: a flat structure-of-arrays of (user, data object, timestamp)
records.  :func:`generate_trace` draws per-user query counts from a
heavy-tailed lognormal (producing the Fig-3 distribution curves) and then
samples every queried object from its user's affinity mixture distribution:
one uniform draw per record from a single ``random`` call, then one
inverse-CDF search per distinct mixture row (see :func:`draw_categorical`).
"""

from __future__ import annotations

import dataclasses
from typing import Tuple

import numpy as np

from repro.facility.affinity import AffinityModel
from repro.facility.catalog import FacilityCatalog
from repro.facility.users import UserPopulation
from repro.utils.rng import ensure_rng

__all__ = [
    "QueryTrace",
    "TraceGenerator",
    "generate_trace",
    "draw_categorical",
    "sorted_unique_pairs",
]

SECONDS_PER_YEAR = 365 * 24 * 3600

#: ``Generator.choice``'s tolerance on a probability row's sum.
_PROB_SUM_ATOL = float(np.sqrt(np.finfo(np.float64).eps))


def sorted_unique_pairs(
    users: np.ndarray, objects: np.ndarray, num_objects: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Unique ``(user, object)`` pairs sorted by user, then object.

    Equal to splitting ``np.unique(users * num_objects + objects)``, but
    sorts the keys and keeps the first of each run of equal keys, which
    costs a fraction of numpy's hash-based ``np.unique`` on trace-sized
    arrays.
    """
    keys = np.asarray(users, dtype=np.int64) * np.int64(num_objects) + np.asarray(
        objects, dtype=np.int64
    )
    keys.sort()
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    keys = keys[first]
    return keys // num_objects, keys % num_objects


def draw_categorical(
    rows: np.ndarray, row_of_record: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """For each record ``i``, one draw from the categorical ``rows[row_of_record[i]]``.

    Bit-identical to ``rng.choice(N, p=rows[row_of_record[i]])`` run record
    by record (or per user, over each user's run of records), and consumes
    ``rng`` the same way.  With replacement and ``p``, ``choice`` searches
    ``cdf = p.cumsum(); cdf /= cdf[-1]`` with side ``"right"`` for
    ``random(size)`` draws, and consecutive ``random`` calls consume the
    stream exactly as one call over their concatenation.  So one
    ``random(len(row_of_record))`` call, then one ``searchsorted`` per row
    that has records, over their draws, gives the same objects.

    Rows get ``choice``'s checks on ``p``: a negative or non-finite entry,
    or a sum off 1 by more than ``sqrt(eps)``, raises ``ValueError``.
    """
    rows = np.asarray(rows, dtype=np.float64)
    lowest, highest = rows.min(initial=0.0), rows.max(initial=0.0)  # NaN if any entry is
    if not (np.isfinite(lowest) and np.isfinite(highest)):
        raise ValueError("probabilities are not finite")
    if lowest < 0:
        raise ValueError("probabilities are not non-negative")
    if (np.abs(rows.sum(axis=1) - 1.0) > _PROB_SUM_ATOL).any():
        raise ValueError("probabilities do not sum to 1")
    cdfs = rows.cumsum(axis=1)
    cdfs /= cdfs[:, -1:].copy()
    draws = rng.random(len(row_of_record))
    by_row = np.argsort(row_of_record, kind="stable")
    counts = np.bincount(row_of_record, minlength=len(cdfs))
    used = np.flatnonzero(counts)
    ends = np.cumsum(counts)[used]
    out = np.empty(len(row_of_record), dtype=np.int64)
    for row, start, end in zip(used.tolist(), (ends - counts[used]).tolist(), ends.tolist()):
        records = by_row[start:end]
        out[records] = cdfs[row].searchsorted(draws[records], side="right")
    return out


@dataclasses.dataclass
class QueryTrace:
    """A flat query log: parallel arrays of equal length.

    Attributes
    ----------
    user_ids, object_ids:
        int64 arrays; one entry per query record.
    timestamps:
        float64 seconds since trace start, sorted ascending.
    num_users, num_objects:
        Sizes of the id spaces (some users/objects may not appear).
    """

    user_ids: np.ndarray
    object_ids: np.ndarray
    timestamps: np.ndarray
    num_users: int
    num_objects: int

    def __post_init__(self):
        self.user_ids = np.asarray(self.user_ids, dtype=np.int64)
        self.object_ids = np.asarray(self.object_ids, dtype=np.int64)
        self.timestamps = np.asarray(self.timestamps, dtype=np.float64)
        if not (len(self.user_ids) == len(self.object_ids) == len(self.timestamps)):
            raise ValueError("trace arrays must have equal length")
        if len(self.user_ids):
            if self.user_ids.min() < 0 or self.user_ids.max() >= self.num_users:
                raise ValueError("user id out of range")
            if self.object_ids.min() < 0 or self.object_ids.max() >= self.num_objects:
                raise ValueError("object id out of range")

    def __len__(self) -> int:
        return len(self.user_ids)

    def queries_of_user(self, user_id: int) -> np.ndarray:
        """Object ids queried by ``user_id`` (with multiplicity)."""
        return self.object_ids[self.user_ids == user_id]

    def per_user_counts(self) -> np.ndarray:
        """Number of query records per user, length ``num_users``."""
        return np.bincount(self.user_ids, minlength=self.num_users)

    def unique_pairs(self) -> Tuple[np.ndarray, np.ndarray]:
        """Deduplicated (user, object) interaction pairs, sorted by user, then object."""
        return sorted_unique_pairs(self.user_ids, self.object_ids, self.num_objects)

    def subset(self, mask: np.ndarray) -> "QueryTrace":
        """A new trace containing only the records selected by ``mask``."""
        return QueryTrace(
            self.user_ids[mask],
            self.object_ids[mask],
            self.timestamps[mask],
            self.num_users,
            self.num_objects,
        )


class TraceGenerator:
    """Draws :class:`QueryTrace` objects for a (catalog, population, affinity) triple.

    Parameters
    ----------
    queries_per_user_mean:
        Mean of the per-user query-count distribution.
    lognormal_sigma:
        Shape of the heavy tail; ~1.2 reproduces the several-orders-of-
        magnitude spread visible in the paper's Fig 3.
    """

    def __init__(
        self,
        catalog: FacilityCatalog,
        population: UserPopulation,
        affinity: AffinityModel,
        queries_per_user_mean: float = 60.0,
        lognormal_sigma: float = 1.2,
    ):
        if queries_per_user_mean <= 0:
            raise ValueError("queries_per_user_mean must be positive")
        if lognormal_sigma < 0:
            raise ValueError("lognormal_sigma must be nonnegative")
        self.catalog = catalog
        self.population = population
        self.affinity = affinity
        self.queries_per_user_mean = queries_per_user_mean
        self.lognormal_sigma = lognormal_sigma

    def sample_query_counts(self, rng: np.random.Generator, num_users: int) -> np.ndarray:
        """Heavy-tailed query counts (>=1 each) for ``num_users`` users."""
        sigma = self.lognormal_sigma
        mu = np.log(self.queries_per_user_mean) - 0.5 * sigma**2
        counts = np.ceil(rng.lognormal(mu, sigma, size=num_users))
        return np.maximum(counts.astype(np.int64), 1)

    def generate(self, seed=0) -> QueryTrace:
        """Generate a full trace.

        Queries are i.i.d. per user given the user's mixture distribution:
        every record's object is drawn by :func:`draw_categorical` from the
        K deduplicated mixture rows (never an M×N fan-out), bit-identical
        to one ``rng.choice`` per user.  Uniformly-random timestamps over
        the simulated year follow.
        """
        rng = ensure_rng(seed)
        counts = self.sample_query_counts(rng, self.population.num_users)
        rows, inverse = self.affinity.unique_user_mixtures(self.catalog, self.population, rng)
        total = int(counts.sum())
        user_ids = np.repeat(np.arange(self.population.num_users, dtype=np.int64), counts)
        object_ids = draw_categorical(rows, inverse[user_ids], rng)
        timestamps = np.sort(rng.uniform(0.0, SECONDS_PER_YEAR, size=total))
        # Timestamps are sorted globally; shuffle record order to match, so
        # the trace is time-ordered like a real log.
        order = rng.permutation(total)
        user_ids, object_ids = user_ids[order], object_ids[order]
        return QueryTrace(
            user_ids=user_ids,
            object_ids=object_ids,
            timestamps=timestamps,
            num_users=self.population.num_users,
            num_objects=self.catalog.num_objects,
        )


def generate_trace(
    catalog: FacilityCatalog,
    population: UserPopulation,
    affinity: AffinityModel,
    seed=0,
    queries_per_user_mean: float = 60.0,
    lognormal_sigma: float = 1.2,
) -> QueryTrace:
    """Convenience wrapper: build a :class:`TraceGenerator` and generate once."""
    gen = TraceGenerator(
        catalog,
        population,
        affinity,
        queries_per_user_mean=queries_per_user_mean,
        lognormal_sigma=lognormal_sigma,
    )
    return gen.generate(seed=seed)
