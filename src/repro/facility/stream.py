"""Out-of-core query-trace generation in fixed-size user blocks.

:func:`generate_trace` materializes a whole year of queries at once: while
it draws it holds five all-records arrays, about 40 bytes per record, so its
memory grows with the trace.  This module generates the same
*distribution* of traces block by block and writes each block incrementally
into a content-addressed :class:`~repro.store.ArtifactStore`, so peak memory
is bounded by a block — the path to the paper's 10⁶-user / 10⁷-record
corpus sizes.

Three deliberate contracts:

- **One categorical draw.**  Objects are drawn as in the monolithic trace
  (:func:`~repro.facility.trace.draw_categorical`): one ``rng.choice(N,
  p=row)`` per record, in user-major order, on the chunk's child
  generator.  Schema-1 blocks, drawn with another CDF convention, miss.
- **Block size is a pure performance knob.**  Generation is internally
  chunked at the fixed :data:`GEN_CHUNK` user granularity with one child
  generator per chunk (``SeedSequence(entropy=(seed, tag), spawn_key=(kind,
  chunk))``), and chunks are re-sliced onto storage blocks afterwards.  The
  emitted records are therefore a pure function of ``(recipe, seed)`` and
  bit-identical across block sizes (locked by tests at {1, 7, 10⁴}).
- **User-major layout.**  Blocks partition the user id space in ascending
  order and timestamps ascend within each user, unlike the time-major
  :class:`~repro.facility.trace.QueryTrace`.  Downstream interaction dedup
  only consumes (user, object) pairs, for which user-major order is exactly
  what the chunked builders need; time-ordered analyses should keep using
  the monolithic generator.

Every byte that reaches disk goes through the store's ``put``/``get`` funnel
(atomic writes, sha256 verification, mmap'd loads) — the blocks are ordinary
artifacts keyed by ``(recipe, block_size, block_index)`` plus a manifest
keyed by ``(recipe, block_size)``, so a warm run re-opens the stream without
touching the facility builders at all.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.facility.affinity import AffinityModel
from repro.facility.catalog import FacilityCatalog
from repro.facility.trace import (
    SECONDS_PER_YEAR,
    QueryTrace,
    TraceGenerator,
    categorical_cdfs,
    draw_from_cdfs,
)
from repro.facility.users import UserPopulation
from repro.store import ArtifactStore

__all__ = [
    "GEN_CHUNK",
    "TRACE_BLOCK_KIND",
    "TRACE_STREAM_KIND",
    "TRACE_STREAM_SCHEMA",
    "TraceBlock",
    "TraceReader",
    "stream_trace",
    "load_trace_stream",
    "stream_config",
]

#: Internal generation granularity in users.  Not a tuning knob: changing it
#: changes which child RNG draws which user's queries, i.e. the trace bits —
#: which is why it is baked into every stream fingerprint below.
GEN_CHUNK = 4096

TRACE_BLOCK_KIND = "trace_block"
TRACE_STREAM_KIND = "trace_stream"
TRACE_STREAM_SCHEMA = 2

#: Extra entropy word mixed into every stream SeedSequence, so stream RNG
#: streams can never collide with other consumers of the same integer seed.
_ENTROPY_TAG = 0x74726163  # "trac"
_KIND_MIXTURE = 0
_KIND_CHUNK = 1


def _stream_rng(seed: int, kind: int, index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=(int(seed), _ENTROPY_TAG), spawn_key=(kind, index))
    return np.random.default_rng(ss)


def stream_config(recipe: dict, block_size: int) -> dict:
    """Fingerprint config of a stream manifest (blocks add ``block_index``)."""
    return {"recipe": recipe, "block_size": int(block_size), "gen_chunk": GEN_CHUNK}


def _block_config(recipe: dict, block_size: int, index: int) -> dict:
    config = stream_config(recipe, block_size)
    config["block_index"] = int(index)
    return config


@dataclasses.dataclass(frozen=True)
class TraceBlock:
    """One user block of a streamed trace (users ``[user_lo, user_hi)``)."""

    index: int
    user_lo: int
    user_hi: int
    user_ids: np.ndarray
    object_ids: np.ndarray
    timestamps: np.ndarray

    def __len__(self) -> int:
        return len(self.user_ids)


class _BlockGenerator:
    """Draws trace records chunk by chunk, one child RNG per chunk.

    ``trace`` (a :class:`~repro.facility.trace.TraceGenerator`) holds the
    checked parameters and draws the per-user query counts.  The K×N
    deduplicated mixture rows (:meth:`AffinityModel.unique_user_mixtures`)
    become one :func:`~repro.facility.trace.categorical_cdfs` table, built
    once and shared by every chunk; each chunk draws from it with
    :func:`~repro.facility.trace.draw_from_cdfs`.
    """

    def __init__(self, trace: TraceGenerator, seed: int):
        if trace.population.num_users <= 0:
            raise ValueError("population has no users")
        if trace.catalog.num_objects <= 0:
            raise ValueError("catalog has no data objects")
        self._trace = trace
        self.seed = int(seed)
        self.num_users = trace.population.num_users
        self.num_objects = trace.catalog.num_objects
        rows, inverse = trace.affinity.unique_user_mixtures(
            trace.catalog, trace.population, _stream_rng(self.seed, _KIND_MIXTURE, 0)
        )
        self._cdfs = categorical_cdfs(rows)
        self._row_of_user = np.asarray(inverse, dtype=np.int64)

    def chunk(self, index: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Generate users ``[index*GEN_CHUNK, ...)`` of the trace."""
        lo = index * GEN_CHUNK
        hi = min(lo + GEN_CHUNK, self.num_users)
        rng = _stream_rng(self.seed, _KIND_CHUNK, index)
        counts = self._trace.sample_query_counts(rng, hi - lo)
        user_ids = np.repeat(np.arange(lo, hi, dtype=np.int64), counts)
        object_ids = draw_from_cdfs(self._cdfs, self._row_of_user[user_ids], rng)
        timestamps = rng.uniform(0.0, SECONDS_PER_YEAR, size=len(user_ids))
        # user_ids is nondecreasing, so this permutation only reorders each
        # user's segment: timestamps ascend within every user while the
        # (i.i.d.) object draws keep generation order.
        order = np.lexsort((timestamps, user_ids))
        return user_ids, object_ids, timestamps[order]


class TraceReader:
    """Block iterator over a streamed trace; never holds the full trace.

    Blocks come either from an :class:`~repro.store.ArtifactStore` (mmap'd
    per access, so resident memory is only the pages a consumer touches) or
    from an in-memory list when the stream was generated without a store.
    """

    def __init__(
        self,
        num_users: int,
        num_objects: int,
        block_size: int,
        records_per_block: np.ndarray,
        store: Optional[ArtifactStore] = None,
        recipe: Optional[dict] = None,
        blocks: Optional[List[TraceBlock]] = None,
    ):
        if (blocks is None) == (store is None):
            raise ValueError("TraceReader needs exactly one of (store+recipe, blocks)")
        if store is not None and recipe is None:
            raise ValueError("store-backed TraceReader needs the recipe that keyed it")
        self.num_users = int(num_users)
        self.num_objects = int(num_objects)
        self.block_size = int(block_size)
        self.records_per_block = np.asarray(records_per_block, dtype=np.int64)
        self._store = store
        self._recipe = recipe
        self._blocks = blocks

    @property
    def num_blocks(self) -> int:
        return len(self.records_per_block)

    @property
    def num_records(self) -> int:
        return int(self.records_per_block.sum())

    def block_users(self, index: int) -> Tuple[int, int]:
        """The user id range ``[lo, hi)`` block ``index`` covers."""
        lo = index * self.block_size
        return lo, min(lo + self.block_size, self.num_users)

    def block(self, index: int) -> TraceBlock:
        if not 0 <= index < self.num_blocks:
            raise IndexError(f"block index {index} out of range [0, {self.num_blocks})")
        if self._blocks is not None:
            return self._blocks[index]
        assert self._store is not None and self._recipe is not None
        artifact = self._store.get(
            TRACE_BLOCK_KIND,
            _block_config(self._recipe, self.block_size, index),
            TRACE_STREAM_SCHEMA,
        )
        if artifact is None:
            raise RuntimeError(
                f"trace block {index} missing or corrupt in the artifact store; "
                "regenerate the stream with stream_trace()"
            )
        lo, hi = self.block_users(index)
        return TraceBlock(
            index=index,
            user_lo=lo,
            user_hi=hi,
            user_ids=artifact.array("user_ids"),
            object_ids=artifact.array("object_ids"),
            timestamps=artifact.array("timestamps"),
        )

    def iter_blocks(self) -> Iterator[TraceBlock]:
        for index in range(self.num_blocks):
            yield self.block(index)

    def pair_chunks(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """(user_ids, object_ids) per block — what the chunked builders eat.

        Timestamp arrays are never touched, so their pages are never even
        faulted in on the store-backed path.
        """
        for block in self.iter_blocks():
            yield block.user_ids, block.object_ids

    def materialize(self) -> QueryTrace:
        """Concatenate every block into a :class:`QueryTrace` (test scale).

        The result is user-major (see module docstring), not time-major like
        the monolithic generator's output.
        """
        users = np.concatenate([b.user_ids for b in self.iter_blocks()])
        objects = np.concatenate([b.object_ids for b in self.iter_blocks()])
        stamps = np.concatenate([b.timestamps for b in self.iter_blocks()])
        return QueryTrace(users, objects, stamps, self.num_users, self.num_objects)


def stream_trace(
    catalog: FacilityCatalog,
    population: UserPopulation,
    affinity: AffinityModel,
    seed: int = 0,
    queries_per_user_mean: float = 60.0,
    lognormal_sigma: float = 1.2,
    block_size: int = GEN_CHUNK,
    store: Optional[ArtifactStore] = None,
    recipe: Optional[dict] = None,
) -> TraceReader:
    """Generate a trace in user blocks, writing each block as it completes.

    With a ``store``, blocks are persisted incrementally (peak memory stays
    around ``max(block_size, GEN_CHUNK)`` users of records) and ``recipe``
    must carry the full build identity — it keys every block artifact.
    Without a store the blocks are kept in memory (test scale only).
    """
    if block_size <= 0:
        raise ValueError(f"block_size must be positive, got {block_size}")
    if store is not None and recipe is None:
        raise ValueError("stream_trace with a store needs a recipe to fingerprint blocks")
    if recipe is None:
        recipe = {}
    gen = _BlockGenerator(
        TraceGenerator(catalog, population, affinity, queries_per_user_mean, lognormal_sigma),
        seed,
    )
    num_users = gen.num_users
    num_blocks = math.ceil(num_users / block_size)
    records = np.zeros(num_blocks, dtype=np.int64)
    mem_blocks: Optional[List[TraceBlock]] = [] if store is None else None
    pending: Dict[int, List[Tuple[np.ndarray, np.ndarray, np.ndarray]]] = {}

    def flush(index: int) -> None:
        parts = pending.pop(index, [])
        users = np.concatenate([p[0] for p in parts]) if parts else np.zeros(0, np.int64)
        objects = np.concatenate([p[1] for p in parts]) if parts else np.zeros(0, np.int64)
        stamps = np.concatenate([p[2] for p in parts]) if parts else np.zeros(0, np.float64)
        records[index] = len(users)
        lo = index * block_size
        hi = min(lo + block_size, num_users)
        if store is None:
            assert mem_blocks is not None
            mem_blocks.append(TraceBlock(index, lo, hi, users, objects, stamps))
        else:
            store.put(
                TRACE_BLOCK_KIND,
                _block_config(recipe, block_size, index),
                TRACE_STREAM_SCHEMA,
                {"user_ids": users, "object_ids": objects, "timestamps": stamps},
                {"user_lo": lo, "user_hi": hi},
            )

    next_flush = 0
    for chunk_index in range(math.ceil(num_users / GEN_CHUNK)):
        users, objects, stamps = gen.chunk(chunk_index)
        block_of = users // block_size
        if len(users):
            bounds = np.flatnonzero(np.diff(block_of)) + 1
            starts = np.concatenate(([0], bounds))
            ends = np.concatenate((bounds, [len(users)]))
            for s, e in zip(starts, ends):
                pending.setdefault(int(block_of[s]), []).append(
                    (users[s:e], objects[s:e], stamps[s:e])
                )
        generated_users = min((chunk_index + 1) * GEN_CHUNK, num_users)
        # A block is complete once every one of its users has been generated;
        # chunks ascend through the user space, so completion is a frontier.
        while next_flush < num_blocks and (next_flush + 1) * block_size <= generated_users:
            flush(next_flush)
            next_flush += 1
    while next_flush < num_blocks:
        flush(next_flush)
        next_flush += 1

    if store is not None:
        store.put(
            TRACE_STREAM_KIND,
            stream_config(recipe, block_size),
            TRACE_STREAM_SCHEMA,
            {"records_per_block": records},
            {
                "num_users": num_users,
                "num_objects": gen.num_objects,
                "block_size": int(block_size),
                "num_blocks": num_blocks,
                "total_records": int(records.sum()),
            },
        )
    return TraceReader(
        num_users=num_users,
        num_objects=gen.num_objects,
        block_size=block_size,
        records_per_block=records,
        store=store,
        recipe=recipe if store is not None else None,
        blocks=mem_blocks,
    )


def load_trace_stream(
    store: ArtifactStore, recipe: dict, block_size: int
) -> Optional[TraceReader]:
    """Re-open a previously streamed trace; ``None`` if any piece is missing.

    The manifest and every block are verified up front (the store checks
    sha256 on ``get``), so a reader returned here will not fail mid-iteration
    on a corrupt block — corruption surfaces as a plain warm-miss and the
    caller regenerates.
    """
    manifest = store.get(TRACE_STREAM_KIND, stream_config(recipe, block_size), TRACE_STREAM_SCHEMA)
    if manifest is None:
        return None
    records = np.asarray(manifest.array("records_per_block"), dtype=np.int64)
    for index in range(len(records)):
        block = store.get(
            TRACE_BLOCK_KIND, _block_config(recipe, block_size, index), TRACE_STREAM_SCHEMA
        )
        if block is None:
            return None
    return TraceReader(
        num_users=int(manifest.meta["num_users"]),
        num_objects=int(manifest.meta["num_objects"]),
        block_size=int(manifest.meta["block_size"]),
        records_per_block=records,
        store=store,
        recipe=recipe,
    )
