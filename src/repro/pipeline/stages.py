"""The staged dataset pipeline and its cache keys.

:class:`DatasetPipeline` decomposes benchmark-dataset construction into the
stages the paper's evaluation actually reuses::

    facility trace ──► interaction split ──► CKG (per source combo) ──► graph

Each stage is a pure function of ``(dataset recipe, root seed)`` plus the
stage's own knobs, so its output can be keyed by a content fingerprint and
persisted in a :class:`~repro.store.ArtifactStore`.  Stage keys form a
Merkle chain — a stage's config embeds its parent's digest — which means a
warm run can compute every key *without materializing any parent*: the
second ``repro table2`` run loads the split, CKG and prepared graph straight
from memory maps and never regenerates a trace, catalog or user population.

The catalog and population are deliberately **not** cached: they are cheap
relative to their footprint, only needed when a downstream stage actually
rebuilds, and (being object graphs, not arrays) would require pickling —
which the store forbids.  They rebuild lazily in-process on cache misses.

Stage-build accounting: every pipeline counts ``built`` / ``loaded`` /
``memo`` per stage (and a module-global aggregate sums across pipelines,
including the ones worker processes create), so tests and telemetry can
assert the warm-run invariant "zero regenerations" instead of trusting wall
clock.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.data.interactions import InteractionDataset, trace_to_interactions
from repro.data.split import TrainTestSplit, per_user_split
from repro.facility.affinity import GAGE_AFFINITY, OOI_AFFINITY, AffinityModel
from repro.facility.catalog import FacilityCatalog
from repro.facility.gage import GAGEConfig, build_gage_catalog
from repro.facility.ooi import OOIConfig, build_ooi_catalog
from repro.facility.stream import (
    TRACE_STREAM_SCHEMA,
    TraceReader,
    load_trace_stream,
    stream_config,
    stream_trace,
)
from repro.facility.trace import QueryTrace, generate_trace
from repro.facility.users import UserPopulation, build_user_population
from repro.kg.ckg import CollaborativeKnowledgeGraph, build_ckg
from repro.kg.prepared import GRAPH_SCHEMA_VERSION, PreparedGraph
from repro.kg.subgraphs import EntitySpace, KnowledgeSources
from repro.kg.triples import RelationRegistry, TripleStore
from repro.store import Artifact, ArtifactStore, canonical_json, fingerprint, resolve_cache_dir
from repro.utils.rng import SeedSequenceFactory
from repro.utils.validation import check_in_choices

__all__ = [
    "DatasetPipeline",
    "DatasetRef",
    "PIPELINE_STAGES",
    "STREAM_STAGES",
    "STREAM_BLOCK_SIZE",
    "pipeline_for_ref",
    "global_stage_counters",
    "reset_global_stage_counters",
]

DATASET_NAMES = ("ooi", "gage")
PIPELINE_STAGES = ("trace", "split", "ckg", "graph")
#: Streaming stages live beside (not inside) PIPELINE_STAGES: the classic
#: chain's warm-run invariants ("every stage built exactly once") must not
#: start counting a stage that only out-of-core runs exercise.
STREAM_STAGES = ("trace_stream",)

#: Default storage block (users per artifact) for streamed traces.  Purely a
#: performance knob — the emitted records are block-size-invariant — but it
#: enters the stream fingerprint because it defines the artifact layout.
STREAM_BLOCK_SIZE = 4096

#: Per-stage payload schema versions; bump one when that stage's array
#: layout (or its builder's semantics) changes, which re-keys the stage and
#: every descendant (the invalidation rule of DESIGN.md §9).
SCHEMA_VERSIONS: Dict[str, int] = {
    "trace": 1,
    "trace_stream": TRACE_STREAM_SCHEMA,
    "split": 1,
    "ckg": 1,
    "graph": GRAPH_SCHEMA_VERSION,
}

# Population scales per dataset/scale; chosen so the CKGs land in the
# paper's Table-I size class ("full") or run in seconds ("small").
_SCALES: Dict[str, Dict[str, dict]] = {
    "ooi": {
        "full": dict(num_users=300, num_orgs=40, num_cities=40, queries=60.0),
        "small": dict(num_users=60, num_orgs=10, num_cities=10, queries=30.0),
    },
    "gage": {
        "full": dict(num_users=900, num_orgs=120, num_cities=120, queries=60.0),
        "small": dict(num_users=80, num_orgs=12, num_cities=12, queries=30.0),
    },
}

# Interaction preprocessing constants (Section VI-A); part of the split
# stage's fingerprint so changing them re-keys split/ckg/graph.
_MIN_USER_INTERACTIONS = 5
_MIN_ITEM_INTERACTIONS = 1
_TRAIN_FRACTION = 0.8

# Module-global stage counters, aggregated across every pipeline this
# process creates (worker processes each have their own).
_GLOBAL_COUNTERS: Dict[str, Dict[str, int]] = {}


def _blank_counters() -> Dict[str, Dict[str, int]]:
    return {
        stage: {"built": 0, "loaded": 0, "memo": 0}
        for stage in PIPELINE_STAGES + STREAM_STAGES
    }


def global_stage_counters() -> Dict[str, Dict[str, int]]:
    """Copy of this process's aggregate stage counters."""
    return {stage: dict(counts) for stage, counts in _GLOBAL_COUNTERS.items()}


def reset_global_stage_counters() -> None:
    """Zero the aggregate counters (test isolation / per-run accounting)."""
    _GLOBAL_COUNTERS.clear()
    _GLOBAL_COUNTERS.update(_blank_counters())


reset_global_stage_counters()


def _catalog_config(name: str, scale: str):
    if name == "ooi":
        return OOIConfig() if scale == "full" else OOIConfig(num_sites=30)
    return GAGEConfig() if scale == "full" else GAGEConfig(num_stations=120, num_cities=60)


def _default_affinity(name: str) -> AffinityModel:
    return OOI_AFFINITY if name == "ooi" else GAGE_AFFINITY


@dataclasses.dataclass(frozen=True)
class DatasetRef:
    """A lightweight, picklable handle naming one dataset build.

    This is what crosses process boundaries instead of pickled datasets:
    a worker materializes the stages it needs through a (process-cached)
    :class:`DatasetPipeline`, memory-mapping artifacts when ``cache_dir``
    is set and rebuilding deterministically when it is not.
    """

    name: str
    scale: str = "full"
    seed: int = 7
    cache_dir: Optional[str] = None
    affinity: Optional[AffinityModel] = None

    def pipeline(self) -> "DatasetPipeline":
        """The (process-cached) pipeline this ref names."""
        return pipeline_for_ref(self)


_PIPELINE_CACHE: Dict[str, "DatasetPipeline"] = {}


def pipeline_for_ref(ref: DatasetRef) -> "DatasetPipeline":
    """Process-level pipeline cache keyed by the ref's full identity.

    Table cells running in the same worker process share one pipeline, so
    the split / CKG / graph materialize (or load) exactly once per process
    rather than once per cell.  In-process callers that already hold a
    dataset should use it directly: a first lookup builds a new pipeline.
    """
    key = canonical_json(
        {
            "name": ref.name,
            "scale": ref.scale,
            "seed": ref.seed,
            "cache_dir": str(ref.cache_dir) if ref.cache_dir else None,
            "affinity": ref.affinity,
        }
    )
    pipe = _PIPELINE_CACHE.get(key)
    if pipe is None:
        pipe = DatasetPipeline(
            ref.name,
            scale=ref.scale,
            seed=ref.seed,
            affinity=ref.affinity,
            cache_dir=ref.cache_dir,
        )
        _PIPELINE_CACHE[key] = pipe
    return pipe


class DatasetPipeline:
    """Stage graph for one dataset recipe, with optional artifact caching.

    Parameters
    ----------
    name, scale, seed:
        The dataset recipe (same space as ``load_dataset``).
    affinity:
        Optional override of the calibrated affinity preset; it enters the
        trace fingerprint, so ablation variants cache side by side.
    cache_dir:
        Root of the :class:`~repro.store.ArtifactStore`; resolved through
        :func:`~repro.store.resolve_cache_dir` (explicit → ``$REPRO_CACHE_DIR``
        → disabled).  Without a cache the pipeline still memoizes in-process.
    """

    def __init__(
        self,
        name: str,
        scale: str = "full",
        seed: int = 7,
        affinity: Optional[AffinityModel] = None,
        cache_dir=None,
    ):
        check_in_choices("name", name, DATASET_NAMES)
        check_in_choices("scale", scale, ("full", "small"))
        self.name = name
        self.scale = scale
        self.seed = seed
        self.affinity = affinity if affinity is not None else _default_affinity(name)
        self._explicit_affinity = affinity is not None
        root = resolve_cache_dir(cache_dir)
        self.store: Optional[ArtifactStore] = ArtifactStore(root) if root is not None else None
        self.counters = _blank_counters()
        self._memo: Dict[str, object] = {}

    # ------------------------------------------------------------ fingerprints
    def recipe(self) -> dict:
        """Fully resolved build knobs — the root of the fingerprint chain.

        Every numeric the builders consume appears here explicitly (not just
        the ``"full"``/``"small"`` label), so the fingerprint describes the
        payload even if the scale presets drift between revisions.
        """
        scales = _SCALES[self.name][self.scale]
        return {
            "dataset": self.name,
            "scale": self.scale,
            "seed": self.seed,
            "catalog": _catalog_config(self.name, self.scale),
            "population": {
                "num_users": scales["num_users"],
                "num_orgs": scales["num_orgs"],
                "num_cities": scales["num_cities"],
            },
            "queries_per_user_mean": scales["queries"],
            "affinity": self.affinity,
        }

    def stage_key(
        self,
        stage: str,
        sources: Optional[KnowledgeSources] = None,
        uug_max_neighbors: int = 25,
        block_size: int = STREAM_BLOCK_SIZE,
    ) -> str:
        """Content fingerprint of one stage (no stage is materialized).

        Keys chain: ``split`` embeds the trace digest, ``ckg`` the split
        digest, ``graph`` the CKG digest — so any upstream config change
        re-keys the whole downstream suffix.  ``trace_stream`` keys the
        streamed trace's *manifest*; its per-block artifacts extend the same
        config with a ``block_index``.
        """
        if stage == "trace":
            return fingerprint("trace", {"recipe": self.recipe()}, SCHEMA_VERSIONS["trace"])
        if stage == "trace_stream":
            return fingerprint(
                "trace_stream",
                stream_config(self.recipe(), block_size),
                SCHEMA_VERSIONS["trace_stream"],
            )
        if stage == "split":
            return fingerprint(
                "split",
                {
                    "trace": self.stage_key("trace"),
                    "min_user_interactions": _MIN_USER_INTERACTIONS,
                    "min_item_interactions": _MIN_ITEM_INTERACTIONS,
                    "train_fraction": _TRAIN_FRACTION,
                },
                SCHEMA_VERSIONS["split"],
            )
        if sources is None:
            raise ValueError(f"stage {stage!r} requires a KnowledgeSources")
        ckg_config = {
            "split": self.stage_key("split"),
            "sources": sources,
            "uug_max_neighbors": uug_max_neighbors,
            "seed": self.seed,
        }
        if stage == "ckg":
            return fingerprint("ckg", ckg_config, SCHEMA_VERSIONS["ckg"])
        if stage == "graph":
            return fingerprint(
                "graph",
                {"ckg": fingerprint("ckg", ckg_config, SCHEMA_VERSIONS["ckg"])},
                SCHEMA_VERSIONS["graph"],
            )
        raise ValueError(f"unknown stage {stage!r}; expected one of {PIPELINE_STAGES}")

    def ref(self) -> DatasetRef:
        """The picklable handle for this pipeline's recipe."""
        return DatasetRef(
            name=self.name,
            scale=self.scale,
            seed=self.seed,
            cache_dir=str(self.store.root) if self.store is not None else None,
            affinity=self.affinity if self._explicit_affinity else None,
        )

    # ------------------------------------------------------------ stage engine
    def _stage(
        self,
        stage: str,
        memo_key: str,
        config: dict,
        build: Callable[[], object],
        serialize: Callable[[object], Tuple[Dict[str, np.ndarray], dict]],
        rehydrate: Callable[[Artifact], object],
    ):
        obj = self._memo.get(memo_key)
        if obj is not None:
            self._count(stage, "memo")
            return obj
        if self.store is not None:
            artifact = self.store.get(stage, config, SCHEMA_VERSIONS[stage])
            if artifact is not None:
                obj = rehydrate(artifact)
                self._count(stage, "loaded")
            else:
                obj = build()
                arrays, meta = serialize(obj)
                self.store.put(stage, config, SCHEMA_VERSIONS[stage], arrays, meta)
                self.store.builds += 1
                self._count(stage, "built")
        else:
            obj = build()
            self._count(stage, "built")
        self._memo[memo_key] = obj
        return obj

    def _count(self, stage: str, event: str) -> None:
        self.counters[stage][event] += 1
        _GLOBAL_COUNTERS[stage][event] += 1

    def stage_counters(self) -> Dict[str, Dict[str, int]]:
        """Copy of this pipeline's per-stage build accounting."""
        return {stage: dict(counts) for stage, counts in self.counters.items()}

    # -------------------------------------------------------- facility objects
    def facility(self) -> Tuple[FacilityCatalog, UserPopulation]:
        """Catalog + population, built lazily in-process (never cached).

        Only stage *builders* and direct inspection (``repro analyze``)
        need these; a fully warm run never calls this.
        """
        memo = self._memo.get("facility")
        if memo is None:
            seeds = SeedSequenceFactory(self.seed)
            scales = _SCALES[self.name][self.scale]
            if self.name == "ooi":
                catalog = build_ooi_catalog(
                    _catalog_config("ooi", self.scale), seed=seeds.get("catalog")
                )
            else:
                catalog = build_gage_catalog(
                    _catalog_config("gage", self.scale), seed=seeds.get("catalog")
                )
            population = build_user_population(
                catalog,
                num_users=scales["num_users"],
                num_orgs=scales["num_orgs"],
                num_cities=scales["num_cities"],
                seed=seeds.get("population"),
            )
            memo = (catalog, population)
            self._memo["facility"] = memo
        return memo

    # ----------------------------------------------------------------- stages
    def trace(self) -> QueryTrace:
        """Stage 1: the synthetic facility query trace."""

        def build() -> QueryTrace:
            catalog, population = self.facility()
            return generate_trace(
                catalog,
                population,
                self.affinity,
                seed=SeedSequenceFactory(self.seed).get("trace"),
                queries_per_user_mean=_SCALES[self.name][self.scale]["queries"],
            )

        def serialize(trace: QueryTrace):
            arrays = {
                "user_ids": trace.user_ids,
                "object_ids": trace.object_ids,
                "timestamps": trace.timestamps,
            }
            return arrays, {"num_users": trace.num_users, "num_objects": trace.num_objects}

        def rehydrate(artifact: Artifact) -> QueryTrace:
            return QueryTrace(
                user_ids=artifact.array("user_ids"),
                object_ids=artifact.array("object_ids"),
                timestamps=artifact.array("timestamps"),
                num_users=int(artifact.meta["num_users"]),
                num_objects=int(artifact.meta["num_objects"]),
            )

        return self._stage(
            "trace", "trace", {"recipe": self.recipe()}, build, serialize, rehydrate
        )

    def trace_stream(self, block_size: int = STREAM_BLOCK_SIZE) -> TraceReader:
        """Streamed variant of the trace stage: blocks, never the whole log.

        Unlike the classic stages this one is *incrementally* persisted —
        each user block lands in the store as it is generated, so a crash
        loses at most one block of work and peak memory never includes the
        full trace.  The warm path verifies the manifest plus every block
        before trusting the stream; any corruption degrades to a rebuild,
        exactly like a classic stage miss.  (Not routed through
        :meth:`_stage`, which is built around single-artifact stages.)
        """
        memo_key = f"trace_stream:{int(block_size)}"
        memo = self._memo.get(memo_key)
        if memo is not None:
            self._count("trace_stream", "memo")
            return memo
        recipe = self.recipe()
        reader: Optional[TraceReader] = None
        if self.store is not None:
            reader = load_trace_stream(self.store, recipe, block_size)
            if reader is not None:
                self._count("trace_stream", "loaded")
        if reader is None:
            catalog, population = self.facility()
            reader = stream_trace(
                catalog,
                population,
                self.affinity,
                seed=self.seed,
                queries_per_user_mean=_SCALES[self.name][self.scale]["queries"],
                block_size=block_size,
                store=self.store,
                recipe=recipe if self.store is not None else None,
            )
            if self.store is not None:
                self.store.builds += 1
            self._count("trace_stream", "built")
        self._memo[memo_key] = reader
        return reader

    def split(self) -> TrainTestSplit:
        """Stage 2: the per-user 80/20 interaction split."""
        config = {
            "trace": self.stage_key("trace"),
            "min_user_interactions": _MIN_USER_INTERACTIONS,
            "min_item_interactions": _MIN_ITEM_INTERACTIONS,
            "train_fraction": _TRAIN_FRACTION,
        }

        def build() -> TrainTestSplit:
            interactions = trace_to_interactions(
                self.trace(),
                min_user_interactions=_MIN_USER_INTERACTIONS,
                min_item_interactions=_MIN_ITEM_INTERACTIONS,
            )
            return per_user_split(
                interactions,
                train_fraction=_TRAIN_FRACTION,
                seed=SeedSequenceFactory(self.seed).get("split"),
            )

        def serialize(split: TrainTestSplit):
            arrays = {
                "train_users": split.train.user_ids,
                "train_items": split.train.item_ids,
                "test_users": split.test.user_ids,
                "test_items": split.test.item_ids,
            }
            meta = {"num_users": split.train.num_users, "num_items": split.train.num_items}
            return arrays, meta

        def rehydrate(artifact: Artifact) -> TrainTestSplit:
            num_users = int(artifact.meta["num_users"])
            num_items = int(artifact.meta["num_items"])
            return TrainTestSplit(
                train=InteractionDataset(
                    artifact.array("train_users"),
                    artifact.array("train_items"),
                    num_users,
                    num_items,
                ),
                test=InteractionDataset(
                    artifact.array("test_users"),
                    artifact.array("test_items"),
                    num_users,
                    num_items,
                ),
            )

        return self._stage("split", "split", config, build, serialize, rehydrate)

    def interactions(self) -> InteractionDataset:
        """The unsplit interaction set, reassembled from the split stage.

        ``InteractionDataset`` canonically sorts its pairs, so the train/test
        union is bit-identical to the pre-split dataset — no third artifact
        needed.
        """
        memo = self._memo.get("interactions")
        if memo is None:
            split = self.split()
            memo = InteractionDataset(
                np.concatenate([split.train.user_ids, split.test.user_ids]),
                np.concatenate([split.train.item_ids, split.test.item_ids]),
                split.train.num_users,
                split.train.num_items,
            )
            self._memo["interactions"] = memo
        return memo

    def ckg(
        self,
        sources: KnowledgeSources = KnowledgeSources.best(),
        uug_max_neighbors: int = 25,
    ) -> CollaborativeKnowledgeGraph:
        """Stage 3: the collaborative knowledge graph for one source combo."""
        config = {
            "split": self.stage_key("split"),
            "sources": sources,
            "uug_max_neighbors": uug_max_neighbors,
            "seed": self.seed,
        }
        memo_key = f"ckg:{canonical_json(config)}"

        def build() -> CollaborativeKnowledgeGraph:
            catalog, population = self.facility()
            split = self.split()
            return build_ckg(
                catalog,
                population,
                split.train.user_ids,
                split.train.item_ids,
                sources=sources,
                uug_max_neighbors=uug_max_neighbors,
                seed=self.seed,
            )

        def serialize(ckg: CollaborativeKnowledgeGraph):
            arrays = {
                "store_heads": ckg.store.heads,
                "store_rels": ckg.store.rels,
                "store_tails": ckg.store.tails,
                "prop_heads": ckg.propagation_store.heads,
                "prop_rels": ckg.propagation_store.rels,
                "prop_tails": ckg.propagation_store.tails,
            }
            meta = {
                "entity_blocks": ckg.space.blocks(),
                "store_relation_names": list(ckg.store.relations.names),
                "prop_relation_names": list(ckg.propagation_store.relations.names),
                "num_users": ckg.num_users,
                "num_items": ckg.num_items,
                "sources": dataclasses.asdict(sources),
                "catalog_name": ckg.catalog_name,
            }
            return arrays, meta

        def rehydrate(artifact: Artifact) -> CollaborativeKnowledgeGraph:
            meta = artifact.meta
            space = EntitySpace()
            for block_name, size in meta["entity_blocks"]:
                space.add_block(block_name, int(size))
            store = TripleStore(
                space.num_entities, RelationRegistry(meta["store_relation_names"])
            )
            store.heads = np.asarray(artifact.array("store_heads"))
            store.rels = np.asarray(artifact.array("store_rels"))
            store.tails = np.asarray(artifact.array("store_tails"))
            prop = TripleStore(
                space.num_entities, RelationRegistry(meta["prop_relation_names"])
            )
            prop.heads = np.asarray(artifact.array("prop_heads"))
            prop.rels = np.asarray(artifact.array("prop_rels"))
            prop.tails = np.asarray(artifact.array("prop_tails"))
            return CollaborativeKnowledgeGraph(
                space=space,
                store=store,
                num_users=int(meta["num_users"]),
                num_items=int(meta["num_items"]),
                sources=KnowledgeSources(**meta["sources"]),
                catalog_name=meta["catalog_name"],
                propagation_store=prop,
            )

        return self._stage("ckg", memo_key, config, build, serialize, rehydrate)

    def graph(
        self,
        sources: KnowledgeSources = KnowledgeSources.best(),
        uug_max_neighbors: int = 25,
    ) -> PreparedGraph:
        """Stage 4: the shared :class:`~repro.kg.prepared.PreparedGraph`."""
        config = {"ckg": self.stage_key("ckg", sources, uug_max_neighbors)}
        memo_key = f"graph:{canonical_json(config)}"

        def build() -> PreparedGraph:
            return PreparedGraph.from_ckg(self.ckg(sources, uug_max_neighbors))

        def serialize(graph: PreparedGraph):
            return graph.to_arrays()

        def rehydrate(artifact: Artifact) -> PreparedGraph:
            arrays = {name: artifact.array(name) for name in artifact.array_names()}
            return PreparedGraph.from_arrays(arrays, artifact.meta)

        return self._stage("graph", memo_key, config, build, serialize, rehydrate)

    # -------------------------------------------------------------- pickling
    def __getstate__(self):
        """Pickle the recipe, not the materializations.

        Memoized stage objects can hold memory maps and multi-MB arrays;
        a worker receiving this pipeline rebuilds (or re-loads) them
        deterministically, so shipping the recipe alone is lossless.
        """
        state = self.__dict__.copy()
        state["_memo"] = {}
        return state

    # ------------------------------------------------------------- diagnostics
    def describe(self) -> str:
        cache = str(self.store.root) if self.store is not None else "disabled"
        return (
            f"DatasetPipeline({self.name}/{self.scale}, seed={self.seed}, cache={cache})"
        )

    def __repr__(self) -> str:
        return self.describe()
