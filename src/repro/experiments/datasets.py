"""Benchmark dataset bundles.

``load_dataset("ooi")`` / ``load_dataset("gage")`` reproduce the evaluation
setup of Section VI-A — catalog → users → trace → interactions → 80/20
split — at a fixed seed.  ``scale="small"`` yields a miniature variant for
unit tests and quick benches.

Since the artifact-pipeline refactor a :class:`BenchmarkDataset` is a *lazy*
view over a :class:`~repro.pipeline.DatasetPipeline`: nothing is built until
an attribute is touched, and with a ``cache_dir`` the expensive stages come
back as memory-mapped artifacts.  Laziness is what makes warm runs fast —
a table harness that only needs the split and the prepared graph never pays
for catalog, population or trace generation at all.
"""

from __future__ import annotations

from typing import Optional

from repro.data.interactions import InteractionDataset
from repro.data.split import TrainTestSplit
from repro.facility.affinity import AffinityModel
from repro.facility.catalog import FacilityCatalog
from repro.facility.trace import QueryTrace
from repro.facility.users import UserPopulation
from repro.kg.ckg import CollaborativeKnowledgeGraph
from repro.kg.prepared import PreparedGraph
from repro.kg.subgraphs import KnowledgeSources
from repro.pipeline import DatasetPipeline, DatasetRef
from repro.pipeline.stages import DATASET_NAMES

__all__ = ["BenchmarkDataset", "load_dataset", "dataset_from_ref", "DATASET_NAMES"]


class BenchmarkDataset:
    """Everything one evaluation run needs, materialized on demand.

    The attribute surface matches the eager dataclass this used to be
    (``catalog``, ``population``, ``trace``, ``interactions``, ``split``,
    ``build_ckg`` …), so consumers are unchanged; each property delegates to
    the underlying pipeline, which memoizes in-process and optionally in the
    artifact store.
    """

    def __init__(self, pipeline: DatasetPipeline):
        self._pipeline = pipeline

    # ------------------------------------------------------------- identity
    @property
    def pipeline(self) -> DatasetPipeline:
        return self._pipeline

    @property
    def name(self) -> str:
        return self._pipeline.name

    @property
    def seed(self) -> int:
        return self._pipeline.seed

    @property
    def affinity(self) -> AffinityModel:
        return self._pipeline.affinity

    def ref(self) -> DatasetRef:
        """Picklable handle for crossing process boundaries."""
        return self._pipeline.ref()

    # ---------------------------------------------------------------- stages
    @property
    def catalog(self) -> FacilityCatalog:
        return self._pipeline.facility()[0]

    @property
    def population(self) -> UserPopulation:
        return self._pipeline.facility()[1]

    @property
    def trace(self) -> QueryTrace:
        return self._pipeline.trace()

    @property
    def interactions(self) -> InteractionDataset:
        return self._pipeline.interactions()

    @property
    def split(self) -> TrainTestSplit:
        return self._pipeline.split()

    def build_ckg(
        self, sources: KnowledgeSources = KnowledgeSources.best()
    ) -> CollaborativeKnowledgeGraph:
        """CKG over the *training* interactions with the given sources."""
        return self._pipeline.ckg(sources)

    def prepared_graph(
        self, sources: KnowledgeSources = KnowledgeSources.best()
    ) -> PreparedGraph:
        """The shared graph runtime for the given sources."""
        return self._pipeline.graph(sources)

    def describe(self) -> str:
        return (
            f"{self.name}: {self.catalog.describe()}; {self.population.describe()}; "
            f"{len(self.trace)} query records → {len(self.interactions)} interactions "
            f"({len(self.split.train)} train / {len(self.split.test)} test)"
        )

    def __repr__(self) -> str:
        return f"BenchmarkDataset({self._pipeline.describe()})"


def load_dataset(
    name: str = "ooi",
    scale: str = "full",
    seed: int = 7,
    affinity: Optional[AffinityModel] = None,
    cache_dir=None,
) -> BenchmarkDataset:
    """Build a (lazy) benchmark dataset bundle.

    Parameters
    ----------
    name:
        ``"ooi"`` or ``"gage"``.
    scale:
        ``"full"`` (Table-I-class sizes) or ``"small"`` (test-size).
    seed:
        Root seed; all pipeline stages derive independent child generators
        from it, so the bundle is bit-for-bit reproducible.
    affinity:
        Override the calibrated affinity preset (used by ablations).
    cache_dir:
        Artifact-store root; stages persist/load content-addressed
        artifacts there.  ``None`` honors ``$REPRO_CACHE_DIR``; empty
        environment means no caching.
    """
    return BenchmarkDataset(
        DatasetPipeline(name, scale=scale, seed=seed, affinity=affinity, cache_dir=cache_dir)
    )


def dataset_from_ref(ref: DatasetRef) -> BenchmarkDataset:
    """Materialize the dataset a :class:`DatasetRef` names.

    Worker-process entry point: the underlying pipeline is process-cached,
    so the table cells in one worker share stage materializations.
    """
    return BenchmarkDataset(ref.pipeline())
