"""Model registry and the train→evaluate pipeline.

Hyperparameters follow Section VI-D: embedding size 64 for every model except
RippleNet (16, for computational cost), Adam with batch size 512, Xavier
initialization, CKAT depth 3 with hidden dims (64, 32, 16), RippleNet
``n_hop = 2``.  The learning rate and epoch budget are the only knobs the
harness standardizes across models (the paper grid-searches them; we use the
values its grid most often selects, overridable per call).
"""

from __future__ import annotations

import dataclasses
import hashlib
import pathlib
import re
import time
from typing import List, Optional, Sequence, Tuple, Union

from repro.eval.evaluator import RankingEvaluator
from repro.experiments.datasets import BenchmarkDataset, dataset_from_ref, load_dataset
from repro.kg.ckg import CollaborativeKnowledgeGraph
from repro.kg.prepared import PreparedGraph
from repro.kg.subgraphs import KnowledgeSources
from repro.pipeline import DatasetRef
from repro.models import (
    BPRMF,
    CFKG,
    CKAT,
    CKE,
    FM,
    KGCN,
    NFM,
    CKATConfig,
    ItemFeatureTable,
    Recommender,
    RippleNet,
)
from repro.io.checkpoints import normalize_checkpoint_path
from repro.models.base import FitConfig
from repro.parallel import ProcessExecutor
from repro.utils.telemetry import RunLogger

__all__ = [
    "MODEL_NAMES",
    "build_model",
    "default_fit_config",
    "run_single_model",
    "RunResult",
    "CellSpec",
    "run_cell",
    "run_cells",
]

MODEL_NAMES = ("BPRMF", "FM", "NFM", "CKE", "CFKG", "RippleNet", "KGCN", "CKAT")


def build_model(
    name: str,
    dataset: BenchmarkDataset,
    ckg: CollaborativeKnowledgeGraph,
    seed: int = 0,
    ckat_config: Optional[CKATConfig] = None,
    graph: Optional[PreparedGraph] = None,
) -> Recommender:
    """Instantiate a registry model with the paper's hyperparameters.

    ``graph`` optionally injects the shared :class:`PreparedGraph` so the
    KG-aware models reuse one set of derived adjacencies instead of each
    re-deriving them from ``ckg`` (bit-identical either way).
    """
    M = dataset.split.train.num_users
    N = dataset.split.train.num_items
    if name == "BPRMF":
        return BPRMF(M, N, dim=64, seed=seed)
    if name == "FM":
        return FM(M, N, ItemFeatureTable(ckg), dim=64, seed=seed)
    if name == "NFM":
        return NFM(M, N, ItemFeatureTable(ckg), dim=64, hidden_dim=64, dropout=0.1, seed=seed)
    if name == "CKE":
        return CKE(M, N, ckg, dim=64, seed=seed, graph=graph)
    if name == "CFKG":
        return CFKG(M, N, ckg, dim=64, seed=seed, graph=graph)
    if name == "RippleNet":
        return RippleNet(M, N, ckg, dataset.split.train, dim=16, n_hop=2, seed=seed, graph=graph)
    if name == "KGCN":
        return KGCN(M, N, ckg, dim=64, neighbor_size=16, n_iter=1, seed=seed, graph=graph)
    if name == "CKAT":
        return CKAT(M, N, ckg, ckat_config or CKATConfig(), seed=seed, graph=graph)
    raise ValueError(f"unknown model {name!r}; known: {MODEL_NAMES}")


def default_fit_config(name: str, epochs: Optional[int] = None, seed: int = 0) -> FitConfig:
    """Per-model training budget.

    All models share Adam/batch-512; learning rates are the grid winners
    observed on the synthetic benchmarks (the paper tunes per model over
    {0.05, 0.01, 0.005, 0.001}).
    """
    lr = {
        "BPRMF": 0.01,
        "FM": 0.01,
        "NFM": 0.005,
        "CKE": 0.005,
        "CFKG": 0.005,
        "RippleNet": 0.005,
        "KGCN": 0.005,
        "CKAT": 0.005,
    }.get(name, 0.005)
    default_epochs = {
        "BPRMF": 40,
        "FM": 40,
        "NFM": 40,
        "CKE": 40,
        "CFKG": 40,
        "RippleNet": 50,
        "KGCN": 40,
        "CKAT": 50,
    }.get(name, 40)
    return FitConfig(epochs=epochs if epochs is not None else default_epochs, lr=lr, seed=seed)


@dataclasses.dataclass(frozen=True)
class RunResult:
    """Outcome of one train→evaluate run."""

    model: str
    dataset: str
    recall: float
    ndcg: float
    train_seconds: float
    eval_seconds: float
    final_loss: float

    def row(self):
        return [self.model, self.recall, self.ndcg]


def _run_slug(label: str, dataset_name: str) -> str:
    """Filesystem-safe per-run file stem (labels may hold spaces, '/', '+').

    Sanitizing alone is lossy — ``"lr 0.01"`` and ``"lr/0.01"`` both map to
    ``lr_0.01``, so two distinct runs would share a telemetry file and a
    checkpoint slot.  A short digest of the *unsanitized* identity
    disambiguates while keeping the stem human-readable.
    """
    raw = f"{label}\x1f{dataset_name}"
    sanitized = re.sub(r"[^A-Za-z0-9_.-]+", "_", f"{label}_{dataset_name}").strip("_")
    suffix = hashlib.sha256(raw.encode("utf-8")).hexdigest()[:8]
    return f"{sanitized}-{suffix}"


def run_single_model(
    name: str,
    dataset: BenchmarkDataset,
    ckg: Optional[CollaborativeKnowledgeGraph] = None,
    graph: Optional[PreparedGraph] = None,
    epochs: Optional[int] = None,
    seed: int = 0,
    k: int = 20,
    ckat_config: Optional[CKATConfig] = None,
    sources: KnowledgeSources = KnowledgeSources.best(),
    best_epoch_selection: bool = True,
    label: Optional[str] = None,
    log_dir: Optional[pathlib.Path] = None,
    checkpoint_dir: Optional[pathlib.Path] = None,
    checkpoint_every: int = 10,
    resume: bool = False,
    train_workers: int = 0,
) -> RunResult:
    """Train one model on ``dataset`` and evaluate recall@K / ndcg@K.

    ``best_epoch_selection`` enables the KGAT-style protocol: evaluate every
    10 epochs and keep the best-recall snapshot (all models get the same
    treatment, so the comparison stays fair).

    ``log_dir`` turns on JSONL telemetry (one ``<label>_<dataset>.jsonl``
    per run, started afresh unless the run resumes from a checkpoint);
    ``checkpoint_dir`` turns on periodic full-state checkpoints
    every ``checkpoint_every`` epochs, and ``resume=True`` restarts from the
    run's checkpoint when one exists — producing the same parameters as an
    uninterrupted run (see :meth:`repro.models.base.Recommender.fit`).

    ``train_workers > 0`` trains data-parallel through
    :class:`repro.train.ShardedExecutor` with that many worker processes
    (models with private dropout RNGs — NFM, CKAT — are rejected by the
    executor; checkpoints then record the worker/shard layout and only
    resume under the same ``train_workers``).
    """
    if ckg is None:
        ckg = dataset.build_ckg(sources)
        if graph is None:
            # Safe to share only when the CKG came from the dataset's own
            # pipeline: a caller-supplied CKG may differ in content while
            # matching in size, which check_compatible cannot see.
            graph = dataset.prepared_graph(sources)
    model = build_model(name, dataset, ckg, seed=seed, ckat_config=ckat_config, graph=graph)
    fit_cfg = default_fit_config(name, epochs=epochs, seed=seed)
    evaluator = RankingEvaluator(dataset.split.train, dataset.split.test, k=k)
    eval_callback = None
    if best_epoch_selection:
        fit_cfg.eval_every = 10
        fit_cfg.keep_best_metric = f"recall@{k}"
        eval_callback = lambda: evaluator.evaluate_model(model).as_dict()  # noqa: E731
    slug = _run_slug(label or name, dataset.name)
    checkpoint_path = None
    resume_from = None
    if checkpoint_dir is not None:
        checkpoint_path = pathlib.Path(checkpoint_dir) / f"{slug}.ckpt.npz"
        checkpoint_path.parent.mkdir(parents=True, exist_ok=True)
        if resume and normalize_checkpoint_path(checkpoint_path).exists():
            resume_from = checkpoint_path
    logger = None
    if log_dir is not None:
        log_path = pathlib.Path(log_dir) / f"{slug}.jsonl"
        if resume_from is None:
            # Only a resumed run continues its log; a fresh or re-run cell
            # (a worker retry, a second table run) would otherwise append a
            # second copy of the run to the first.
            log_path.unlink(missing_ok=True)
        logger = RunLogger(log_path, run_id=slug)
    executor = None
    if train_workers:
        if train_workers < 0:
            raise ValueError(f"train_workers must be >= 0, got {train_workers}")
        from repro.train import ShardedExecutor

        executor = ShardedExecutor(train_workers)
    try:
        if logger is not None:
            logger.log("cell_start", label=label or name, model=name, dataset=dataset.name)
        fit = model.fit(
            dataset.split.train,
            fit_cfg,
            eval_callback=eval_callback,
            checkpoint_every=checkpoint_every if checkpoint_path is not None else 0,
            checkpoint_path=checkpoint_path,
            resume_from=resume_from,
            logger=logger,
            executor=executor,
        )
        t0 = time.perf_counter()
        result = evaluator.evaluate_model(model)
        eval_seconds = time.perf_counter() - t0
        if logger is not None:
            pipeline = getattr(dataset, "pipeline", None)
            if pipeline is not None:
                # Stage-build accounting: lets a warm-cache run *prove* it
                # regenerated nothing (all stages loaded, zero built).
                store = pipeline.store
                logger.log(
                    "pipeline_stages",
                    stages=pipeline.stage_counters(),
                    store=store.stats() if store is not None else None,
                )
            logger.log(
                "cell_end",
                label=label or name,
                model=name,
                dataset=dataset.name,
                recall=result.recall,
                ndcg=result.ndcg,
                train_seconds=fit.seconds,
                eval_seconds=eval_seconds,
            )
    finally:
        if logger is not None:
            logger.close()
    return RunResult(
        model=name,
        dataset=dataset.name,
        recall=result.recall,
        ndcg=result.ndcg,
        train_seconds=fit.seconds,
        eval_seconds=eval_seconds,
        final_loss=fit.final_loss,
    )


# --------------------------------------------------------- experiment fan-out
@dataclasses.dataclass(frozen=True)
class CellSpec:
    """Picklable description of one independent table cell.

    A cell is one (model × dataset × variant) train→evaluate run — the unit
    the paper's Tables II–V are made of.  Cells share nothing at runtime, so
    they can fan out across a :class:`~repro.parallel.ProcessExecutor`.

    ``dataset`` is preferably a lightweight
    :class:`~repro.pipeline.DatasetRef` — the worker materializes the stages
    it needs through its process-cached pipeline (memory-mapping artifacts
    when the ref carries a cache dir) instead of receiving pickled arrays.
    A dataset name string (rebuilt via :func:`load_dataset` with
    ``dataset_scale``/``dataset_seed``/``cache_dir``) and a full
    :class:`BenchmarkDataset` remain accepted; all three spellings are
    bit-identical by construction since the bundles are pure functions of
    their seed.
    """

    label: str
    model: str
    dataset: Union[str, DatasetRef, BenchmarkDataset]
    dataset_scale: str = "full"
    dataset_seed: int = 7
    epochs: Optional[int] = None
    seed: int = 0
    k: int = 20
    sources: KnowledgeSources = KnowledgeSources.best()
    ckat_config: Optional[CKATConfig] = None
    best_epoch_selection: bool = True
    log_dir: Optional[str] = None
    checkpoint_dir: Optional[str] = None
    checkpoint_every: int = 10
    resume: bool = False
    cache_dir: Optional[str] = None


def run_cell(spec: CellSpec) -> RunResult:
    """Execute one cell (worker entry point — module-level, picklable)."""
    dataset = spec.dataset
    if isinstance(dataset, DatasetRef):
        dataset = dataset_from_ref(dataset)
    elif isinstance(dataset, str):
        dataset = load_dataset(
            dataset, scale=spec.dataset_scale, seed=spec.dataset_seed, cache_dir=spec.cache_dir
        )
    return run_single_model(
        spec.model,
        dataset,
        epochs=spec.epochs,
        seed=spec.seed,
        k=spec.k,
        ckat_config=spec.ckat_config,
        sources=spec.sources,
        best_epoch_selection=spec.best_epoch_selection,
        label=spec.label,
        log_dir=pathlib.Path(spec.log_dir) if spec.log_dir else None,
        checkpoint_dir=pathlib.Path(spec.checkpoint_dir) if spec.checkpoint_dir else None,
        checkpoint_every=spec.checkpoint_every,
        resume=spec.resume,
    )


def run_cells(
    specs: Sequence[CellSpec],
    num_workers: int = 0,
) -> List[Tuple[CellSpec, RunResult]]:
    """Run independent cells, optionally fanned across worker processes.

    ``num_workers > 1`` maps the cells through a :class:`ProcessExecutor`
    (closed after the run); anything else runs them in a plain loop.

    Results are returned in spec order, paired with their specs, and are
    identical to a serial run: each cell derives all randomness from its own
    seeds, so process boundaries cannot change the numbers.
    """
    specs = list(specs)
    if num_workers > 1:
        with ProcessExecutor(max_workers=num_workers) as pool:
            return list(zip(specs, pool.map(run_cell, specs)))
    return [(spec, run_cell(spec)) for spec in specs]
