"""Harnesses regenerating the paper's Tables I–V.

Every ``tableN`` function runs the corresponding experiment and returns a
``(results, rendered_text)`` pair; the rendered table has the same rows as
the paper plus the paper's published numbers alongside, so the shape —
which model wins, which knowledge combination is best, whether attention /
concat / depth help — can be compared directly.
"""

from __future__ import annotations

import pathlib
from typing import Dict, List, Optional, Tuple, Union

from repro.experiments.datasets import BenchmarkDataset, load_dataset
from repro.experiments.runner import MODEL_NAMES, CellSpec, RunResult, run_cells
from repro.kg.stats import CKGStats, compute_stats, render_table1
from repro.kg.subgraphs import KnowledgeSources
from repro.models.ckat import CKATConfig
from repro.utils.tables import TextTable

__all__ = [
    "PAPER_TABLE2",
    "PAPER_TABLE3",
    "PAPER_TABLE4",
    "PAPER_TABLE5",
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
]

# ------------------------------------------------------------ paper values
PAPER_TABLE2: Dict[str, Dict[str, Tuple[float, float]]] = {
    # model: {dataset: (recall@20, ndcg@20)}
    "BPRMF": {"ooi": (0.1935, 0.1693), "gage": (0.2742, 0.2115)},
    "FM": {"ooi": (0.2353, 0.2228), "gage": (0.3174, 0.2356)},
    "NFM": {"ooi": (0.2339, 0.2211), "gage": (0.3289, 0.2471)},
    "CKE": {"ooi": (0.2102, 0.2197), "gage": (0.2675, 0.2106)},
    "CFKG": {"ooi": (0.2283, 0.2241), "gage": (0.2572, 0.2096)},
    "RippleNet": {"ooi": (0.2833, 0.2394), "gage": (0.3584, 0.2981)},
    "KGCN": {"ooi": (0.3020, 0.2414), "gage": (0.3767, 0.3106)},
    "CKAT": {"ooi": (0.3217, 0.2561), "gage": (0.4062, 0.3306)},
}

PAPER_TABLE3: Dict[str, Dict[str, Tuple[float, float]]] = {
    "UIG+LOC": {"ooi": (0.2675, 0.2322), "gage": (0.3848, 0.3191)},
    "UIG+DKG": {"ooi": (0.2844, 0.2424), "gage": (0.3643, 0.3148)},
    "UIG+UUG": {"ooi": (0.2756, 0.2364), "gage": (0.3543, 0.3048)},
    "UIG+LOC+DKG": {"ooi": (0.3074, 0.2527), "gage": (0.3943, 0.3148)},
    "UIG+UUG+LOC+DKG": {"ooi": (0.3217, 0.2561), "gage": (0.4062, 0.3306)},
    "UIG+UUG+LOC+DKG+MD": {"ooi": (0.3197, 0.2511), "gage": (0.4011, 0.3276)},
}

PAPER_TABLE4: Dict[str, Dict[str, Tuple[float, float]]] = {
    "w/ Att + concat": {"ooi": (0.3217, 0.2561), "gage": (0.4062, 0.3306)},
    "w/ Att + sum": {"ooi": (0.3120, 0.2409), "gage": (0.3894, 0.3123)},
    "w/o Att + concat": {"ooi": (0.2994, 0.2331), "gage": (0.3755, 0.3147)},
}

PAPER_TABLE5: Dict[str, Dict[str, Tuple[float, float]]] = {
    "CKAT-1": {"ooi": (0.3108, 0.2471), "gage": (0.3736, 0.3118)},
    "CKAT-2": {"ooi": (0.3209, 0.2478), "gage": (0.3821, 0.3215)},
    "CKAT-3": {"ooi": (0.3217, 0.2561), "gage": (0.3919, 0.3278)},
}

PathLike = Union[str, pathlib.Path]


# Table-III knowledge-source combinations, in paper row order.
TABLE3_COMBINATIONS: List[Tuple[str, KnowledgeSources]] = [
    ("UIG+LOC", KnowledgeSources(uug=False, loc=True, dkg=False, md=False)),
    ("UIG+DKG", KnowledgeSources(uug=False, loc=False, dkg=True, md=False)),
    ("UIG+UUG", KnowledgeSources(uug=True, loc=False, dkg=False, md=False)),
    ("UIG+LOC+DKG", KnowledgeSources(uug=False, loc=True, dkg=True, md=False)),
    ("UIG+UUG+LOC+DKG", KnowledgeSources(uug=True, loc=True, dkg=True, md=False)),
    ("UIG+UUG+LOC+DKG+MD", KnowledgeSources(uug=True, loc=True, dkg=True, md=True)),
]


def _run_grid(
    variants: List[Tuple[str, str, dict]],
    datasets: List[BenchmarkDataset],
    epochs: Optional[int],
    seed: int,
    num_workers: int,
    log_dir: Optional[PathLike],
    checkpoint_dir: Optional[PathLike],
    resume: bool,
) -> Dict[Tuple[str, str], RunResult]:
    """Run one cell per (variant × dataset) through :func:`run_cells`.

    ``variants`` holds ``(label, model, CellSpec overrides)`` triples; the
    results are keyed by ``(label, dataset name)``.  ``num_workers > 1`` fans
    the cells across a process pool; every cell reseeds from its spec, so the
    rows are identical to a serial run.  ``log_dir``/``checkpoint_dir``/
    ``resume`` give each cell its JSONL telemetry and resumable checkpoints.
    """
    specs = [
        CellSpec(
            label=label,
            model=model,
            dataset=ds,
            epochs=epochs,
            seed=seed,
            log_dir=str(log_dir) if log_dir else None,
            checkpoint_dir=str(checkpoint_dir) if checkpoint_dir else None,
            resume=resume,
            **overrides,
        )
        for label, model, overrides in variants
        for ds in datasets
    ]
    return {(spec.label, r.dataset): r for spec, r in run_cells(specs, num_workers=num_workers)}


# ------------------------------------------------------------------ tables
def table1(
    ooi: Optional[BenchmarkDataset] = None, gage: Optional[BenchmarkDataset] = None
) -> Tuple[Dict[str, CKGStats], str]:
    """Table I: CKG statistics for both facilities."""
    ooi = ooi or load_dataset("ooi")
    gage = gage or load_dataset("gage")
    stats = {}
    for ds in (ooi, gage):
        ckg = ds.build_ckg(KnowledgeSources.all_sources())
        stats[ds.name] = compute_stats(ckg)
    return stats, render_table1(stats["ooi"], stats["gage"])


def table2(
    datasets: Optional[List[BenchmarkDataset]] = None,
    models: Tuple[str, ...] = MODEL_NAMES,
    epochs: Optional[int] = None,
    seed: int = 0,
    num_workers: int = 0,
    log_dir: Optional[PathLike] = None,
    checkpoint_dir: Optional[PathLike] = None,
    resume: bool = False,
) -> Tuple[Dict[Tuple[str, str], RunResult], str]:
    """Table II: overall performance comparison across all models.

    ``num_workers``, ``log_dir``, ``checkpoint_dir`` and ``resume`` apply to
    every cell, as in :func:`_run_grid`.
    """
    datasets = datasets or [load_dataset("ooi"), load_dataset("gage")]
    results = _run_grid(
        [(name, name, {}) for name in models],
        datasets,
        epochs=epochs,
        seed=seed,
        num_workers=num_workers,
        log_dir=log_dir,
        checkpoint_dir=checkpoint_dir,
        resume=resume,
    )
    headers = ["model"]
    for ds in datasets:
        headers += [f"{ds.name} r@20", f"{ds.name} n@20", f"{ds.name} r@20 paper", f"{ds.name} n@20 paper"]
    table = TextTable(headers, title="Table II: overall performance comparison")
    for name in models:
        row: List = [name]
        for ds in datasets:
            r = results[(name, ds.name)]
            paper = PAPER_TABLE2.get(name, {}).get(ds.name, (None, None))
            row += [r.recall, r.ndcg, paper[0], paper[1]]
        table.add_row(row)
    if "CKAT" in models:
        table.add_separator()
        row = ["% improvement vs best baseline"]
        for ds in datasets:
            base = [results[(m, ds.name)] for m in models if m != "CKAT"]
            best_r = max(b.recall for b in base)
            best_n = max(b.ndcg for b in base)
            ck = results[("CKAT", ds.name)]
            row += [
                f"{100 * (ck.recall - best_r) / best_r:+.2f}%",
                f"{100 * (ck.ndcg - best_n) / best_n:+.2f}%",
                "+6.12%" if ds.name == "ooi" else "+7.26%",
                "+5.74%" if ds.name == "ooi" else "+6.05%",
            ]
        table.add_row(row)
    return results, table.render()


def table3(
    datasets: Optional[List[BenchmarkDataset]] = None,
    epochs: Optional[int] = None,
    seed: int = 0,
    num_workers: int = 0,
    log_dir: Optional[PathLike] = None,
    checkpoint_dir: Optional[PathLike] = None,
    resume: bool = False,
) -> Tuple[Dict[Tuple[str, str], RunResult], str]:
    """Table III: CKAT under different knowledge-source combinations."""
    datasets = datasets or [load_dataset("ooi"), load_dataset("gage")]
    results = _run_grid(
        [(label, "CKAT", {"sources": src}) for label, src in TABLE3_COMBINATIONS],
        datasets,
        epochs=epochs,
        seed=seed,
        num_workers=num_workers,
        log_dir=log_dir,
        checkpoint_dir=checkpoint_dir,
        resume=resume,
    )
    headers = ["knowledge sources"]
    for ds in datasets:
        headers += [f"{ds.name} r@20", f"{ds.name} n@20", f"{ds.name} r@20 paper"]
    table = TextTable(headers, title="Table III: knowledge-source combinations (CKAT)")
    for label, _ in TABLE3_COMBINATIONS:
        row: List = [label]
        for ds in datasets:
            r = results[(label, ds.name)]
            row += [r.recall, r.ndcg, PAPER_TABLE3[label][ds.name][0]]
        table.add_row(row)
    return results, table.render()


def table4(
    datasets: Optional[List[BenchmarkDataset]] = None,
    epochs: Optional[int] = None,
    seed: int = 0,
    num_workers: int = 0,
    log_dir: Optional[PathLike] = None,
    checkpoint_dir: Optional[PathLike] = None,
    resume: bool = False,
) -> Tuple[Dict[Tuple[str, str], RunResult], str]:
    """Table IV: attention mechanism and aggregator ablation."""
    datasets = datasets or [load_dataset("ooi"), load_dataset("gage")]
    variants = [
        ("w/ Att + concat", CKATConfig(aggregator="concat", use_attention=True)),
        ("w/ Att + sum", CKATConfig(aggregator="sum", use_attention=True)),
        ("w/o Att + concat", CKATConfig(aggregator="concat", use_attention=False)),
    ]
    results = _run_grid(
        [(label, "CKAT", {"ckat_config": cfg}) for label, cfg in variants],
        datasets,
        epochs=epochs,
        seed=seed,
        num_workers=num_workers,
        log_dir=log_dir,
        checkpoint_dir=checkpoint_dir,
        resume=resume,
    )
    headers = ["variant"]
    for ds in datasets:
        headers += [f"{ds.name} r@20", f"{ds.name} n@20", f"{ds.name} r@20 paper"]
    table = TextTable(headers, title="Table IV: attention / aggregator ablation (CKAT)")
    for label, _ in variants:
        row: List = [label]
        for ds in datasets:
            r = results[(label, ds.name)]
            row += [r.recall, r.ndcg, PAPER_TABLE4[label][ds.name][0]]
        table.add_row(row)
    return results, table.render()


def table5(
    datasets: Optional[List[BenchmarkDataset]] = None,
    epochs: Optional[int] = None,
    seed: int = 0,
    num_workers: int = 0,
    log_dir: Optional[PathLike] = None,
    checkpoint_dir: Optional[PathLike] = None,
    resume: bool = False,
) -> Tuple[Dict[Tuple[str, str], RunResult], str]:
    """Table V: propagation-layer depth L ∈ {1, 2, 3}."""
    datasets = datasets or [load_dataset("ooi"), load_dataset("gage")]
    depths = [
        ("CKAT-1", CKATConfig(layer_dims=(64,))),
        ("CKAT-2", CKATConfig(layer_dims=(64, 32))),
        ("CKAT-3", CKATConfig(layer_dims=(64, 32, 16))),
    ]
    results = _run_grid(
        [(label, "CKAT", {"ckat_config": cfg}) for label, cfg in depths],
        datasets,
        epochs=epochs,
        seed=seed,
        num_workers=num_workers,
        log_dir=log_dir,
        checkpoint_dir=checkpoint_dir,
        resume=resume,
    )
    headers = ["depth"]
    for ds in datasets:
        headers += [f"{ds.name} r@20", f"{ds.name} n@20", f"{ds.name} r@20 paper"]
    table = TextTable(headers, title="Table V: embedding propagation depth (CKAT)")
    for label, _ in depths:
        row: List = [label]
        for ds in datasets:
            r = results[(label, ds.name)]
            row += [r.recall, r.ndcg, PAPER_TABLE5[label][ds.name][0]]
        table.add_row(row)
    return results, table.render()
