"""Experiment harness: regenerates every table and figure of Section VI.

- :mod:`~repro.experiments.datasets` — the two benchmark datasets (OOI-like,
  GAGE-like) as reproducible bundles;
- :mod:`~repro.experiments.runner` — model registry, training budgets, and
  the train→evaluate pipeline;
- :mod:`~repro.experiments.tables` — Tables I–V;
- :mod:`~repro.experiments.figures` — Figures 3–5.

Each harness returns structured results *and* renders a paper-shaped text
table, so benches can both assert on the shape and print paper-vs-measured.
"""

from repro.experiments import figures, tables
from repro.experiments.coldstart import cold_start_report, slice_users_by_history
from repro.experiments.datasets import BenchmarkDataset, load_dataset
from repro.experiments.runner import (
    MODEL_NAMES,
    CellSpec,
    build_model,
    default_fit_config,
    run_cell,
    run_cells,
    run_single_model,
)

__all__ = [
    "BenchmarkDataset",
    "load_dataset",
    "MODEL_NAMES",
    "CellSpec",
    "build_model",
    "default_fit_config",
    "run_cell",
    "run_cells",
    "run_single_model",
    "tables",
    "figures",
    "cold_start_report",
    "slice_users_by_history",
]
