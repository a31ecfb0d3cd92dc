"""Shared benchmark fixtures.

Scale knobs (environment variables):

- ``REPRO_BENCH_SCALE``  — ``full`` (default) or ``small``; controls dataset size.
- ``REPRO_BENCH_EPOCHS`` — training epochs per model run (default 30 full /
  6 small).  Raise for tighter reproduction of the tables, lower for smoke.

Each bench writes its rendered table to ``benchmarks/results/<name>.txt`` in
addition to printing it, so the paper-vs-measured comparison survives the
pytest run.
"""

import json
import os
import pathlib
import platform

import pytest

from repro.experiments.datasets import load_dataset

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

BENCH_SCALE = os.environ.get("REPRO_BENCH_SCALE", "full")
# None → per-model default budgets (Section VI-D); an integer overrides all.
_epochs_env = os.environ.get("REPRO_BENCH_EPOCHS", "")
BENCH_EPOCHS = int(_epochs_env) if _epochs_env else (None if BENCH_SCALE == "full" else 6)
# Ablation tables (III-V) retrain CKAT many times; they use a reduced budget
# unless REPRO_BENCH_EPOCHS overrides it.
ABLATION_EPOCHS = BENCH_EPOCHS if BENCH_EPOCHS is not None else (30 if BENCH_SCALE == "full" else 6)
BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "7"))


def write_result(name: str, text: str) -> None:
    """Persist a rendered table under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print("\n" + text)


def write_bench_json(name: str, payload: dict) -> None:
    """Persist machine-readable benchmark numbers as ``BENCH_<name>.json``.

    The rendered ``.txt`` tables are for humans; these JSON files carry the
    raw timings/speedup ratios plus the run conditions (scale, seed,
    platform) so regression tooling can diff runs without parsing tables.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    doc = {
        "name": name,
        "scale": BENCH_SCALE,
        "seed": BENCH_SEED,
        "platform": platform.platform(),
        "python": platform.python_version(),
        **payload,
    }
    path = RESULTS_DIR / f"BENCH_{name}.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def update_bench_json(name: str, payload: dict) -> None:
    """Like :func:`write_bench_json`, keeping the keys ``payload`` does not set.

    For a ``BENCH_<name>.json`` that several tests fill in part.
    """
    path = RESULTS_DIR / f"BENCH_{name}.json"
    prior = json.loads(path.read_text()) if path.exists() else {}
    write_bench_json(name, {**prior, **payload})


@pytest.fixture(scope="session")
def ooi_dataset():
    return load_dataset("ooi", scale=BENCH_SCALE, seed=BENCH_SEED)


@pytest.fixture(scope="session")
def gage_dataset():
    return load_dataset("gage", scale=BENCH_SCALE, seed=BENCH_SEED)


@pytest.fixture(scope="session")
def bench_epochs():
    return BENCH_EPOCHS


@pytest.fixture(scope="session")
def ablation_epochs():
    return ABLATION_EPOCHS
