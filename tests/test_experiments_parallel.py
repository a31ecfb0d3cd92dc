"""Parallel experiment fan-out: cells are picklable, executor-independent,
and the parallel table drivers reproduce the serial rows exactly."""

import pickle

import numpy as np
import pytest

from repro.experiments import runner, tables
from repro.experiments.datasets import load_dataset
from repro.experiments.runner import CellSpec, RunResult, _run_slug, run_cells
from repro.experiments.tables import table2
from repro.pipeline import DatasetRef


@pytest.fixture(scope="module")
def small_ooi():
    return load_dataset("ooi", scale="small", seed=7)


def _echo_dataset(spec):
    """Stand-in for ``run_cell`` (module-level, so process pools can pickle it)."""
    return spec.dataset


class TestCellSpec:
    def test_picklable_with_dataset_bundle(self, small_ooi):
        spec = CellSpec(label="BPRMF", model="BPRMF", dataset=small_ooi, epochs=1)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.model == "BPRMF"
        assert clone.dataset.name == "ooi"
        np.testing.assert_array_equal(
            clone.dataset.split.train.user_ids, small_ooi.split.train.user_ids
        )


class TestTablesSinglePath:
    @pytest.mark.parametrize("table", ["table2", "table3", "table4", "table5"])
    def test_specs_independent_of_num_workers(self, table, small_ooi, monkeypatch):
        """Every table makes one run_cells call; only its num_workers differs."""
        calls = []

        def capture(specs, num_workers=0):
            calls.append((list(specs), num_workers))
            return [
                (spec, RunResult(spec.model, spec.dataset.name, 0.25, 0.125, 0.0, 0.0, 0.0))
                for spec in specs
            ]

        monkeypatch.setattr(tables, "run_cells", capture)
        for num_workers in (0, 2):
            getattr(tables, table)([small_ooi], epochs=1, seed=3, num_workers=num_workers)
        assert [workers for _, workers in calls] == [0, 2]
        (serial, _), (parallel, _) = calls
        assert serial == parallel
        assert all(spec.dataset is small_ooi for spec in serial)

    def test_run_cells_ships_refs_only_when_fanning_out(self, small_ooi, monkeypatch):
        monkeypatch.setattr(runner, "run_cell", _echo_dataset)
        specs = [CellSpec(label=s, model="BPRMF", dataset=small_ooi) for s in ("a", "b")]
        serial = run_cells(specs)
        assert [spec for spec, _ in serial] == specs
        assert all(seen is small_ooi for _, seen in serial)
        parallel = run_cells(specs, num_workers=2)
        assert [spec for spec, _ in parallel] == specs
        assert all(
            isinstance(seen, DatasetRef) and seen == small_ooi.ref() for _, seen in parallel
        )


class TestRunCells:
    def test_results_in_spec_order(self, small_ooi):
        specs = [
            CellSpec(label=f"s{seed}", model="BPRMF", dataset=small_ooi, epochs=1, seed=seed)
            for seed in (0, 1)
        ]
        out = run_cells(specs)
        assert [spec.label for spec, _ in out] == ["s0", "s1"]

    def test_process_fanout_identical_to_serial(self, small_ooi):
        specs = [
            CellSpec(label="a", model="BPRMF", dataset=small_ooi, epochs=1, seed=0),
            CellSpec(label="b", model="BPRMF", dataset=small_ooi, epochs=1, seed=1),
        ]
        serial = run_cells(specs)
        parallel = run_cells(specs, num_workers=2)
        for (_, s), (_, p) in zip(serial, parallel):
            assert s.recall == p.recall
            assert s.ndcg == p.ndcg
            assert s.final_loss == p.final_loss


    def test_process_fanout_with_telemetry(self, small_ooi, tmp_path):
        """Worker processes write per-cell JSONL logs and checkpoints."""
        from repro.utils.telemetry import read_run_log

        specs = [
            CellSpec(
                label=label,
                model="BPRMF",
                dataset=small_ooi,
                epochs=1,
                seed=seed,
                log_dir=str(tmp_path / "logs"),
                checkpoint_dir=str(tmp_path / "ckpts"),
                checkpoint_every=1,
            )
            for label, seed in (("a", 0), ("b", 1))
        ]
        run_cells(specs, num_workers=2)
        for label in ("a", "b"):
            slug = _run_slug(label, "ooi")
            events = read_run_log(tmp_path / "logs" / f"{slug}.jsonl")
            assert [e["event"] for e in events].count("epoch") == 1
            assert (tmp_path / "ckpts" / f"{slug}.ckpt.npz").exists()


@pytest.mark.slow
def test_table2_parallel_rows_identical(small_ooi):
    """Acceptance check: reduced Table II grid, parallel == serial."""
    serial, _ = table2([small_ooi], models=("BPRMF",), epochs=2, seed=0)
    parallel, _ = table2([small_ooi], models=("BPRMF",), epochs=2, seed=0, num_workers=2)
    assert serial.keys() == parallel.keys()
    for key in serial:
        assert serial[key].recall == parallel[key].recall
        assert serial[key].ndcg == parallel[key].ndcg
