"""Parallel experiment fan-out: cells are picklable, executor-independent,
and the parallel table drivers reproduce the serial rows exactly."""

import pickle

import numpy as np
import pytest

from repro.experiments.datasets import load_dataset
from repro.experiments.runner import CellSpec, _run_slug, run_cell, run_cells
from repro.experiments.tables import table2


@pytest.fixture(scope="module")
def small_ooi():
    return load_dataset("ooi", scale="small", seed=7)


class TestCellSpec:
    def test_picklable_with_dataset_bundle(self, small_ooi):
        spec = CellSpec(label="BPRMF", model="BPRMF", dataset=small_ooi, epochs=1)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.model == "BPRMF"
        assert clone.dataset.name == "ooi"
        np.testing.assert_array_equal(
            clone.dataset.split.train.user_ids, small_ooi.split.train.user_ids
        )

    def test_dataset_by_name_equals_dataset_by_bundle(self, small_ooi):
        by_bundle = run_cell(
            CellSpec(label="c", model="BPRMF", dataset=small_ooi, epochs=1, seed=3)
        )
        by_name = run_cell(
            CellSpec(
                label="c",
                model="BPRMF",
                dataset="ooi",
                dataset_scale="small",
                dataset_seed=7,
                epochs=1,
                seed=3,
            )
        )
        assert by_bundle.recall == by_name.recall
        assert by_bundle.ndcg == by_name.ndcg


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
