"""Telemetry tests: JSONL run logs, fit and table-cell wiring, report command."""

import json

import numpy as np
import pytest

from repro.data.interactions import InteractionDataset
from repro.models import BPRMF
from repro.models.base import FitConfig
from repro.utils.telemetry import RunLogger, read_run_log, render_run_report, summarize_run


@pytest.fixture()
def tiny_data():
    rng = np.random.default_rng(0)
    n = 400
    return InteractionDataset(
        rng.integers(0, 30, n), rng.integers(0, 50, n), num_users=30, num_items=50
    )


class TestRunLogger:
    def test_every_line_is_json(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunLogger(path, run_id="r1") as log:
            log.log("run_start", model="x")
            log.log("epoch", epoch=1, loss=0.5)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            event = json.loads(line)
            assert "event" in event and "ts" in event
            assert event["run_id"] == "r1"

    def test_append_across_instances(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunLogger(path) as log:
            log.log("run_start")
        with RunLogger(path) as log:
            log.log("resume", epoch=3)
        events = read_run_log(path)
        assert [e["event"] for e in events] == ["run_start", "resume"]

    def test_log_after_close_raises(self, tmp_path):
        log = RunLogger(tmp_path / "x.jsonl")
        log.close()
        with pytest.raises(ValueError, match="closed"):
            log.log("epoch")

    def test_creates_parent_dirs(self, tmp_path):
        log = RunLogger(tmp_path / "deep" / "nested" / "run.jsonl")
        log.log("run_start")
        log.close()
        assert (tmp_path / "deep" / "nested" / "run.jsonl").exists()

    def test_torn_tail_tolerated(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunLogger(path) as log:
            log.log("epoch", epoch=1)
        with path.open("a") as fh:
            fh.write('{"event": "epo')  # killed mid-write
        events = read_run_log(path)
        assert [e["event"] for e in events] == ["epoch"]

    def test_malformed_interior_line_raises(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text('not json\n{"event": "epoch"}\n')
        with pytest.raises(ValueError, match="malformed"):
            read_run_log(path)


class TestConcurrentWriters:
    def test_concurrent_threads_never_tear_lines(self, tmp_path):
        """Regression: unsynchronized write+flush pairs from concurrent
        request handlers could interleave and tear JSONL lines mid-file —
        beyond the torn-*tail* tolerance of read_run_log.  The logger lock
        must keep every line atomic."""
        import threading

        path = tmp_path / "serve.jsonl"
        writers, per_writer = 8, 200
        with RunLogger(path, run_id="serve") as log:
            barrier = threading.Barrier(writers)

            def hammer(worker):
                barrier.wait()
                for i in range(per_writer):
                    log.log("request", worker=worker, seq=i)

            threads = [
                threading.Thread(target=hammer, args=(w,)) for w in range(writers)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        events = read_run_log(path)  # raises on any torn interior line
        assert len(events) == writers * per_writer
        for w in range(writers):
            seqs = [e["seq"] for e in events if e["worker"] == w]
            assert seqs == sorted(seqs)  # each writer's own order preserved

    def test_close_is_thread_safe_with_logging(self, tmp_path):
        """A log() racing close() either writes or raises — never crashes on
        a half-closed handle."""
        import threading

        path = tmp_path / "race.jsonl"
        log = RunLogger(path)
        errors = []

        def spam():
            try:
                for _ in range(500):
                    log.log("tick")
            except ValueError:
                return  # closed mid-loop: the documented behavior
            except Exception as exc:  # anything else is a real failure
                errors.append(exc)

        t = threading.Thread(target=spam)
        t.start()
        log.close()
        t.join()
        assert not errors
        read_run_log(path)  # whatever landed is intact JSONL


class TestFitTelemetry:
    def test_one_epoch_event_per_epoch(self, tiny_data, tmp_path):
        path = tmp_path / "fit.jsonl"
        model = BPRMF(30, 50, dim=4, seed=0)
        with RunLogger(path) as log:
            model.fit(tiny_data, FitConfig(epochs=3, batch_size=64, seed=0), logger=log)
        events = read_run_log(path)
        epochs = [e for e in events if e["event"] == "epoch"]
        assert [e["epoch"] for e in epochs] == [1, 2, 3]
        for e in epochs:
            assert set(e) >= {"epoch", "loss", "aux_loss", "seconds"}
            assert e["seconds"] >= 0
        assert events[0]["event"] == "run_start"
        assert events[-1]["event"] == "run_end"

    def test_eval_best_and_checkpoint_events(self, tiny_data, tmp_path):
        path = tmp_path / "fit.jsonl"
        model = BPRMF(30, 50, dim=4, seed=0)
        fake = iter([0.2, 0.9])
        with RunLogger(path) as log:
            model.fit(
                tiny_data,
                FitConfig(
                    epochs=2, batch_size=64, seed=0, eval_every=1, keep_best_metric="recall@20"
                ),
                eval_callback=lambda: {"recall@20": next(fake)},
                checkpoint_every=2,
                checkpoint_path=tmp_path / "m.ckpt.npz",
                logger=log,
            )
        kinds = [e["event"] for e in read_run_log(path)]
        assert kinds.count("eval") == 2
        assert kinds.count("best_snapshot") == 2
        assert kinds.count("checkpoint") == 1

    def test_resume_event_logged(self, tiny_data, tmp_path):
        ck = tmp_path / "r.ckpt.npz"
        model = BPRMF(30, 50, dim=4, seed=0)
        model.fit(
            tiny_data,
            FitConfig(epochs=2, batch_size=64, seed=0),
            checkpoint_every=2,
            checkpoint_path=ck,
        )
        path = tmp_path / "resumed.jsonl"
        fresh = BPRMF(30, 50, dim=4, seed=0)
        with RunLogger(path) as log:
            fresh.fit(
                tiny_data,
                FitConfig(epochs=4, batch_size=64, seed=0),
                resume_from=ck,
                logger=log,
            )
        events = read_run_log(path)
        assert events[0]["event"] == "resume"
        assert events[0]["epoch"] == 2
        assert [e["epoch"] for e in events if e["event"] == "epoch"] == [3, 4]


class TestShardedEvalTelemetry:
    def test_shard_events(self, tmp_path):
        """Logs from the deleted process-sharded evaluator keep their report."""
        path = tmp_path / "old.jsonl"
        events = [
            {"event": "run_start", "ts": 1.0, "model": "BPRMF"},
            {"event": "epoch", "ts": 1.1, "epoch": 1, "loss": 0.6, "aux_loss": 0.0,
             "seconds": 0.75},
            {"event": "run_end", "ts": 1.2, "model": "BPRMF", "seconds": 0.8},
            {"event": "eval_shard", "ts": 1.3, "shard": 0, "num_users": 40, "seconds": 0.25},
            {"event": "eval_shard", "ts": 1.4, "shard": 1, "num_users": 40, "seconds": 0.5},
            {"event": "eval_shard", "ts": 1.5, "shard": 2, "num_users": 39, "seconds": 0.125},
            {"event": "eval_sharded", "ts": 1.6, "num_shards": 3, "num_users": 119,
             "seconds": 1.0},
        ]
        path.write_text("".join(json.dumps(e) + "\n" for e in events), encoding="utf-8")
        s = summarize_run(read_run_log(path))
        assert (s["shards"], s["shard_seconds"]) == (3, 0.875)
        assert render_run_report(path) == "\n".join(
            [
                f"run log: {path}",
                "events: epoch=1, eval_shard=3, eval_sharded=1, run_end=1, run_start=1",
                "epochs: 1 (loss 0.6000 -> 0.6000, min 0.6000, 0.75s)",
                "eval shards: 3 (0.88s worker time)",
            ]
        )


class TestSummaries:
    def _sample_events(self):
        return [
            {"event": "run_start", "model": "BPRMF"},
            {"event": "epoch", "epoch": 1, "loss": 0.9, "seconds": 1.0},
            {"event": "epoch", "epoch": 2, "loss": 0.4, "seconds": 1.5},
            {"event": "eval", "epoch": 2, "recall@20": 0.31, "ndcg@20": 0.22},
            {"event": "best_snapshot", "epoch": 2, "score": 0.31},
            {"event": "checkpoint", "epoch": 2, "path": "x.npz"},
            {"event": "run_end", "seconds": 2.5},
        ]

    def test_summarize_run(self):
        s = summarize_run(self._sample_events())
        assert s["epochs"] == 2
        assert s["first_loss"] == 0.9
        assert s["final_loss"] == 0.4
        assert s["min_loss"] == 0.4
        assert s["epoch_seconds"] == 2.5
        assert s["checkpoints"] == 1
        assert s["best_epoch"] == 2
        assert s["last_eval"]["recall@20"] == 0.31

    def test_summarize_empty(self):
        s = summarize_run([])
        assert s["epochs"] == 0
        assert s["final_loss"] is None

    def test_render_report(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunLogger(path) as log:
            for e in self._sample_events():
                log.log(e["event"], **{k: v for k, v in e.items() if k != "event"})
        text = render_run_report(path)
        assert "epochs: 2" in text
        assert "best epoch: 2" in text
        assert "checkpoints: 1 written" in text

    def test_render_report_counts_worker_epochs(self, tmp_path):
        """Logs from the old data-parallel engine still render their workers."""
        path = tmp_path / "old.jsonl"
        events = [
            {"event": "run_start", "ts": 1.0, "model": "BPRMF"},
            {"event": "worker_epoch", "ts": 1.1, "worker": 0, "epoch": 1, "shards": 2,
             "rounds": 3, "batches": 5, "loss_sum": 3.5, "seconds": 0.25},
            {"event": "worker_epoch", "ts": 1.2, "worker": 1, "epoch": 1, "shards": 2,
             "rounds": 3, "batches": 5, "loss_sum": 2.5, "seconds": 0.5},
            {"event": "epoch", "ts": 1.3, "epoch": 1, "loss": 0.6, "aux_loss": 0.0,
             "seconds": 0.75},
            {"event": "run_end", "ts": 1.4, "model": "BPRMF", "seconds": 0.8},
        ]
        path.write_text("".join(json.dumps(e) + "\n" for e in events), encoding="utf-8")
        s = summarize_run(read_run_log(path))
        assert (s["worker_epochs"], s["workers"], s["worker_seconds"]) == (2, 2, 0.75)
        assert render_run_report(path) == "\n".join(
            [
                f"run log: {path}",
                "events: epoch=1, run_end=1, run_start=1, worker_epoch=2",
                "epochs: 1 (loss 0.6000 -> 0.6000, min 0.6000, 0.75s)",
                "train workers: 2 (2 worker-epochs, 0.75s worker time)",
            ]
        )

    def test_report_cli(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "run.jsonl"
        with RunLogger(path) as log:
            log.log("epoch", epoch=1, loss=0.5, seconds=0.1)
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "epochs: 1" in out


class TestHarnessIntegration:
    @pytest.fixture(scope="class")
    def small_ooi(self):
        from repro.experiments import load_dataset

        return load_dataset("ooi", scale="small", seed=3)

    def test_run_single_model_writes_log_and_checkpoint(self, small_ooi, tmp_path):
        from repro.experiments import run_single_model
        from repro.experiments.runner import _run_slug

        run_single_model(
            "BPRMF",
            small_ooi,
            epochs=2,
            seed=0,
            log_dir=tmp_path / "logs",
            checkpoint_dir=tmp_path / "ckpts",
            checkpoint_every=1,
        )
        slug = _run_slug("BPRMF", "ooi")
        log_path = tmp_path / "logs" / f"{slug}.jsonl"
        assert log_path.exists()
        events = read_run_log(log_path)
        kinds = [e["event"] for e in events]
        assert kinds[0] == "cell_start" and kinds[-1] == "cell_end"
        assert kinds.count("epoch") == 2
        assert kinds.count("checkpoint") == 2
        assert kinds.count("pipeline_stages") == 1
        assert (tmp_path / "ckpts" / f"{slug}.ckpt.npz").exists()

    def test_run_single_model_resume_matches_uninterrupted(self, small_ooi, tmp_path):
        from repro.experiments import run_single_model

        straight = run_single_model("BPRMF", small_ooi, epochs=4, seed=0)
        # Interrupted run: 2 epochs, checkpoint at the boundary …
        run_single_model(
            "BPRMF",
            small_ooi,
            epochs=2,
            seed=0,
            checkpoint_dir=tmp_path,
            checkpoint_every=2,
        )
        # … then a fresh process resumes to the full budget.
        resumed = run_single_model(
            "BPRMF",
            small_ooi,
            epochs=4,
            seed=0,
            checkpoint_dir=tmp_path,
            checkpoint_every=2,
            resume=True,
        )
        assert resumed.recall == straight.recall
        assert resumed.ndcg == straight.ndcg
        assert resumed.final_loss == straight.final_loss

    def test_rerun_without_resume_starts_a_fresh_log(self, small_ooi, tmp_path):
        """A re-run cell (worker retry, second table run) keeps one log."""
        from repro.experiments import run_single_model
        from repro.experiments.runner import _run_slug

        for _ in range(2):
            run_single_model("BPRMF", small_ooi, epochs=2, seed=0, log_dir=tmp_path)
        events = read_run_log(tmp_path / f"{_run_slug('BPRMF', 'ooi')}.jsonl")
        kinds = [e["event"] for e in events]
        assert kinds.count("cell_start") == 1
        assert kinds.count("epoch") == 2
        assert summarize_run(events)["epochs"] == 2

    def test_resumed_run_appends_to_its_log(self, small_ooi, tmp_path):
        from repro.experiments import run_single_model
        from repro.experiments.runner import _run_slug

        common = dict(seed=0, log_dir=tmp_path, checkpoint_dir=tmp_path, checkpoint_every=2)
        run_single_model("BPRMF", small_ooi, epochs=2, **common)
        run_single_model("BPRMF", small_ooi, epochs=4, resume=True, **common)
        events = read_run_log(tmp_path / f"{_run_slug('BPRMF', 'ooi')}.jsonl")
        kinds = [e["event"] for e in events]
        assert kinds.count("cell_start") == 2
        assert kinds.count("epoch") == 4

    def test_slugified_label(self, small_ooi, tmp_path):
        from repro.experiments import run_single_model
        from repro.experiments.runner import _run_slug

        run_single_model(
            "BPRMF",
            small_ooi,
            epochs=1,
            seed=0,
            label="w/ Att + concat",
            log_dir=tmp_path,
        )
        slug = _run_slug("w/ Att + concat", "ooi")
        assert slug.startswith("w_Att_concat_ooi-")
        assert (tmp_path / f"{slug}.jsonl").exists()

    def test_slugs_distinguish_colliding_labels(self):
        """Labels that sanitize identically must not share a file stem —
        previously 'lr 0.01' and 'lr/0.01' both mapped to 'lr_0.01_ooi' and
        overwrote each other's telemetry and checkpoints."""
        from repro.experiments.runner import _run_slug

        a, b = _run_slug("lr 0.01", "ooi"), _run_slug("lr/0.01", "ooi")
        assert a != b
        assert a.rsplit("-", 1)[0] == b.rsplit("-", 1)[0] == "lr_0.01_ooi"
        # and the slug is deterministic across calls/processes
        assert a == _run_slug("lr 0.01", "ooi")
