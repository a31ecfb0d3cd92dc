"""Structured run telemetry: append-only JSONL event logs.

Every long-running piece of the pipeline (training epochs, evaluations,
checkpoint writes, table cells) emits one JSON object per line through a
:class:`RunLogger`.  JSONL keeps the log crash-tolerant — a killed run
leaves at most one truncated trailing line, which
:func:`read_run_log` skips — and trivially greppable/joinable across runs.

Event vocabulary (the ``event`` field; producers may add fields freely):

- ``run_start`` / ``run_end``   — one per ``fit``; model, config, totals;
- ``resume``                    — emitted when a run restarts from a
  :class:`~repro.io.checkpoints.TrainingCheckpoint`;
- ``epoch``                     — per-epoch loss, aux loss, wall-clock;
- ``eval``                      — metrics dict from the eval callback;
- ``best_snapshot``             — the best-epoch protocol took a snapshot;
- ``checkpoint``                — a training checkpoint was written;
- ``eval_shard`` / ``eval_sharded`` — per-shard and total timings of the
  process-sharded evaluator.  Nothing writes them since that evaluator was
  deleted; the summary still counts the shards so older logs render as
  before;
- ``worker_epoch``                — one data-parallel training worker's
  per-epoch record (worker, seconds).  Nothing writes it since the
  data-parallel trainer was deleted; the summary still counts it so older
  logs render as before;
- ``cell_start`` / ``cell_end`` — one table-cell train→evaluate run.

:func:`summarize_run` / :func:`render_run_report` reduce a log back into the
human-readable summary behind ``repro report``.
"""

from __future__ import annotations

import json
import pathlib
import threading
import time
from typing import Dict, List, Optional, TextIO, Union

__all__ = [
    "RunLogger",
    "read_run_log",
    "summarize_run",
    "render_run_report",
]

PathLike = Union[str, pathlib.Path]


class RunLogger:
    """Append-only JSONL event writer.

    Parameters
    ----------
    path:
        Log file; parent directories are created, and events append, so a
        resumed run keeps writing to the same file as its first attempt.
    run_id:
        Optional label stamped onto every event (useful when several cells
        share one directory of logs).

    Each event gets ``event`` (the type) and ``ts`` (Unix wall-clock) fields;
    lines are flushed as written so a killed run loses at most the line being
    written.  Usable as a context manager; ``log`` after ``close`` raises.

    Appends are serialized with a lock: the serving layer logs from
    concurrent request handlers (and occasionally executor threads), and an
    interleaved ``write`` + ``flush`` pair can tear two JSONL lines into
    garbage *mid-file* — beyond the torn-*tail* tolerance of
    :func:`read_run_log`.  Single-writer training loops pay one uncontended
    lock acquisition per event.
    """

    def __init__(self, path: PathLike, run_id: Optional[str] = None):
        self.path = pathlib.Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.run_id = run_id
        self._lock = threading.Lock()
        self._fh: Optional[TextIO] = self.path.open("a", encoding="utf-8")

    def log(self, event: str, **fields) -> dict:
        """Append one event; returns the record written."""
        record = {"event": str(event), "ts": time.time()}
        if self.run_id is not None:
            record["run_id"] = self.run_id
        record.update(fields)
        line = json.dumps(record) + "\n"
        with self._lock:
            if self._fh is None:
                raise ValueError(f"RunLogger({self.path}) is closed")
            self._fh.write(line)
            self._fh.flush()
        return record

    def append(self, record: dict) -> dict:
        """Append a pre-built event record verbatim (plus run_id stamping).

        Unlike :meth:`log`, the record's own ``ts`` is preserved — this is
        the relay path for events produced in another process (training
        workers) whose timestamps reflect when the work actually happened,
        not when the master got around to merging them.  Records missing
        ``event`` or ``ts`` are rejected: an untyped or untimed event would
        silently break every downstream reducer.
        """
        if "event" not in record or "ts" not in record:
            raise ValueError(f"relayed event needs 'event' and 'ts' fields, got {sorted(record)}")
        record = dict(record)
        if self.run_id is not None and "run_id" not in record:
            record["run_id"] = self.run_id
        line = json.dumps(record) + "\n"
        with self._lock:
            if self._fh is None:
                raise ValueError(f"RunLogger({self.path}) is closed")
            self._fh.write(line)
            self._fh.flush()
        return record

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def __enter__(self) -> "RunLogger":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


def read_run_log(path: PathLike) -> List[dict]:
    """Parse a JSONL run log into a list of event dicts.

    A truncated final line (the signature of a killed run) is tolerated;
    malformed JSON anywhere else raises ``ValueError`` with the line number.
    """
    path = pathlib.Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    events: List[dict] = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError as exc:
            if lineno == len(lines):
                break  # torn tail write from a crash — drop it
            raise ValueError(f"{path}:{lineno}: malformed JSONL event: {exc}") from None
    return events


def summarize_run(events: List[dict]) -> dict:
    """Reduce a run log to headline numbers.

    Returns a dict with epoch counts, first/last/best loss, total epoch
    wall-clock, eval history highlights, and checkpoint/resume/shard tallies.
    Missing sections simply yield zero counts, so partial (crashed) logs
    still summarize.
    """
    epochs = [e for e in events if e.get("event") == "epoch"]
    evals = [e for e in events if e.get("event") == "eval"]
    checkpoints = [e for e in events if e.get("event") == "checkpoint"]
    resumes = [e for e in events if e.get("event") == "resume"]
    shards = [e for e in events if e.get("event") == "eval_shard"]
    worker_epochs = [e for e in events if e.get("event") == "worker_epoch"]
    losses = [float(e["loss"]) for e in epochs if "loss" in e]
    summary: dict = {
        "events": len(events),
        "epochs": len(epochs),
        "first_loss": losses[0] if losses else None,
        "final_loss": losses[-1] if losses else None,
        "min_loss": min(losses) if losses else None,
        "epoch_seconds": sum(float(e.get("seconds", 0.0)) for e in epochs),
        "evals": len(evals),
        "checkpoints": len(checkpoints),
        "resumes": len(resumes),
        "shards": len(shards),
        "shard_seconds": sum(float(e.get("seconds", 0.0)) for e in shards),
        "worker_epochs": len(worker_epochs),
        "workers": len({e.get("worker") for e in worker_epochs}) if worker_epochs else 0,
        "worker_seconds": sum(float(e.get("seconds", 0.0)) for e in worker_epochs),
    }
    if evals:
        last = {k: v for k, v in evals[-1].items() if k not in ("event", "ts", "run_id")}
        summary["last_eval"] = last
    best = [e for e in events if e.get("event") == "best_snapshot"]
    if best:
        summary["best_epoch"] = best[-1].get("epoch")
        summary["best_score"] = best[-1].get("score")
    return summary


def render_run_report(path: PathLike) -> str:
    """Human-readable report for one JSONL run log (``repro report``)."""
    events = read_run_log(path)
    s = summarize_run(events)
    by_type: Dict[str, int] = {}
    for e in events:
        by_type[e.get("event", "?")] = by_type.get(e.get("event", "?"), 0) + 1
    lines = [f"run log: {path}"]
    lines.append(
        "events: "
        + ", ".join(f"{name}={count}" for name, count in sorted(by_type.items()))
    )
    if s["epochs"]:
        lines.append(
            f"epochs: {s['epochs']} "
            f"(loss {s['first_loss']:.4f} -> {s['final_loss']:.4f}, min {s['min_loss']:.4f}, "
            f"{s['epoch_seconds']:.2f}s)"
        )
    if s.get("last_eval"):
        metrics = ", ".join(
            f"{k}={v:.4f}" if isinstance(v, float) else f"{k}={v}"
            for k, v in sorted(s["last_eval"].items())
        )
        lines.append(f"last eval: {metrics}")
    if "best_epoch" in s:
        lines.append(f"best epoch: {s['best_epoch']} (score {s['best_score']:.4f})")
    if s["checkpoints"] or s["resumes"]:
        lines.append(f"checkpoints: {s['checkpoints']} written, {s['resumes']} resumes")
    if s["shards"]:
        lines.append(f"eval shards: {s['shards']} ({s['shard_seconds']:.2f}s worker time)")
    if s["worker_epochs"]:
        lines.append(
            f"train workers: {s['workers']} "
            f"({s['worker_epochs']} worker-epochs, {s['worker_seconds']:.2f}s worker time)"
        )
    return "\n".join(lines)
