"""Model checkpointing: parameter snapshots and full training state.

Two formats, both plain ``.npz`` (no pickle — portable, inspectable, safe to
load from untrusted sources):

- :func:`save_parameters` / :func:`load_parameters` — weights only, keyed by
  parameter ``name`` (falling back to positional keys), shape-validated on
  load.
- :class:`TrainingCheckpoint` — everything a killed training run needs to
  resume **bit-identically**: parameters, Adam's moment slots, lazy row
  steps and step count, the training RNG's ``bit_generator`` state, the
  epoch counter, loss/eval history, and the best-epoch snapshot.  Non-array state travels
  as one JSON blob inside the archive (Python ints are arbitrary precision,
  so the 128-bit PCG64 state round-trips exactly; JSON floats round-trip
  float64 exactly via shortest-repr).

``np.savez_compressed`` silently appends ``.npz`` when the suffix is absent,
so every save/load here normalizes the path the same way and the save
functions return the path actually written — a ``save("m.ckpt")`` followed by
``load("m.ckpt")`` works instead of raising ``FileNotFoundError``.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from typing import Dict, List, Optional, Union

import numpy as np

from repro.autograd.tensor import Parameter, no_grad

__all__ = [
    "save_parameters",
    "load_parameters",
    "parameter_keys",
    "normalize_checkpoint_path",
    "TrainingCheckpoint",
    "save_training_checkpoint",
    "load_training_checkpoint",
    "SERIAL_EXECUTOR_FINGERPRINT",
    "executor_fingerprint",
    "check_executor_compatible",
]

PathLike = Union[str, pathlib.Path]

_FORMAT = "repro.checkpoint"
_TRAINING_FORMAT = "repro.training_checkpoint"
_TRAINING_VERSION = 1


def normalize_checkpoint_path(path: PathLike) -> pathlib.Path:
    """Return ``path`` with the ``.npz`` suffix ``np.savez`` will enforce.

    ``np.savez_compressed("m.ckpt")`` writes ``m.ckpt.npz``; normalizing in
    both save and load keeps round-trips working for suffix-less paths.
    """
    path = pathlib.Path(path)
    if path.suffix != ".npz":
        path = path.with_name(path.name + ".npz")
    return path


def parameter_keys(params: List[Parameter]) -> List[str]:
    """Stable unique keys for a parameter list (name, disambiguated)."""
    keys: List[str] = []
    seen: Dict[str, int] = {}
    for i, p in enumerate(params):
        base = p.name or f"param{i}"
        count = seen.get(base, 0)
        seen[base] = count + 1
        keys.append(base if count == 0 else f"{base}#{count}")
    return keys


def save_parameters(path: PathLike, model) -> pathlib.Path:
    """Save ``model.parameters()`` as compressed npz; returns the path written."""
    path = normalize_checkpoint_path(path)
    params = model.parameters()
    arrays = {f"p.{key}": p.data for key, p in zip(parameter_keys(params), params)}
    np.savez_compressed(path, format=np.array(_FORMAT), **arrays)
    return path


def load_parameters(path: PathLike, model) -> None:
    """Load a checkpoint into ``model`` (in place).

    Raises ``ValueError`` on missing/extra parameters or shape or dtype
    mismatches — a checkpoint only loads into the architecture that produced
    it, at the precision it trained in.
    """
    path = normalize_checkpoint_path(path)
    params = model.parameters()
    keys = parameter_keys(params)
    with np.load(path, allow_pickle=False) as data:
        if "format" not in data or str(data["format"]) != _FORMAT:
            raise ValueError(f"{path}: not a repro checkpoint")
        stored = {k[2:] for k in data.files if k.startswith("p.")}
        expected = set(keys)
        if stored != expected:
            missing = expected - stored
            extra = stored - expected
            raise ValueError(
                f"{path}: parameter set mismatch (missing={sorted(missing)}, "
                f"extra={sorted(extra)})"
            )
        with no_grad():
            for key, p in zip(keys, params):
                arr = data[f"p.{key}"]
                if arr.shape != p.data.shape:
                    raise ValueError(
                        f"{path}: shape mismatch for {key}: file {arr.shape} vs model {p.data.shape}"
                    )
                if arr.dtype != p.data.dtype:
                    raise ValueError(
                        f"{path}: dtype mismatch for {key}: file {arr.dtype} vs model {p.data.dtype}"
                    )
                p.data[...] = arr


#: The executor stamp the training engine writes into every checkpoint.
SERIAL_EXECUTOR_FINGERPRINT = {"kind": "serial"}


def executor_fingerprint(config: dict) -> dict:
    """The executor/shard layout recorded in a checkpoint's config dict.

    Checkpoints written before the training-engine refactor carry no
    ``executor`` entry; they all came from the serial in-process loop, so
    the absent key reads back as the serial fingerprint.
    """
    fp = config.get("executor")
    return dict(fp) if fp else dict(SERIAL_EXECUTOR_FINGERPRINT)


def check_executor_compatible(saved_config: dict, current: Optional[dict]) -> None:
    """Fail loudly when a checkpoint's executor layout differs from the run's.

    Checkpoints come from outside the process: one written by the
    since-deleted data-parallel engine carries a ``"sharded"`` stamp and
    optimizer state laid out for its workers.  Loading it serially would not
    reproduce the uninterrupted run, so this check turns that silent
    divergence into an actionable error.
    """
    saved = executor_fingerprint(saved_config)
    now = dict(current) if current else dict(SERIAL_EXECUTOR_FINGERPRINT)
    if saved != now:
        raise ValueError(
            f"cannot resume: checkpoint was written by executor {saved} but this run "
            f"uses {now}; only serial checkpoints resume — start a fresh run"
        )


# ------------------------------------------------------------ training state
@dataclasses.dataclass
class TrainingCheckpoint:
    """Full training state at an epoch boundary.

    ``epoch`` counts *completed* epochs; a run resumed from this checkpoint
    starts at epoch ``epoch`` (0-based) and, given the same config and data,
    finishes bit-identical to an uninterrupted run.
    """

    epoch: int
    params: Dict[str, np.ndarray]
    optimizer_state: dict
    rng_state: dict
    losses: List[float]
    extra_losses: List[float]
    eval_history: List[dict]
    best_score: float
    best_snapshot: Optional[Dict[str, np.ndarray]]
    seconds: float
    config: dict
    extra_rng_state: Optional[dict] = None
    """Model-owned generator states beyond the training-loop RNG (e.g. the
    dropout generators CKAT and NFM seed at construction), keyed by the
    model's own labels.  ``None`` for models without private generators and
    in pre-PR-4 checkpoints — the loader treats both the same."""


def save_training_checkpoint(path: PathLike, ckpt: TrainingCheckpoint) -> pathlib.Path:
    """Write a :class:`TrainingCheckpoint` as npz; returns the path written.

    The file is written to a temporary sibling first and atomically renamed,
    so a crash mid-write never corrupts the previous checkpoint.
    """
    path = normalize_checkpoint_path(path)
    slots = ckpt.optimizer_state.get("slots", {})
    arrays: Dict[str, np.ndarray] = {}
    for key, arr in ckpt.params.items():
        arrays[f"p.{key}"] = arr
    if ckpt.best_snapshot is not None:
        for key, arr in ckpt.best_snapshot.items():
            arrays[f"best.{key}"] = arr
    for slot_name, buf in slots.items():
        for idx, arr in buf.items():
            arrays[f"opt.{slot_name}.{int(idx)}"] = arr
    meta = {
        "version": _TRAINING_VERSION,
        "epoch": int(ckpt.epoch),
        "param_keys": list(ckpt.params),
        "optimizer": {k: v for k, v in ckpt.optimizer_state.items() if k != "slots"},
        "optimizer_slot_names": sorted(slots),
        "rng_state": ckpt.rng_state,
        "extra_rng_state": ckpt.extra_rng_state,
        "losses": [float(x) for x in ckpt.losses],
        "extra_losses": [float(x) for x in ckpt.extra_losses],
        "eval_history": ckpt.eval_history,
        "best_score": ckpt.best_score,
        "has_best_snapshot": ckpt.best_snapshot is not None,
        "seconds": float(ckpt.seconds),
        "config": ckpt.config,
    }
    tmp = path.with_name(path.name + ".tmp.npz")
    np.savez_compressed(
        tmp, format=np.array(_TRAINING_FORMAT), meta=np.array(json.dumps(meta)), **arrays
    )
    tmp.replace(path)
    return path


def load_training_checkpoint(path: PathLike) -> TrainingCheckpoint:
    """Read a :func:`save_training_checkpoint` archive back into memory."""
    path = normalize_checkpoint_path(path)
    with np.load(path, allow_pickle=False) as data:
        if "format" not in data or str(data["format"]) != _TRAINING_FORMAT:
            raise ValueError(f"{path}: not a repro training checkpoint")
        meta = json.loads(str(data["meta"]))
        if meta.get("version") != _TRAINING_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {meta.get('version')!r}")
        param_keys = list(meta["param_keys"])
        params = {key: data[f"p.{key}"] for key in param_keys}
        best_snapshot = None
        if meta["has_best_snapshot"]:
            best_snapshot = {key: data[f"best.{key}"] for key in param_keys}
        slots: Dict[str, Dict[int, np.ndarray]] = {}
        for slot_name in meta["optimizer_slot_names"]:
            prefix = f"opt.{slot_name}."
            slots[slot_name] = {
                int(name[len(prefix) :]): data[name]
                for name in data.files
                if name.startswith(prefix)
            }
        optimizer_state = dict(meta["optimizer"])
        optimizer_state["slots"] = slots
        return TrainingCheckpoint(
            epoch=int(meta["epoch"]),
            params=params,
            optimizer_state=optimizer_state,
            rng_state=meta["rng_state"],
            extra_rng_state=meta.get("extra_rng_state"),
            losses=list(meta["losses"]),
            extra_losses=list(meta["extra_losses"]),
            eval_history=list(meta["eval_history"]),
            best_score=None if meta["best_score"] is None else float(meta["best_score"]),
            best_snapshot=best_snapshot,
            seconds=float(meta["seconds"]),
            config=dict(meta["config"]),
        )
