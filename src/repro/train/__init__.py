"""Training engine: the epoch loop, extracted from ``Recommender.fit``.

This package owns *how* training steps execute; models own *what* a step
computes.  The split is:

- :class:`~repro.train.engine.TrainEngine` — config validation, sampler and
  optimizer construction, resume/restore, telemetry, evaluation and
  best-epoch snapshots, periodic checkpoints.  One engine drives any model
  implementing the :class:`~repro.models.base.Recommender` hooks.
- :class:`~repro.train.engine.SerialExecutor` — one epoch of optimization
  steps, the historical in-process loop bit-for-bit.

Training is serial: each CKAT step is a full-graph propagation, so splitting
a batch across workers would not divide the work.

Optimizer calls funnel through this package (reprolint RPL015): model code
never invokes ``Optimizer.step`` directly — auxiliary phases receive an
engine-provided step callable instead.
"""

from repro.train.engine import (
    FitConfig,
    FitResult,
    SerialExecutor,
    TrainEngine,
    make_step_fn,
)

__all__ = [
    "FitConfig",
    "FitResult",
    "SerialExecutor",
    "TrainEngine",
    "make_step_fn",
]
