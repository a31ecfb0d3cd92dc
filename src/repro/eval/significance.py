"""Statistical significance utilities for model comparisons.

The paper reports point estimates; on synthetic data we can do better.
These helpers quantify whether a Table-II-style gap is real:

- :func:`bootstrap_ci` — percentile bootstrap confidence interval for a
  per-user metric mean;
- :func:`paired_bootstrap_test` — one-sided paired bootstrap on per-user
  metric differences between two models (the standard IR significance test
  for top-K metrics).

Their inputs are the per-user metric vectors of
:meth:`repro.eval.evaluator.RankingEvaluator.evaluate_per_user`.
"""

from __future__ import annotations

import dataclasses
from typing import Tuple

import numpy as np

from repro.utils.rng import ensure_rng

__all__ = ["bootstrap_ci", "paired_bootstrap_test", "PairedTestResult"]


def bootstrap_ci(
    values: np.ndarray, confidence: float = 0.95, n_resamples: int = 2000, seed=0
) -> Tuple[float, float, float]:
    """(mean, low, high) percentile-bootstrap CI of the mean of ``values``."""
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0,1), got {confidence}")
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("empty sample")
    rng = ensure_rng(seed)
    idx = rng.integers(0, len(values), size=(n_resamples, len(values)))
    means = values[idx].mean(axis=1)
    alpha = (1.0 - confidence) / 2.0
    low, high = np.quantile(means, [alpha, 1.0 - alpha])
    return float(values.mean()), float(low), float(high)


@dataclasses.dataclass(frozen=True)
class PairedTestResult:
    """Outcome of a one-sided paired bootstrap comparison (A vs B)."""

    mean_diff: float
    p_value: float
    n_users: int

    @property
    def significant(self) -> bool:
        """True at the conventional 0.05 level."""
        return self.p_value < 0.05


def paired_bootstrap_test(
    metric_a: np.ndarray,
    metric_b: np.ndarray,
    n_resamples: int = 5000,
    seed=0,
) -> PairedTestResult:
    """One-sided paired bootstrap: is mean(A − B) > 0 beyond chance?

    ``p_value`` is the bootstrap probability that the resampled mean
    difference is ≤ 0.  Per-user pairing removes between-user variance,
    which dominates top-K metrics.
    """
    a = np.asarray(metric_a, dtype=np.float64)
    b = np.asarray(metric_b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("paired metric vectors must have equal length")
    if a.size == 0:
        raise ValueError("empty sample")
    diffs = a - b
    rng = ensure_rng(seed)
    idx = rng.integers(0, len(diffs), size=(n_resamples, len(diffs)))
    means = diffs[idx].mean(axis=1)
    p = float((means <= 0.0).mean())
    return PairedTestResult(mean_diff=float(diffs.mean()), p_value=p, n_users=len(diffs))
