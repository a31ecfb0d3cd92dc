"""The host's speed, and a probe that reads it.

On a shared host the CPU clock of this benchmark's processes runs at a
varying speed.  A fixed piece of work reads ~7.5 or ~12 ms of CPU (1.6x),
switching at random after a few hundred milliseconds or after minutes, with
the process pinned to either vCPU; the fast level itself drifts by ~7% over
minutes.  Co-tenants on the host's cores do this, and, unlike time the
hypervisor takes the vCPU away, the CPU clock runs on through it.  Every
operation the benchmark times is slowed with it: a fold-in by 1.5x, a CKAT
epoch by 1.3x.

The benchmark takes two measures against it:

* a timed stage is cut into short segments and each segment's fastest
  repeat counts (``workloads.CpuStamps``), so a run with fast spells reads
  as fast;
* ``probe_s`` is timed many times through the run, and every timing is
  multiplied by :func:`scale`, ``NOMINAL_S / min(probes)``: timings are
  reported at the speed where the probe reads ``NOMINAL_S``.  Over ten runs
  this took the spread (IQR over median) of a CKAT epoch from 8% to 4%.

The probe uses NumPy and the interpreter only, no code of the repository,
so no change to the repository moves it.
"""

from __future__ import annotations

import time
from typing import List

import numpy as np

#: CPU seconds of ``probe_s`` in the fast state on a 2-vCPU Sapphire Rapids
#: KVM guest with one BLAS thread (7.4-8.3 ms).
NOMINAL_S = 0.0075


def probe_s() -> float:
    """CPU seconds of a fixed, short piece of work: row gathers, small matrix
    products and a Python loop building a dict, like the timed stages."""
    rng = np.random.default_rng(0)
    table = rng.standard_normal((4096, 64))
    weights = rng.standard_normal((64, 64))
    batches = rng.integers(0, 4096, size=(24, 512))
    start = time.process_time()
    total = 0.0
    for rows in batches:
        x = table[rows] @ weights
        total += float(np.tanh(x).sum())
        by_row = {int(r): float(v) for r, v in zip(rows, x[:, 0])}
        total += len(by_row)
    return time.process_time() - start


def scale(probes: List[float]) -> float:
    """The factor that brings a run's timings to the nominal speed."""
    return NOMINAL_S / min(probes)
