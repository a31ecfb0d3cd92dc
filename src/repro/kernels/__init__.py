"""Fused kernels for the CKAT hot loops.

Layout:

- :mod:`repro.kernels.numpy_backend` — raw-ndarray NumPy/scipy kernels,
  the one implementation of every fused op.
- :mod:`repro.kernels.dispatch` — fused-vs-oracle selection plus the
  differentiable Tensor-level wrappers.  **The only module models/eval code
  may import** (reprolint RPL010).
"""

__all__ = ["dispatch", "numpy_backend"]
