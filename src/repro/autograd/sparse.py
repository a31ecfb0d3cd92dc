"""Row-sparse gradients for embedding-table training.

A BPR/TransR minibatch gathers a few thousand rows from entity tables holding
tens of thousands, yet a dense backward pass materializes a full
``zeros_like`` of every table per gather and the optimizer then updates every
row per step — O(num_entities · dim) work for O(batch · dim) of signal.
:class:`SparseRowGrad` is the fix: the backward of
:func:`repro.autograd.functional.take_rows` emits ``(indices, values)`` pairs
instead of dense arrays, :meth:`repro.autograd.tensor.Tensor.accumulate_grad`
merges them (sparse+sparse concatenates, sparse+dense densifies), and the
optimizers in :mod:`repro.autograd.optim` scatter-update only the touched
rows.

Duplicate indices are the norm (the same entity appears many times in a
batch), so consumers call :meth:`SparseRowGrad.coalesce` first.  Coalescing
and densifying both go through :func:`segment_sum_rows`: a *stable* argsort
puts each row's occurrences next to each other in occurrence order, and one
0/1 CSR product sums every run.  The product adds a run's terms one by one,
left to right, into a zeroed row — exactly what the dense ``np.add.at``
scatter does — so both results equal ``np.add.at`` bit for bit, and no
sorted ``(nnz, d)`` copy of the values is ever built.

``dense_grads()`` forces the engine back to dense emission, giving
benchmarks and debugging sessions an apples-to-apples dense baseline.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, Sequence, Tuple, Union

import numpy as np

__all__ = ["SparseRowGrad", "dense_grads", "segment_sum_rows", "sparse_grads_enabled"]

_SPARSE_GRADS = True


def sparse_grads_enabled() -> bool:
    """Whether ``take_rows``/``embedding`` backward emits sparse row grads."""
    return _SPARSE_GRADS


@contextlib.contextmanager
def dense_grads() -> Iterator[None]:
    """Context manager forcing dense gradient emission for the block.

    Inside the block ``take_rows`` backward scatters into a dense buffer as
    the engine originally did; the sparse machinery is bypassed entirely.
    Used by the sparse-vs-dense benchmarks and as an escape hatch when
    debugging gradient flow.
    """
    global _SPARSE_GRADS
    prev = _SPARSE_GRADS
    _SPARSE_GRADS = False
    try:
        yield
    finally:
        _SPARSE_GRADS = prev


def segment_sum_rows(
    values: np.ndarray, order: np.ndarray, offsets: np.ndarray
) -> np.ndarray:
    """``out[s] = Σ_{p ∈ run s} values[order[p]]``, summed in ``order``.

    ``offsets`` (length ``num_runs + 1``) delimits the runs of ``order``; an
    empty run gives a zero row.  One product with the 0/1 CSR matrix
    ``csr((1, order, offsets))``, keeping ``values``' dtype and trailing
    axes.  scipy is imported here, not by importing the autograd engine.
    """
    import scipy.sparse as sp

    num_runs = len(offsets) - 1
    tail = values.shape[1:]
    flat = values.reshape(values.shape[0], int(np.prod(tail, dtype=np.int64)))
    ones = np.ones(len(order), dtype=values.dtype)
    matrix = sp.csr_matrix((ones, order, offsets), shape=(num_runs, flat.shape[0]))
    out = matrix @ flat
    # A reshaped view does not own its data, so accumulate_grad would copy it.
    return out if values.ndim == 2 else out.reshape((num_runs,) + tail)


class SparseRowGrad:
    """A gradient that is nonzero only on a set of rows of a 2-D+ buffer.

    Represents ``sum_k scatter(indices[k], values[k])`` over axis 0 of an
    array of ``shape``.  ``indices`` may contain duplicates until
    :meth:`coalesce` is called; ``to_dense()`` and the optimizer consumers
    coalesce on demand.

    Instances interoperate with NumPy through ``__array__`` (densifying), so
    test helpers like ``np.allclose(p.grad, expected)`` keep working when a
    parameter's gradient happens to be sparse.
    """

    __slots__ = ("shape", "indices", "values", "coalesced")

    def __init__(
        self,
        shape: Union[Tuple[int, ...], Sequence[int]],
        indices: np.ndarray,
        values: np.ndarray,
        *,
        coalesced: bool = False,
    ):
        shape = tuple(int(s) for s in shape)
        if not shape:
            raise ValueError("SparseRowGrad requires at least a 1-D target shape")
        indices = np.asarray(indices, dtype=np.intp).ravel()
        values = np.asarray(values)
        expected = (indices.size,) + shape[1:]
        if values.shape != expected:
            raise ValueError(
                f"values shape {values.shape} does not match {len(indices)} rows "
                f"of target shape {shape} (expected {expected})"
            )
        if indices.size and (indices.min() < 0 or indices.max() >= shape[0]):
            raise IndexError(
                f"row indices out of range for axis 0 of target shape {shape}"
            )
        self.shape = shape
        self.indices = indices
        self.values = values
        self.coalesced = bool(coalesced)

    # ------------------------------------------------------------------ meta
    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def dtype(self):
        return self.values.dtype

    @property
    def nnz(self) -> int:
        """Number of stored rows (counting duplicates until coalesced)."""
        return int(self.indices.size)

    def __repr__(self) -> str:
        tag = ", coalesced" if self.coalesced else ""
        return f"SparseRowGrad(shape={self.shape}, nnz={self.nnz}{tag})"

    # ----------------------------------------------------------- conversions
    def coalesce(self) -> "SparseRowGrad":
        """Return an equivalent grad with sorted, duplicate-free indices.

        Each row's values are summed in occurrence order, bit for bit as
        ``np.add.at`` would.  Returns ``self`` when already coalesced.
        """
        if self.coalesced:
            return self
        counts = np.bincount(self.indices, minlength=self.shape[0])
        rows = np.flatnonzero(counts)
        return SparseRowGrad(self.shape, rows, self._sum_runs(counts[rows]), coalesced=True)

    def to_dense(self) -> np.ndarray:
        """Materialize as a dense array of ``self.shape``."""
        return self._sum_runs(np.bincount(self.indices, minlength=self.shape[0]))

    def _sum_runs(self, counts: np.ndarray) -> np.ndarray:
        """Sum the values of each run of equal indices (``counts``: run lengths)."""
        offsets = np.zeros(len(counts) + 1, dtype=np.intp)
        np.cumsum(counts, out=offsets[1:])
        return segment_sum_rows(self.values, np.argsort(self.indices, kind="stable"), offsets)

    def add_to_dense(self, dense: np.ndarray) -> np.ndarray:
        """Add this grad into ``dense`` in place (and return it)."""
        if dense.shape != self.shape:
            raise ValueError(
                f"dense buffer shape {dense.shape} does not match grad shape {self.shape}"
            )
        g = self.coalesce()
        dense[g.indices] += g.values
        return dense

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        out = self.to_dense()
        return out.astype(dtype) if dtype is not None else out

    def copy(self) -> np.ndarray:
        """Dense copy — mirrors ``ndarray.copy()`` for test helpers."""
        return self.to_dense()

    # ------------------------------------------------------------- mutation
    def merge_(self, other: "SparseRowGrad") -> None:
        """Concatenate ``other``'s rows into this grad (sparse + sparse).

        Coalescing is deferred: accumulation during backward is O(batch),
        and the single sort happens once in the consumer.
        """
        if other.shape != self.shape:
            raise ValueError(
                f"cannot merge sparse grads of shapes {self.shape} and {other.shape}"
            )
        self.indices = np.concatenate([self.indices, other.indices])
        self.values = np.concatenate([self.values, other.values])
        self.coalesced = False
