"""Minimal vectorized reverse-mode automatic differentiation over NumPy.

This subpackage is the numerical substrate for every recommendation model in
:mod:`repro.models`.  It provides:

- :class:`~repro.autograd.tensor.Tensor` — an ndarray wrapper that records a
  tape of operations and supports broadcasting-aware backpropagation;
- :mod:`~repro.autograd.functional` — the op library (matmul, embedding
  gather/scatter, segment reductions and segment softmax for ragged graph
  neighborhoods, activations, dropout, ranking losses);
- :mod:`~repro.autograd.sparse` — row-sparse gradients
  (:class:`~repro.autograd.sparse.SparseRowGrad`) that embedding gathers emit
  for leaf parameters, keeping backward and optimizer work O(batch · dim)
  instead of O(table · dim);
- :mod:`~repro.autograd.optim` — the Adam optimizer, with sparse
  scatter-updates (lazy per-row moment decay);
- :mod:`~repro.autograd.init` — Xavier and scaled-normal initializers;
- :mod:`~repro.autograd.ops` — the registry of differentiable ops and the
  one :class:`~repro.autograd.ops.Hook` mechanism that instruments them
  (the sanitizer and the profiler are hooks).

The engine is deliberately small: dense float64/float32 arrays, define-by-run
tape, topological-order backward.  At the scale of the paper's collaborative
knowledge graphs (thousands of entities, 64-dim embeddings) this trains all
models in seconds to minutes on one core, which is all the reproduction needs.
"""

from repro.autograd import functional
from repro.autograd.init import xavier_uniform, xavier_normal, normal_init
from repro.autograd.optim import Adam, Optimizer
from repro.autograd.sparse import SparseRowGrad, dense_grads, sparse_grads_enabled
from repro.autograd.tensor import Tensor, Parameter, no_grad, is_grad_enabled

__all__ = [
    "Tensor",
    "Parameter",
    "SparseRowGrad",
    "dense_grads",
    "sparse_grads_enabled",
    "no_grad",
    "is_grad_enabled",
    "functional",
    "Optimizer",
    "Adam",
    "xavier_uniform",
    "xavier_normal",
    "normal_init",
]
