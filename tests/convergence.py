"""Gradient checks by convergence order, not one finite-difference epsilon.

:func:`assert_converges` takes a scalar loss and its parameters, runs the
tape's backward once, and compares the analytic directional derivative
``a = Σ ⟨∂L/∂p, dp⟩`` along a seeded random direction ``dp`` with central
differences ``D(h) = (L(x + h·dp) − L(x − h·dp)) / 2h`` over the geometric
run ``h = H0·2⁻ᵏ``.  Two properties must hold, both in float64:

- **Order.** The central-difference error of ``sin((L − L(x)) / |a|)``
  falls as ``h²``: its log-log slope over three steps, ending at the
  smallest ``h`` whose error still dwarfs rounding, is at least 1.8 (≈ 2 on every op case; more
  only where the ``h²`` term happens to cancel).  The ``sin`` is applied to
  the scalar loss values outside the tape, with its exact derivative
  ``a/|a|`` at ``h = 0``, so an op that is linear along ``dp`` (a sum, a
  gather, a matmul) still has an ``h²`` term to show.  A wrong gradient
  flattens the error to a constant and the slope to ≈ 0.
- **Agreement.** The Richardson-extrapolated difference
  ``R(h) = (4·D(h/2) − D(h)) / 3`` (error ``O(h⁴)``) agrees with ``a`` to
  ``≤ 1e-10`` relative at its best ``h``, beyond the rounding ``R(h)``
  carries from the loss values (``~6ε·|L|/h``, which matters only for a
  loss that is flat next to its size).  The agreement on the op cases is
  ~1e-13 with no rounding allowance, so a 1e-9 relative error in a
  backward reads ~1e-9 and fails, where a single ``ε = 1e-6`` difference
  cannot tell it from noise.

``dp`` is scaled to max-norm 1, so no input moves by more than ``H0``:
inputs of ops with kinks (``relu``, ``abs``, ``clip``, a segment maximum, a
hinge) must sit farther than that from the kink, counting every input that
feeds it.

``OP_CASES`` maps every op of :func:`repro.autograd.ops.registered_ops` to
named cases, each a function returning ``(loss_fn, params)`` for
:func:`check_case`.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Sequence

import numpy as np

from repro.autograd import Parameter, Tensor
from repro.autograd import functional as F
from repro.kernels import dispatch
from repro.kg.adjacency import CSRAdjacency
from repro.kg.triples import TripleStore

H0 = 1e-2
STEPS = 8  # h = 1e-2 … 7.8e-5
SLOPE_POINTS = 3
SLOPE_MIN = 1.8
EXTRAPOLATED_RTOL = 1e-10
ROUNDING = 2.0 * np.finfo(np.float64).eps  # per |L|, in each loss value


class ConvergenceError(AssertionError):
    """The tape gradient does not converge with the finite differences."""


@dataclasses.dataclass(frozen=True)
class Convergence:
    """What one check measured."""

    slope: float
    extrapolated_error: float  # best |R(h) − a| / |a| over the run, no rounding allowance
    directional_derivative: float


def _dense(grad, like: np.ndarray) -> np.ndarray:
    if grad is None:
        return np.zeros_like(like)
    return grad.to_dense() if hasattr(grad, "to_dense") else np.asarray(grad)


def assert_converges(
    loss_fn: Callable[[], Tensor], params: Sequence[Parameter], seed: int = 0
) -> Convergence:
    """Check the gradient of ``loss_fn()`` w.r.t. ``params`` by convergence.

    ``loss_fn`` builds a fresh scalar loss from the current parameter values
    (it is re-run ``2·STEPS`` times); every parameter is restored afterwards.
    Raises :class:`ConvergenceError` on a wrong slope or disagreement.
    """
    if not params:
        raise ValueError("assert_converges needs at least one parameter")
    loss = loss_fn()
    if loss.data.size != 1:
        raise ValueError("loss_fn must return a scalar tensor")
    for p in params:
        if p.data.dtype != np.float64:
            raise ValueError("convergence checks run in float64")
        p.grad = None
    loss.backward()
    base = float(loss.data)
    rng = np.random.default_rng(seed)
    directions = []
    for p in params:
        d = rng.standard_normal(p.data.shape)
        directions.append(d / max(float(np.abs(d).max()), 1e-300))
    analytic = float(
        sum(np.vdot(_dense(p.grad, p.data), d) for p, d in zip(params, directions))
    )

    originals = [p.data.copy() for p in params]

    def value_at(h: float) -> float:
        for p, x, d in zip(params, originals, directions):
            p.data[...] = x + h * d  # reprolint: disable=RPL007
        try:
            return float(loss_fn().data)
        finally:
            for p, x in zip(params, originals):
                p.data[...] = x  # reprolint: disable=RPL007

    hs = H0 * 0.5 ** np.arange(STEPS)
    plus = np.array([value_at(h) for h in hs])
    minus = np.array([value_at(-h) for h in hs])
    central = (plus - minus) / (2.0 * hs)
    # What rounding in the loss values puts into D(h): a loss that is flat
    # next to its size (a deep sigmoid chain) cannot resolve more.
    rounding = ROUNDING * np.abs(np.concatenate([plus, minus])).max() / hs

    # sin of the loss change in units of the slope: derivative a/σ = ±1 at
    # h = 0 and third derivative L‴/σ − (a/σ)³, which is never identically 0.
    sigma = abs(analytic) or 1.0
    curved = (np.sin((plus - base) / sigma) - np.sin((minus - base) / sigma)) / (2.0 * hs)
    curved_error = np.abs(curved - analytic / sigma)
    # The slope is read off the SLOPE_POINTS steps ending at the smallest h
    # whose error still dwarfs rounding (the largest h for a flat loss).
    clear = np.flatnonzero(curved_error > 100.0 * rounding / sigma)
    last = max(int(clear[-1]) if len(clear) else 0, SLOPE_POINTS - 1)
    window = slice(last - SLOPE_POINTS + 1, last + 1)
    slope = float(
        np.polyfit(np.log(hs[window]), np.log(np.maximum(curved_error[window], 1e-300)), 1)[0]
    )

    # R(h) = (4·D(h/2) − D(h))/3 carries (4·2 + 1)/3 = 3 times D(h)'s rounding.
    extrapolated = (4.0 * central[1:] - central[:-1]) / 3.0
    error = np.abs(extrapolated - analytic)
    noise = 3.0 * rounding[:-1]
    best = float(error.min() / sigma)

    result = Convergence(slope, best, analytic)
    if slope < SLOPE_MIN:
        raise ConvergenceError(
            f"central-difference error slope {slope:.3f} is below second order "
            f"(errors {curved_error})"
        )
    if float((error - noise).min() / sigma) > EXTRAPOLATED_RTOL:
        raise ConvergenceError(
            f"extrapolated difference disagrees with the tape by {best:.3e} relative "
            f"(> {EXTRAPOLATED_RTOL:g} beyond rounding; directional derivative {analytic:.6g})"
        )
    return result


# ------------------------------------------------------------------ cases
def _param(shape, seed, low=None, high=None, margin=0.0):
    """A float64 parameter: normal, uniform in [low, high), or normal with
    every entry at least ``margin`` from 0 (inputs away from a kink)."""
    rng = np.random.default_rng(seed)
    if low is not None:
        return Parameter(rng.uniform(low, high, size=shape))
    x = rng.standard_normal(shape)
    return Parameter(np.where(x < 0, x - margin, x + margin))


def _probe(t, seed=99):
    """``Σ c ⊙ t`` for a fixed random cotangent ``c``: a scalar from any output."""
    c = np.random.default_rng(seed).standard_normal(t.data.shape)
    return F.sum(F.mul(t, Tensor(c)))


def _unary(op, shape=(5, 4), **kw):
    def make():
        x = _param(shape, 1, **kw)
        return (lambda: _probe(op(x))), [x]

    return make


def _binary(op, b_shape=(5, 4), **b_kw):
    def make():
        a, b = _param((5, 4), 1), _param(b_shape, 2, **b_kw)
        return (lambda: _probe(op(a, b))), [a, b]

    return make


OFFSETS = np.array([0, 2, 2, 5, 7])  # four segments, one of them empty
ROWS = np.array([3, 0, 3, 1, 4, 4])  # gather indices with repeats


def _gather(op):
    def make():
        table = _param((5, 3), 1)
        return (lambda: _probe(op(table, ROWS))), [table]

    return make


def _segment_max():
    # segment_max has no tape node: it is the stability shift of a segment
    # softmax, which is invariant to any per-segment shift, so the tape
    # gradient through the shifted scores must match the differences.
    x = _param((7,), 1)
    seg = np.repeat(np.arange(4), np.diff(OFFSETS))

    def loss():
        shift = Tensor(F.segment_max(x.data, OFFSETS)[seg])
        return _probe(F.segment_softmax(F.sub(x, shift), OFFSETS))

    return loss, [x]


def _clip():
    # Values inside (−0.35, 0.35) and beyond ±0.65: every one 0.15 from a bound.
    x = _param((5, 4), 1, low=0.0, high=0.35)
    x.data[::2] += 0.65
    x.data[:, ::2] *= -1.0
    return (lambda: _probe(F.clip(x, -0.5, 0.5))), [x]


def _bpr_objective(shared):
    def make():
        users, pos, neg = np.array([0, 2, 2, 4]), np.array([1, 3, 0, 3]), np.array([3, 3, 2, 0])
        base, items = _param((5, 3), 4), _param((4, 3), 5)
        scale = Tensor(np.random.default_rng(6).uniform(0.5, 1.5, size=(5, 3)))

        def loss():
            if shared:
                # A non-leaf source, as CKAT's propagated table.
                table = F.mul(base, scale)
                return F.bpr_objective(table, table, users, pos, neg, 0.3)
            return F.bpr_objective(base, items, users, pos, neg, 0.3)

        return loss, [base] if shared else [base, items]

    return make


def _margin_ranking():
    pos = _param((6,), 1)
    # pos + 1 − neg at least 0.5 from the hinge, whichever side.
    side = np.where(np.arange(6) % 2 == 0, 1.0, -1.0)
    neg = Parameter(pos.data + 1.0 + side * np.linspace(0.5, 1.5, 6))
    return (lambda: F.margin_ranking_loss(pos, neg, 1.0)), [pos, neg]


def _small_adjacency():
    """11 edges, 3 relations, repeated endpoints, one duplicated edge."""
    triples = [
        (0, "a", 1), (0, "a", 2), (0, "b", 3), (1, "a", 0), (1, "c", 4),
        (2, "b", 0), (2, "c", 1), (3, "a", 4), (3, "a", 4), (4, "b", 0),
        (4, "c", 2),
    ]
    store = TripleStore(6)
    for name in ("a", "b", "c"):
        pairs = np.array([(h, t) for h, r, t in triples if r == name], dtype=np.int64)
        store.add_triples(name, pairs[:, 0], pairs[:, 1])
    return CSRAdjacency(store)


def _kg_params():
    rng = np.random.default_rng(5)
    return (
        Parameter(0.5 * rng.standard_normal((6, 4))),
        Parameter(0.5 * rng.standard_normal((3, 3))),
        Parameter(0.5 * rng.standard_normal((3, 3, 4))),
    )


def _edge_attention_scores():
    adj, params = _small_adjacency(), _kg_params()
    return (lambda: _probe(dispatch.edge_attention_scores(*params, adj))), list(params)


def _transr_energy():
    heads = np.array([0, 3, 1, 4, 2])
    rels = np.array([2, 0, 1, 0, 2])
    tails = np.array([1, 4, 0, 2, 5])
    params = _kg_params()
    return (lambda: F.sum(dispatch.transr_energy(*params, heads, rels, tails))), list(params)


def _weighted_neighbor_sum(tensor_weights):
    def make():
        adj = _small_adjacency()
        emb = _param((6, 4), 6)
        w = _param((adj.num_edges,), 7)
        if tensor_weights:
            return (lambda: _probe(dispatch.weighted_neighbor_sum(emb, w, adj))), [emb, w]
        frozen = w.data  # a constant array: the frozen-attention path
        return (lambda: _probe(dispatch.weighted_neighbor_sum(emb, frozen, adj))), [emb]

    return make


def _aggregate(mode, p):
    def make():
        rng = np.random.default_rng(8)
        x = Parameter(0.3 * rng.standard_normal((5, 3)))
        n = Parameter(0.3 * rng.standard_normal((5, 3)))
        w = Parameter(0.3 * rng.standard_normal((6 if mode == "concat" else 3, 4)))
        # Pre-activations of size ~2: far from the LeakyReLU kink at 0.
        b = Parameter(np.array([2.0, -2.0, 2.0, -2.0]))
        # A fresh generator per evaluation keeps the dropout mask fixed.
        return (
            lambda: _probe(dispatch.aggregate(x, n, w, b, mode, p, np.random.default_rng(3)))
        ), [x, n, w, b]

    return make


OP_CASES = {
    "add": {"broadcast": _binary(F.add, (4,))},
    "sub": {"broadcast": _binary(F.sub, (5, 1))},
    "mul": {"same-shape": _binary(F.mul), "broadcast": _binary(F.mul, (1, 4))},
    "div": {"broadcast": _binary(F.div, (4,), low=0.5, high=1.5)},
    "neg": {"": _unary(F.neg)},
    "power": {"2.5": _unary(lambda t: F.power(t, 2.5), low=0.5, high=1.5)},
    "matmul": {
        "matrix": _binary(F.matmul, (4, 3)),
        "vector": _binary(F.matmul, (4,)),
    },
    "sum": {"all": _unary(F.sum), "axis": _unary(lambda t: F.sum(t, axis=1, keepdims=True))},
    "mean": {"all": _unary(F.mean), "axis": _unary(lambda t: F.mean(t, axis=0))},
    "reshape": {"": _unary(lambda t: F.reshape(t, (2, 10)))},
    "transpose": {"": _unary(F.transpose)},
    "concat": {"": _binary(lambda a, b: F.concat([a, b], axis=1), (5, 2))},
    "stack": {"": _binary(lambda a, b: F.stack([a, b], axis=0))},
    "take_rows": {"repeats": _gather(F.take_rows)},
    "embedding": {"repeats": _gather(F.embedding)},
    "tanh": {"": _unary(F.tanh)},
    "sigmoid": {"": _unary(F.sigmoid)},
    "relu": {"": _unary(F.relu, margin=0.1)},
    "leaky_relu": {"": _unary(F.leaky_relu, margin=0.1)},
    "exp": {"": _unary(F.exp)},
    "log": {"": _unary(F.log, low=0.5, high=2.0)},
    "sqrt": {"": _unary(F.sqrt, low=0.5, high=2.0)},
    "abs": {"": _unary(F.abs, margin=0.1)},
    "clip": {"": _clip},
    "softmax": {"": _unary(F.softmax)},
    "log_sigmoid": {"": _unary(F.log_sigmoid)},
    "softplus": {"": _unary(F.softplus)},
    "dropout": {
        "p0.3": _unary(lambda t: F.dropout(t, 0.3, np.random.default_rng(3))),
    },
    "segment_sum": {"": _unary(lambda t: F.segment_sum(t, OFFSETS), (7, 3))},
    "segment_max": {"shift": _segment_max},
    "segment_softmax": {"": _unary(lambda t: F.segment_softmax(t, OFFSETS), (7,))},
    "squared_norm": {"": _unary(F.squared_norm)},
    "bpr_loss": {"": _binary(lambda a, b: F.bpr_loss(F.sum(a, axis=1), F.sum(b, axis=1)))},
    "bpr_objective": {"leaf": _bpr_objective(False), "shared": _bpr_objective(True)},
    "margin_ranking_loss": {"": _margin_ranking},
    "l2_normalize": {"": _unary(lambda t: F.l2_normalize(t, axis=1))},
    "edge_attention_scores": {"": _edge_attention_scores},
    "weighted_neighbor_sum": {
        "tensor-weights": _weighted_neighbor_sum(True),
        "frozen-weights": _weighted_neighbor_sum(False),
    },
    "aggregate": {
        f"{mode}-p{p}": _aggregate(mode, p) for mode in ("concat", "sum") for p in (0.0, 0.4)
    },
    "transr_energy": {"": _transr_energy},
}


def check_case(op: str, case: str) -> Convergence:
    """Run ``OP_CASES[op][case]`` through :func:`assert_converges`, then hold
    the case to the exact claims: slope ≈ 2, and agreement with no rounding
    allowance, so that every case resolves a 1e-9 relative error."""
    result = assert_converges(*OP_CASES[op][case]())
    assert abs(result.slope - 2.0) <= 0.2, result
    assert result.extrapolated_error <= EXTRAPOLATED_RTOL, result
    return result
