"""First-order optimizers for the autodiff engine.

All models in the paper are trained with Adam (Section VI-D), the one
optimizer here.  Optimizers operate on the ``.grad`` buffers that
:meth:`repro.autograd.tensor.Tensor.backward` fills in and update ``.data`` in
place (guides: in-place ops avoid large temporaries).  Adam's dense
arithmetic is the free function :func:`adam_update`, which serving's fold-in
also steps a plain user vector with.

Sparse row gradients
--------------------
Embedding gathers emit :class:`~repro.autograd.sparse.SparseRowGrad` for leaf
parameters, and :meth:`Optimizer.step` dispatches on the gradient type: a
parameter with a sparse grad is coalesced once and handed to the subclass's
``_update_sparse`` (scatter-update over the touched rows only), while dense
grads take the unchanged ``_update`` path — bit-for-bit the pre-sparse
behavior.  Configurations whose update couples untouched rows (weight decay)
fall back to densifying the grad, so sparse mode never changes semantics,
only cost.

Adam is the subtle case: its moments decay every step even for rows that
received no gradient.  The sparse path is *lazy* — it records the step at
which each row was last touched and, on the row's next appearance, applies
the accumulated decay ``beta**(t - last)`` in one multiply before folding in
the new gradient.  Moment values therefore match an eager per-step decay up
to the associativity of repeated multiplication; what lazy Adam skips is the
(tiny) parameter drift dense Adam applies to untouched rows from their
decaying first moment.  See DESIGN.md for the full semantics note.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.autograd.sparse import SparseRowGrad
from repro.autograd.tensor import Parameter

_STATE_VERSION = 1

__all__ = [
    "Optimizer",
    "Adam",
    "adam_update",
    "assemble_row_sharded_state",
]


def adam_update(
    data: np.ndarray,
    grad: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    t: int,
    lr: float,
    scratch: Sequence[np.ndarray],
    betas: Tuple[float, float] = (0.9, 0.999),
    eps: float = 1e-8,
) -> None:
    """One dense Adam step at step number ``t``, all in place.

    Updates the moments ``m``/``v`` with ``grad`` and subtracts
    ``lr·m̂ / (√v̂ + ε)`` from ``data``.  ``scratch`` is two arrays shaped and
    typed like ``data``; their contents are overwritten, so a caller that
    steps repeatedly allocates them once.  The operations are those of the
    textbook expressions, in the same order — ``(lr·m̂)/(…)``, and bias
    corrections ``1 − β**t`` as Python floats — so the result is the same
    bits as evaluating them with temporaries.
    """
    b1, b2 = betas
    first, second = scratch
    m *= b1
    m += np.multiply(grad, 1 - b1, out=first)
    v *= b2
    np.multiply(grad, grad, out=first)
    first *= 1 - b2
    v += first
    np.divide(v, 1 - b2**t, out=first)
    np.sqrt(first, out=first)
    first += eps
    np.divide(m, 1 - b1**t, out=second)
    second *= lr
    second /= first
    data -= second  # reprolint: disable=RPL007


class Optimizer:
    """Base optimizer: holds parameters, zeroes grads, applies steps."""

    def __init__(self, params: Sequence[Parameter], lr: float):
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.params: List[Parameter] = list(params)
        if not self.params:
            raise ValueError("optimizer received no parameters")
        self.lr = lr
        self.step_count = 0

    def zero_grad(self) -> None:
        """Clear every parameter's gradient buffer."""
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        """Apply one update using the current gradients.

        Parameters holding a :class:`SparseRowGrad` are coalesced and routed
        to ``_update_sparse`` when the subclass supports it in its current
        configuration; otherwise the grad is densified and the dense path
        runs, preserving exact dense semantics.
        """
        self.step_count += 1
        for p in self.params:
            grad = p.grad
            if grad is None:
                continue
            if isinstance(grad, SparseRowGrad):
                grad = grad.coalesce()
                if self._supports_sparse():
                    p.grad = grad
                    self._update_sparse(p, grad)
                    continue
                p.grad = grad.to_dense()
            self._update(p)

    def _update(self, p: Parameter) -> None:
        raise NotImplementedError

    def _supports_sparse(self) -> bool:
        """Whether ``_update_sparse`` is exact under the current config."""
        return False

    def _update_sparse(self, p: Parameter, grad: SparseRowGrad) -> None:
        raise NotImplementedError

    def state_size(self) -> int:
        """Number of floats of optimizer state (for memory accounting)."""
        return 0

    # --------------------------------------------------------- serialization
    def _slots(self) -> Dict[str, Dict[int, np.ndarray]]:
        """Named per-parameter state buffers, keyed internally by ``id(p)``.

        Subclasses with state (momentum, moments, accumulators) expose their
        buffers here; the base class has none.
        """
        return {}

    def state_dict(self) -> dict:
        """Full optimizer state as plain arrays and scalars.

        Per-parameter buffers are re-keyed from ``id(p)`` (process-local) to
        the parameter's *position* in ``self.params``, which is stable across
        processes as long as the model rebuilds its parameter list in the
        same order — the same contract :mod:`repro.io.checkpoints` relies on.
        Arrays are copied, so the snapshot is immune to further steps.
        """
        index = {id(p): i for i, p in enumerate(self.params)}
        slots = {
            name: {index[pid]: arr.copy() for pid, arr in buf.items()}
            for name, buf in self._slots().items()
        }
        return {
            "version": _STATE_VERSION,
            "type": type(self).__name__,
            "lr": float(self.lr),
            "step_count": int(self.step_count),
            "slots": slots,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (in place).

        Raises ``ValueError`` if the state came from a different optimizer
        class or if any buffer's shape does not match its parameter —
        optimizer state only loads into the parameter list that produced it.
        """
        if state.get("type") != type(self).__name__:
            raise ValueError(
                f"optimizer state is for {state.get('type')!r}, not {type(self).__name__!r}"
            )
        slots = self._slots()
        expected = set(slots)
        stored = set(state.get("slots", {}))
        if stored - expected:
            raise ValueError(f"unknown optimizer state slots {sorted(stored - expected)}")
        for name, buf in slots.items():
            loaded: Dict[int, np.ndarray] = {}
            for idx, arr in state.get("slots", {}).get(name, {}).items():
                idx = int(idx)
                if not 0 <= idx < len(self.params):
                    raise ValueError(f"optimizer state slot {name!r} indexes parameter {idx}")
                p = self.params[idx]
                arr = np.asarray(arr)
                if arr.shape != p.data.shape:
                    raise ValueError(
                        f"optimizer state {name}[{idx}] shape {arr.shape} does not match "
                        f"parameter shape {p.data.shape}"
                    )
                loaded[id(p)] = arr.astype(p.data.dtype, copy=True)
            buf.clear()
            buf.update(loaded)
        self.lr = float(state["lr"])
        self.step_count = int(state["step_count"])


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2014) — the paper's optimizer for every model.

    With sparse row gradients the moment decay is applied *lazily*: each
    parameter that has ever received a sparse grad carries an int64 row
    vector of last-touched step numbers, and a row's accumulated decay
    ``beta**(t - last)`` is applied when the row next appears (or caught up
    in bulk when a dense grad arrives).  Checkpoint compatibility: the
    ``m``/``v`` slots stay dense param-shaped arrays holding *unflushed*
    moments, and the row-step vectors travel as a separate top-level
    ``row_steps`` key that older readers ignore (they then see exactly the
    slot format PR 2 defined) and older checkpoints simply lack (all rows
    are treated as current, which is exact for dense-only histories).  The
    moment slots and the lazy decay factors are in the parameter's dtype,
    so a float32 parameter steps without float64 temporaries.
    """

    def __init__(
        self,
        params: Sequence[Parameter],
        lr: float = 0.001,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        super().__init__(params, lr)
        b1, b2 = betas
        if not (0.0 <= b1 < 1.0 and 0.0 <= b2 < 1.0):
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        self.betas = (b1, b2)
        self.eps = eps
        self.weight_decay = weight_decay
        self._m: Dict[int, np.ndarray] = {}
        self._v: Dict[int, np.ndarray] = {}
        #: per-parameter int64 vector (one entry per row) of the step at
        #: which that row's moments were last decayed; only parameters that
        #: have received a sparse grad have an entry.
        self._last: Dict[int, np.ndarray] = {}

    def _moments(self, p: Parameter):
        m = self._m.get(id(p))
        if m is None:
            m = np.zeros_like(p.data)
            v = np.zeros_like(p.data)
            self._m[id(p)], self._v[id(p)] = m, v
        else:
            v = self._v[id(p)]
        return m, v

    def _update(self, p: Parameter) -> None:
        b1, b2 = self.betas
        g = p.grad
        if self.weight_decay:
            g = g + self.weight_decay * p.data
        m, v = self._moments(p)
        last = self._last.get(id(p))
        if last is not None:
            # Catch up lazily-deferred decay so adam_update's ``m *= b1``
            # lands every row on beta**(t - last) total decay.
            lag = (self.step_count - 1) - last
            if lag.any():
                expand = (-1,) + (1,) * (p.data.ndim - 1)
                lag = lag.astype(p.data.dtype)
                m *= (b1**lag).reshape(expand)
                v *= (b2**lag).reshape(expand)
            last[:] = self.step_count
        scratch = (np.empty_like(p.data), np.empty_like(p.data))
        adam_update(p.data, g, m, v, self.step_count, self.lr, scratch, self.betas, self.eps)

    def _supports_sparse(self) -> bool:
        # Decoupled weight decay would have to touch every row; densify.
        return self.weight_decay == 0.0

    def _update_sparse(self, p: Parameter, grad: SparseRowGrad) -> None:
        b1, b2 = self.betas
        m, v = self._moments(p)
        last = self._last.get(id(p))
        if last is None:
            # Moments are current as of the previous step (zeros decay to
            # zeros, so this is exact for fresh parameters too).
            last = np.full(p.data.shape[0], self.step_count - 1, dtype=np.int64)
            self._last[id(p)] = last
        t = self.step_count
        idx, val = grad.indices, grad.values
        delta = (t - last[idx]).astype(p.data.dtype)
        expand = (-1,) + (1,) * (val.ndim - 1)
        # The arithmetic of m·β₁^Δ + (1 − β₁)·g, v·β₂^Δ + (1 − β₂)·g² and
        # lr·m̂ / (√v̂ + ε), in place through one scratch: each fresh
        # (rows, d) temporary costs more in page faults than in arithmetic.
        scratch = np.multiply(val, 1 - b1)
        m_rows = m[idx]
        m_rows *= (b1**delta).reshape(expand)
        m_rows += scratch
        np.multiply(val, val, out=scratch)
        scratch *= 1 - b2
        v_rows = v[idx]
        v_rows *= (b2**delta).reshape(expand)
        v_rows += scratch
        m[idx] = m_rows
        v[idx] = v_rows
        last[idx] = t
        np.divide(v_rows, 1 - b2**t, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += self.eps
        update = np.divide(m_rows, 1 - b1**t, out=m_rows)
        update *= self.lr
        update /= scratch
        p.data[idx] -= update  # reprolint: disable=RPL007

    def state_size(self) -> int:
        return sum(m.size for m in self._m.values()) + sum(v.size for v in self._v.values())

    def _slots(self) -> Dict[str, Dict[int, np.ndarray]]:
        return {"m": self._m, "v": self._v}

    def state_dict(self) -> dict:
        state = super().state_dict()
        if self._last:
            index = {id(p): i for i, p in enumerate(self.params)}
            # Plain ints so the vector survives the checkpoint meta-JSON
            # channel; stored *unflushed* — folding the pending decay into
            # m/v here would break bit-identical resume (beta**(a+b) is not
            # beta**a * beta**b in floating point).
            state["row_steps"] = {
                index[pid]: [int(s) for s in steps] for pid, steps in self._last.items()
            }
        return state

    # ---------------------------------------------------- row-shard views
    def export_row_shard(self, p: Parameter) -> dict:
        """One parameter's lazy-Adam state as plain row-aligned arrays.

        Returns copies of the ``m``/``v`` moment rows and the ``row_steps``
        last-touched vector for ``p`` — the per-row-shard view the
        data-parallel engine gathers from each worker's shard-local
        optimizer.  State that was never materialized reads back as its
        mathematical value: zero moments, and ``row_steps`` equal to the
        current ``step_count`` (zeros decay to zeros, so "current" is exact).
        """
        if id(p) not in {id(q) for q in self.params}:
            raise ValueError("export_row_shard: parameter is not owned by this optimizer")
        m = self._m.get(id(p))
        v = self._v.get(id(p))
        if m is None:
            m = np.zeros_like(p.data)
            v = np.zeros_like(p.data)
        last = self._last.get(id(p))
        if last is None:
            last = np.full(p.data.shape[0], self.step_count, dtype=np.int64)
        return {"m": m.copy(), "v": v.copy(), "row_steps": last.copy()}

    def install_row_shard(self, p: Parameter, state: dict) -> None:
        """Install an :meth:`export_row_shard` view into this optimizer.

        The inverse scatter: a worker restoring from a checkpoint installs
        its shard's slice of the full ``m``/``v``/``row_steps`` arrays into
        its shard-local optimizer, whose parameter covers exactly those rows.
        """
        if id(p) not in {id(q) for q in self.params}:
            raise ValueError("install_row_shard: parameter is not owned by this optimizer")
        m = np.asarray(state["m"], dtype=p.data.dtype)
        v = np.asarray(state["v"], dtype=p.data.dtype)
        last = np.asarray(state["row_steps"], dtype=np.int64)
        if m.shape != p.data.shape or v.shape != p.data.shape:
            raise ValueError(
                f"row shard moment shape {m.shape}/{v.shape} does not match "
                f"parameter shape {p.data.shape}"
            )
        if last.shape != (p.data.shape[0],):
            raise ValueError(
                f"row shard has {last.shape} row_steps for parameter with "
                f"{p.data.shape[0]} rows"
            )
        self._m[id(p)] = m.copy()
        self._v[id(p)] = v.copy()
        self._last[id(p)] = last.copy()

    def load_state_dict(self, state: dict) -> None:
        state = dict(state)
        row_steps = state.pop("row_steps", None)
        super().load_state_dict(state)
        self._last = {}
        if row_steps:
            for key, steps in row_steps.items():
                idx = int(key)  # JSON round-trips dict keys as strings
                if not 0 <= idx < len(self.params):
                    raise ValueError(f"optimizer row_steps indexes parameter {idx}")
                p = self.params[idx]
                arr = np.asarray(steps, dtype=np.int64)
                if arr.shape != (p.data.shape[0],):
                    raise ValueError(
                        f"row_steps[{idx}] has {arr.shape[0] if arr.ndim else 0} entries "
                        f"for parameter with {p.data.shape[0]} rows"
                    )
                self._last[id(p)] = arr


def assemble_row_sharded_state(
    state: dict,
    param_index: int,
    shards: Sequence[tuple],
) -> dict:
    """Fold per-row-shard Adam views into a full ``state_dict`` (in place).

    ``shards`` is a sequence of ``(lo, hi, view)`` with ``view`` an
    :meth:`Adam.export_row_shard` dict covering rows ``[lo, hi)`` of
    parameter ``param_index``.  Shards must tile the parameter's rows
    exactly (disjoint, covering) — the assembled ``m``/``v`` slot arrays and
    ``row_steps`` vector are indistinguishable from a serial optimizer's, so
    the result round-trips through the existing
    :mod:`repro.io.checkpoints` npz format unchanged.
    """
    if not shards:
        raise ValueError("assemble_row_sharded_state: no shards given")
    ordered = sorted(shards, key=lambda s: s[0])
    num_rows = ordered[-1][1]
    covered = 0
    for lo, hi, view in ordered:
        if lo != covered:
            raise ValueError(
                f"row shards must tile the parameter: gap/overlap at row {covered} (shard starts at {lo})"
            )
        if hi - lo != np.asarray(view["row_steps"]).shape[0]:
            raise ValueError(
                f"row shard [{lo}, {hi}) carries {np.asarray(view['row_steps']).shape[0]} rows of state"
            )
        covered = hi
    m = np.concatenate([np.asarray(view["m"]) for _, _, view in ordered], axis=0)
    v = np.concatenate([np.asarray(view["v"]) for _, _, view in ordered], axis=0)
    last = np.concatenate(
        [np.asarray(view["row_steps"], dtype=np.int64) for _, _, view in ordered]
    )
    if m.shape[0] != num_rows:
        raise ValueError(f"assembled {m.shape[0]} rows, expected {num_rows}")
    slots = state.setdefault("slots", {})
    slots.setdefault("m", {})[param_index] = m
    slots.setdefault("v", {})[param_index] = v
    state.setdefault("row_steps", {})[param_index] = [int(s) for s in last]
    return state
