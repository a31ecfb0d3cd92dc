"""Op-timer profiler: where does a training epoch's wall-clock go?

Reuses the monkeypatch machinery of :mod:`repro.analysis.sanitizer`: every
public op in :mod:`repro.autograd.functional`, every fused Tensor op in
:mod:`repro.kernels.dispatch`, and :meth:`~repro.autograd.optim.Optimizer.step`
is wrapped with a timing shim while a profile is active.  Each wrapper records

- **forward** seconds — wall-clock of the op call itself, attributed only to
  *top-level* calls (a composite op like ``bpr_loss`` that invokes other
  instrumented ops absorbs their time; nothing is double-counted);
- **backward** seconds — the op's ``_backward`` closure is rewrapped on the
  output tensor, so the tape walk in
  :meth:`~repro.autograd.tensor.Tensor.backward` times each node exactly.

The result is a :class:`ProfileReport` mapping op name → (calls, forward s,
backward s), with :meth:`ProfileReport.table` rendering the per-op wall-clock
share the ``repro profile`` CLI command prints.  This is the receipts side of
the fused-kernel work: an epoch's time sits in ``edge_attention_scores`` /
``weighted_neighbor_sum`` rather than in a gather/scatter chain.

Instrumentation is installed by patching module attributes and fully removed
on exit, so an un-profiled run costs nothing.  Profiling composes with the
sanitizer (either order): each layer saves and restores whatever callable it
found.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import time
from typing import Callable, Dict, Iterator, List, Optional

from repro.autograd import functional as F
from repro.autograd import optim as _optim
from repro.autograd.tensor import Tensor
from repro.kernels import dispatch as _dispatch

__all__ = ["OpStat", "ProfileReport", "profiled", "enable", "disable", "is_enabled"]


@dataclasses.dataclass
class OpStat:
    """Accumulated timings for one instrumented op."""

    name: str
    calls: int = 0
    forward_seconds: float = 0.0
    backward_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        return self.forward_seconds + self.backward_seconds

    def as_dict(self) -> Dict[str, float]:
        return {
            "calls": self.calls,
            "forward_seconds": self.forward_seconds,
            "backward_seconds": self.backward_seconds,
            "total_seconds": self.total_seconds,
        }


class ProfileReport:
    """Per-op timing totals for one profiled block.

    ``wall_seconds`` is the wall-clock of the whole block; the per-op totals
    cover only instrumented calls, so their sum is a lower bound (Python
    control flow, sampling, and raw-NumPy glue make up the difference).
    """

    def __init__(self) -> None:
        self.stats: Dict[str, OpStat] = {}
        self.wall_seconds: float = 0.0

    def _stat(self, name: str) -> OpStat:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = OpStat(name)
        return stat

    @property
    def op_seconds(self) -> float:
        """Total instrumented seconds (forward + backward over all ops)."""
        return sum(s.total_seconds for s in self.stats.values())

    def sorted_stats(self) -> List[OpStat]:
        """Stats sorted by descending total time (name-tiebroken, stable)."""
        return sorted(self.stats.values(), key=lambda s: (-s.total_seconds, s.name))

    def as_dict(self) -> Dict[str, object]:
        return {
            "wall_seconds": self.wall_seconds,
            "op_seconds": self.op_seconds,
            "ops": {s.name: s.as_dict() for s in self.sorted_stats()},
        }

    def table(self, top: Optional[int] = 15) -> str:
        """Human-readable per-op table, biggest total first.

        ``share`` is the op's fraction of all *instrumented* time — the
        number that shows where an epoch's compute actually goes.
        """
        stats = self.sorted_stats()
        if top is not None:
            stats = stats[:top]
        denom = self.op_seconds or 1.0
        width = max([len(s.name) for s in stats] + [4])
        lines = [
            f"{'op':<{width}} {'calls':>7} {'fwd s':>9} {'bwd s':>9} {'total s':>9} {'share':>6}"
        ]
        for s in stats:
            lines.append(
                f"{s.name:<{width}} {s.calls:>7d} {s.forward_seconds:>9.3f} "
                f"{s.backward_seconds:>9.3f} {s.total_seconds:>9.3f} "
                f"{100.0 * s.total_seconds / denom:>5.1f}%"
            )
        lines.append(
            f"instrumented {self.op_seconds:.3f}s of {self.wall_seconds:.3f}s wall "
            f"({100.0 * self.op_seconds / (self.wall_seconds or 1.0):.1f}% coverage)"
        )
        return "\n".join(lines)


# ----------------------------------------------------------------- wrappers
_active: Optional[ProfileReport] = None
# Depth of instrumented calls on the stack: only depth-0 calls are timed, so
# composite ops don't double-count the primitives they invoke.
_depth = 0


def _timed_op(name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        global _depth
        report = _active
        if report is None or _depth:
            _depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                _depth -= 1
        _depth += 1
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            _depth -= 1
        stat = report._stat(name)
        stat.calls += 1
        stat.forward_seconds += dt
        if isinstance(out, Tensor) and out._backward is not None:
            inner = out._backward

            def timed_backward(grad):
                t1 = time.perf_counter()
                try:
                    inner(grad)
                finally:
                    stat.backward_seconds += time.perf_counter() - t1

            out._backward = timed_backward
        return out

    wrapped.__profiler_wrapped__ = True
    return wrapped


def _timed_step(original: Callable) -> Callable:
    @functools.wraps(original)
    def wrapped(self):
        report = _active
        if report is None:
            return original(self)
        t0 = time.perf_counter()
        try:
            return original(self)
        finally:
            stat = report._stat("optimizer.step")
            stat.calls += 1
            stat.forward_seconds += time.perf_counter() - t0

    wrapped.__profiler_wrapped__ = True
    return wrapped


# ------------------------------------------------------------ install state
_installed = False
_saved_ops: Dict[str, Callable] = {}
_saved_dispatch_ops: Dict[str, Callable] = {}
_saved_step: Optional[Callable] = None


def is_enabled() -> bool:
    """Whether the profiler instrumentation is currently installed."""
    return _installed


def enable() -> None:
    """Install the timing instrumentation (idempotent)."""
    global _installed, _saved_step
    if _installed:
        return
    for name in F.__all__:
        fn = getattr(F, name)
        _saved_ops[name] = fn
        setattr(F, name, _timed_op(name, fn))
    for name in _dispatch.TENSOR_OPS:
        fn = getattr(_dispatch, name)
        _saved_dispatch_ops[name] = fn
        setattr(_dispatch, name, _timed_op(name, fn))
    _saved_step = _optim.Optimizer.step
    _optim.Optimizer.step = _timed_step(_saved_step)
    _installed = True


def disable() -> None:
    """Remove the instrumentation (idempotent)."""
    global _installed, _saved_step
    if not _installed:
        return
    for name, fn in _saved_ops.items():
        setattr(F, name, fn)
    _saved_ops.clear()
    for name, fn in _saved_dispatch_ops.items():
        setattr(_dispatch, name, fn)
    _saved_dispatch_ops.clear()
    _optim.Optimizer.step = _saved_step
    _saved_step = None
    _installed = False


@contextlib.contextmanager
def profiled() -> Iterator[ProfileReport]:
    """Profile the enclosed block, yielding the report being filled.

    The report's totals are final once the block exits.  Nesting-safe in the
    same way as :func:`repro.analysis.sanitizer.sanitized`; concurrent
    profiles are not supported (one active report at a time).
    """
    global _active
    if _active is not None:
        raise RuntimeError("a profile is already active; profiled() does not nest")
    was_installed = _installed
    enable()
    report = ProfileReport()
    _active = report
    t0 = time.perf_counter()
    try:
        yield report
    finally:
        report.wall_seconds = time.perf_counter() - t0
        _active = None
        if not was_installed:
            disable()
