"""Op-timer profiler: where does a training epoch's wall-clock go?

One :class:`~repro.autograd.ops.Hook` over the op registry: while a profile
is active, every registered op (:func:`repro.autograd.ops.registered_ops`)
and :meth:`~repro.autograd.optim.Optimizer.step` run through a timing shim
that records

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

The registry installs the wrappers with its first hook and removes them
with its last, so an un-profiled run costs nothing, and a profile composes
with the sanitizer in either order.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from typing import Dict, Iterator, List, Optional

from repro.autograd.ops import Hook, active_hooks, add_hook, op_depth, remove_hook
from repro.autograd.tensor import Tensor

__all__ = ["OpStat", "ProfileReport", "profiled"]


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


# ------------------------------------------------------------------- hook
class _ProfileHook(Hook):
    """Times top-level op calls, their backward closures and optimizer steps."""

    def __init__(self, report: ProfileReport) -> None:
        self.report = report

    def op(self, name, call, args, kwargs):
        # Only top-level calls are timed, so composite ops don't double-count
        # the primitives they invoke.
        if op_depth() > 1:
            return call(*args, **kwargs)
        t0 = time.perf_counter()
        try:
            out = call(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
        stat = self.report._stat(name)
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

    def step(self, optimizer, call):
        t0 = time.perf_counter()
        try:
            call()
        finally:
            stat = self.report._stat("optimizer.step")
            stat.calls += 1
            stat.forward_seconds += time.perf_counter() - t0


@contextlib.contextmanager
def profiled() -> Iterator[ProfileReport]:
    """Profile the enclosed block, yielding the report being filled.

    The report's totals are final once the block exits.  One profile at a
    time (``profiled()`` does not nest); it composes with the sanitizer in
    any order, each being one registry hook.
    """
    if any(isinstance(h, _ProfileHook) for h in active_hooks()):
        raise RuntimeError("a profile is already active; profiled() does not nest")
    report = ProfileReport()
    hook = _ProfileHook(report)
    add_hook(hook)
    t0 = time.perf_counter()
    try:
        yield report
    finally:
        report.wall_seconds = time.perf_counter() - t0
        remove_hook(hook)
