"""Span recording for the traced benchmark run.

A :class:`Tracer` keeps spans ``(id, parent id, name, start, end)`` and
named counters in memory; nothing is written until the run ends.
:func:`install_shims` wraps the public entry points of every layer for the
duration of a traced run: module attributes that callers look up at call
time (``repro.kernels.dispatch.*``, the pipeline's builders) and public
methods on the classes (``Tensor.backward``, ``Optimizer.step``,
``TrainEngine.fit``, ``ArtifactStore.put``/``get``, the serving service).
Each call records one span named ``<layer>.<what>``; :meth:`Tracer.uninstall`
puts the originals back.

A span's self time is its duration minus the time its child spans cover.
A layer's self time is the sum over its spans.  The residual is the wall
time no layer span covers: the root span's self time plus the time from the
process's first line to the root span (its imports).  :func:`accounting`
compares layers plus residual with the process's wall clock, taken from its
first line to the export, so that time outside the root span shows as a
mismatch.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Optional


class Tracer:
    """In-memory spans and counters for one process."""

    def __init__(self) -> None:
        self.spans: List[list] = []  # [id, parent, name, start, end]
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self._undo: List[tuple] = []
        self.paused = False

    # ----------------------------------------------------------------- record
    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[list]:
        parent = self._stack[-1] if self._stack else -1
        record = [len(self.spans), parent, name, time.perf_counter(), None]
        self.spans.append(record)
        self._stack.append(record[0])
        try:
            yield record
        finally:
            record[4] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] += value

    @contextlib.contextmanager
    def own_work(self, name: str) -> Iterator[None]:
        """A ``bench.<name>`` span in which the shims record nothing.

        The benchmark's own checks call into the layers too (a fresh
        service to compare responses against); that time belongs to the
        benchmark, not to the layers it calls.
        """
        with self.span(f"bench.{name}"):
            self.paused = True
            try:
                yield
            finally:
                self.paused = False

    # ------------------------------------------------------------------ shims
    def _install(self, owner, attr: str, shim: Callable, original: Callable) -> None:
        # Keep the raw attribute (a classmethod stays a classmethod); None
        # means it was inherited and uninstalling deletes the shim instead.
        raw = vars(owner).get(attr)
        functools.update_wrapper(shim, original)
        setattr(owner, attr, shim)
        self._undo.append((owner, attr, raw))

    def wrap(self, owner, attr: str, name: str, after: Optional[Callable] = None) -> None:
        """Record a span around every call of ``owner.attr``.

        ``after(tracer, span, args, kwargs, result)`` runs once the call has
        returned, to count the work the call did.
        """
        original = getattr(owner, attr)
        tracer = self

        def shim(*args, **kwargs):
            if tracer.paused:
                return original(*args, **kwargs)
            with tracer.span(name) as record:
                result = original(*args, **kwargs)
            if after is not None:
                after(tracer, record, args, kwargs, result)
            return result

        self._install(owner, attr, shim, original)

    def wrap_iterator(self, owner, attr: str, name: str, counter: str) -> None:
        """Record a span around each ``next`` of the iterator ``owner.attr`` returns."""
        original = getattr(owner, attr)
        tracer = self

        def shim(*args, **kwargs):
            items = iter(original(*args, **kwargs))
            if tracer.paused:
                yield from items
                return
            while True:
                with tracer.span(name):
                    try:
                        item = next(items)
                    except StopIteration:
                        return
                tracer.count(counter)
                yield item

        self._install(owner, attr, shim, original)

    def wrap_tape_op(self, module, op: str) -> None:
        """Forward span around the op, backward span around its tape closure."""
        original = getattr(module, op)
        tracer = self

        def shim(*args, **kwargs):
            if tracer.paused:
                return original(*args, **kwargs)
            with tracer.span(f"kernels.{op}.fwd"):
                node = original(*args, **kwargs)
            tracer.count(f"kernels.{op}.calls")
            backward = node._backward
            if backward is not None:

                def timed_backward(grad):
                    with tracer.span(f"kernels.{op}.bwd"):
                        backward(grad)

                node._backward = timed_backward
            return node

        self._install(module, op, shim, original)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            if raw is not None:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    # ------------------------------------------------------------------ export
    def export(self, process_start: float) -> dict:
        """Spans, counters and the process's wall clock from ``process_start`` to now."""
        return {
            "spans": [list(s) for s in self.spans],
            "counts": dict(self.counts),
            "process_start": process_start,
            "process_end": time.perf_counter(),
        }


# --------------------------------------------------------------------- shims
def _count_records(tracer, record, args, kwargs, trace) -> None:
    tracer.count("facility.records", len(trace))


def _count_put_bytes(tracer, record, args, kwargs, result) -> None:
    arrays = kwargs.get("arrays", args[4] if len(args) > 4 else {})
    tracer.count("store.put_bytes", sum(a.nbytes for a in arrays.values()))


def _count_epoch(tracer, record, args, kwargs, result) -> None:
    tracer.count("train.epochs")


def _count_step(tracer, record, args, kwargs, result) -> None:
    tracer.count("autograd.optimizer_steps")


def _count_topk(tracer, record, args, kwargs, result) -> None:
    batch = kwargs.get("batch", args[6] if len(args) > 6 else ())
    tracer.count("kernels.masked_topk.calls")
    tracer.count("kernels.masked_topk.rows", len(batch))


def _count_eval_users(tracer, record, args, kwargs, result) -> None:
    tracer.count("eval.users", result.num_users)


def _count_batch(tracer, record, args, kwargs, result) -> None:
    # Request-weighted batch time: every request in the batch waited for the
    # whole recommend_many call, so queue wait = latency - this mean.
    size = len(args[1])
    tracer.count("serving.batch_requests", size)
    tracer.count("serving.batch_request_s", size * (record[4] - record[3]))


def install_shims(tracer: Tracer) -> None:
    """Wrap every layer's public entry points; undo with ``tracer.uninstall()``."""
    from repro.autograd.optim import Optimizer
    from repro.autograd.tensor import Tensor
    from repro.data.sampling import BPRSampler
    from repro.eval.evaluator import RankingEvaluator
    from repro.kernels import dispatch
    from repro.models.ckat.model import CKAT
    from repro.pipeline import stages
    from repro.serving.index import ScoreIndex
    from repro.serving.service import RecommendService
    from repro.store.artifacts import ArtifactStore
    from repro.train.engine import SerialExecutor, TrainEngine

    for stage in ("split", "ckg", "graph"):
        tracer.wrap(stages.DatasetPipeline, stage, f"pipeline.{stage}")
    # The pipeline's split stage calls these through its module's names.
    tracer.wrap(stages, "generate_trace", "facility.trace", _count_records)
    tracer.wrap(stages, "trace_to_interactions", "data.interactions")
    tracer.wrap(stages, "per_user_split", "data.split")
    tracer.wrap_iterator(BPRSampler, "epoch_batches", "data.sampler", "data.batches")
    tracer.wrap(ArtifactStore, "put", "store.put", _count_put_bytes)
    tracer.wrap(ArtifactStore, "get", "store.get")
    tracer.wrap(TrainEngine, "fit", "train.fit")
    tracer.wrap(SerialExecutor, "run_epoch", "train.run_epoch", _count_epoch)
    tracer.wrap(CKAT, "batch_loss", "models.batch_loss")
    tracer.wrap(CKAT, "extra_epoch_step", "models.extra_epoch_step")
    tracer.wrap(Tensor, "backward", "autograd.backward")
    tracer.wrap(Optimizer, "step", "autograd.optimizer_step", _count_step)
    for op in dispatch.TENSOR_OPS:
        tracer.wrap_tape_op(dispatch, op)
    tracer.wrap(dispatch, "masked_topk", "kernels.masked_topk", _count_topk)
    tracer.wrap(RankingEvaluator, "evaluate_model", "eval.evaluate", _count_eval_users)
    tracer.wrap(ScoreIndex, "from_model", "serving.freeze")
    tracer.wrap(ScoreIndex, "topk_vectors", "serving.topk_vectors")
    tracer.wrap(RecommendService, "recommend_many", "serving.recommend_many", _count_batch)
    tracer.wrap(RecommendService, "fold_in", "serving.fold_in")


def span_cost_s(calls: int = 20_000) -> float:
    """Measured cost of one shimmed call: a wrapped no-op minus the bare one."""

    class _Probe:
        def call(self) -> None:
            return None

    probe = _Probe()

    def loop() -> float:
        start = time.perf_counter()
        for _ in range(calls):
            probe.call()
        return time.perf_counter() - start

    bare = min(loop() for _ in range(3))
    tracer = Tracer()
    tracer.wrap(_Probe, "call", "probe")
    try:
        shimmed = min(loop() for _ in range(3))
    finally:
        tracer.uninstall()
    return max(shimmed - bare, 0.0) / calls


# ------------------------------------------------------------------ analysis
def _child_cover(spans: List[list]) -> Dict[int, float]:
    """Seconds of each span that its direct children cover."""
    covered: Dict[int, float] = defaultdict(float)
    for _sid, parent, _name, start, end in spans:
        if parent >= 0:
            covered[parent] += end - start
    return covered


def self_times(spans: List[list]) -> Dict[str, float]:
    """Self time per span name: duration minus the time children cover."""
    covered = _child_cover(spans)
    out: Dict[str, float] = defaultdict(float)
    for sid, _parent, name, start, end in spans:
        out[name] += (end - start) - covered[sid]
    return dict(out)


def accounting(trace: dict) -> tuple:
    """``(self seconds per layer plus "residual", process wall seconds)``.

    The residual is the root spans' self time plus the time before the first
    root span opened; the wall clock is measured apart from the spans.
    """
    spans = trace["spans"]
    roots = [s for s in spans if s[1] < 0]
    root_names = {s[2] for s in roots}
    by_layer: Dict[str, float] = defaultdict(float)
    by_layer["residual"] = min(s[3] for s in roots) - trace["process_start"]
    for name, seconds in self_times(spans).items():
        by_layer["residual" if name in root_names else name.split(".")[0]] += seconds
    return dict(by_layer), trace["process_end"] - trace["process_start"]


def span_tree(spans: List[list]) -> Dict[tuple, List[float]]:
    """``{path: [calls, total_s, self_s]}`` aggregated by root-to-span name path."""
    covered = _child_cover(spans)
    paths: Dict[int, tuple] = {}
    tree: Dict[tuple, List[float]] = {}
    for sid, parent, name, start, end in spans:  # parents precede children
        path = (paths[parent] if parent >= 0 else ()) + (name,)
        paths[sid] = path
        row = tree.setdefault(path, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += end - start
        row[2] += (end - start) - covered[sid]
    return tree


def render_tree(title: str, spans: List[list], min_share: float = 0.002) -> str:
    """Indented per-layer tree: calls, total and self seconds, share of wall."""
    tree = span_tree(spans)
    wall = sum(row[1] for path, row in tree.items() if len(path) == 1) or 1.0
    lines = [
        title,
        f"  {'span':<58} {'calls':>7} {'total_s':>9} {'self_s':>9} {'self%':>6}",
    ]
    for path in sorted(tree):
        calls, total, own = tree[path]
        if total / wall < min_share and len(path) > 1:
            continue
        label = "  " * (len(path) - 1) + path[-1]
        lines.append(
            f"  {label:<58} {int(calls):>7} {total:>9.4f} {own:>9.4f} {100 * own / wall:>6.1f}"
        )
    return "\n".join(lines)
