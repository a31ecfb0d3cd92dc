"""The benchmark's two workloads.

Each workload is one deployment cycle of the data-discovery service —
ingest, train, evaluate, freeze, serve — on generated inputs; they differ in
which stage gets the measurement budget, so each stresses different layers:

``train-ckat-ooi``
    CKAT (batch attention) on the OOI full dataset for a fixed epoch budget,
    repeated until the budget is spent, then recall@20.  Fused kernels and
    autograd do most of the work; a short serving tail follows.
``serve-mixed-ooi``
    A short CKAT training, then most of the budget on serving: an open-loop
    window at the nominal rate and a closed-loop cost pass.

A third workload, the streamed out-of-core ingest at 10^5 users with a
BPRMF epoch (``ingest-bprmf-1e5``), was dropped: its timed stages run
3-4 s and fit only twice in a run, too few repeats to find the host's fast
state (``hostspeed.py``), and its timings spread 16-24% (IQR over median)
over five seeds.  The facility, data and store layers it stressed are still
traced on the OOI in-memory ingest and the serving freeze.

Every workload reports the same end-to-end metrics, so each metric's
meaning is fixed: ``epoch_s`` is an epoch of the workload's CKAT model, and
the serving metrics always come from the same plan of requests.

Timings are CPU seconds of the process doing the work, read from the
process CPU clock (``time.process_time``).  On a shared host the wall time
of the same work follows the neighbours: a CKAT epoch spread by 34% and the
fastest of forty OOI ingests by 40% between runs, because the hypervisor
takes the vCPU away for a varying share of the run.  The CPU clock does not
advance while the process waits for a core, so it measures the work.  BLAS
runs one thread, so for the CPU-bound stages timed here CPU time is the wall
time on an idle core; wall times are kept in the run's printed details.

The CPU clock still runs slow while co-tenants load the host's cores
(``hostspeed.py``).  Each timed stage is therefore repeated within the run
and cut into short segments by :class:`CpuStamps`; a timing is the sum of
each segment's fastest repeat, scaled by ``hostspeed.scale`` from the host
probes taken through the run.
"""

from __future__ import annotations

import bisect
import contextlib
import dataclasses
import functools
import pathlib
import shutil
import statistics
import time
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.eval.evaluator import RankingEvaluator
from repro.experiments.datasets import load_dataset
from repro.experiments.runner import build_model, default_fit_config
from repro.models.ckat import CKATConfig
from repro.serving import ScoreIndex
from repro.store import ArtifactStore
from repro.utils.telemetry import RunLogger, read_run_log

import hostspeed
import serve
from tracing import Tracer

#: Set-up steps are repeated this many times per run; set-up times are medians.
SETUP_REPEATS = 3
#: The CKAT training budget: epochs per training cycle.
CKAT_EPOCHS = 2
#: Training inputs of the CKAT workloads: the paper recipe's OOI build and
#: the default model/fit seed.  They do not follow ``--seed``: across model
#: seeds recall@20 after the fixed budget spreads by 10-17% (IQR over
#: median), which would hide any change in it, while with fixed inputs it is
#: an exact regression oracle and the epoch work is identical in every run.
OOI_SEED = 7
CKAT_SEED = 0
#: Evaluation and the in-memory OOI ingest take tens of milliseconds, so
#: each is repeated this many times after every epoch, to find the host's
#: fast state.  Evaluation is deterministic: every repeat after one epoch
#: must agree.
EVAL_REPEATS = 8
OOI_INGEST_REPEATS = 10
#: The nominal serving rate for the latency metrics (requests per second).
#: Each fold-in blocks the event loop for ~9 ms, and the knee (the highest
#: rate with p95 <= 50 ms) measured 600-800 req/s on a two-vCPU host when
#: its neighbours were quiet and 300-700 req/s when they were busy.  At
#: 400 req/s the busy host's p50 swung 19-36 ms with queueing behind
#: fold-ins; at 200 req/s it held at 7-9 ms.
NOMINAL_RPS = 200
#: Host probes taken at each point of a run where one is taken.
PROBES = 5


@dataclasses.dataclass
class Context:
    """What a workload gets: its seed, time budget, scratch dir and tracer.

    ``stamps`` records while the workload runs (``run.py`` opens it), and
    ``probes`` holds the host probes (see ``hostspeed.py``) taken so far.
    """

    seed: int
    seconds: float
    work: pathlib.Path
    tracer: Optional[Tracer] = None
    stamps: "CpuStamps" = dataclasses.field(default_factory=lambda: CpuStamps())
    probes: List[float] = dataclasses.field(default_factory=list)

    def probe(self, repeats: int = PROBES) -> None:
        with self.own_work("probe"):
            self.probes.extend(hostspeed.probe_s() for _ in range(repeats))

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def own_work(self, name: str):
        return self.tracer.own_work(name) if self.tracer else contextlib.nullcontext()

    def rng(self, stream_id: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, stream_id])


@dataclasses.dataclass
class Outcome:
    """A workload's measurements, operation counts and output checks."""

    metrics: Dict[str, float] = dataclasses.field(default_factory=dict)
    setup: Dict[str, float] = dataclasses.field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = dataclasses.field(default_factory=list)
    info: dict = dataclasses.field(default_factory=dict)
    server_trace: Optional[dict] = None

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)


def _timed(fn: Callable, repeats: int):
    """``(CPU clock intervals, last result)`` over ``repeats`` calls of ``fn``."""
    intervals, result = [], None
    for _ in range(repeats):
        start = time.process_time()
        result = fn()
        intervals.append((start, time.process_time()))
    return intervals, result


def _median_timed(fn: Callable, repeats: int = SETUP_REPEATS):
    """``(median CPU seconds, last result)`` over ``repeats`` calls of ``fn``."""
    intervals, result = _timed(fn, repeats)
    return statistics.median(end - start for start, end in intervals), result


class CpuStamps:
    """The process CPU clock at every call of a few layer entry points.

    A context manager: the entry points (``Optimizer.step`` and
    ``dispatch.masked_topk``) are wrapped while it is open.  The stamps cut a
    timed stage into short segments, one per optimizer step or top-k batch.
    """

    def __init__(self) -> None:
        self.stamps: List[float] = []
        self._undo: List[tuple] = []

    def __enter__(self) -> "CpuStamps":
        from repro.autograd.optim import Optimizer
        from repro.kernels import dispatch

        for owner, attr in (
            (Optimizer, "step"),
            (dispatch, "masked_topk"),
        ):
            original = getattr(owner, attr)
            self._undo.append((owner, attr, original))
            setattr(owner, attr, self._stamped(original))
        return self

    def _stamped(self, original: Callable) -> Callable:
        stamps = self.stamps

        @functools.wraps(original)
        def stamped(*args, **kwargs):
            stamps.append(time.process_time())
            return original(*args, **kwargs)

        return stamped

    def __exit__(self, *exc) -> bool:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        return False

    def _segments(self, start: float, end: float) -> List[float]:
        points = self.stamps[
            bisect.bisect_right(self.stamps, start) : bisect.bisect_left(self.stamps, end)
        ]
        points = [start, *points, end]
        return [b - a for a, b in zip(points, points[1:])]

    def fastest(self, intervals: List[tuple]) -> float:
        """CPU seconds of a stage repeated over ``intervals``, in the fast state.

        The sum over segments of each segment's fastest repeat.  A stage
        whose repeats are cut into different numbers of segments is not the
        same work each time; it falls back to the median repeat.
        """
        cuts = [self._segments(start, end) for start, end in intervals]
        if len({len(segments) for segments in cuts}) == 1:
            return sum(min(column) for column in zip(*cuts))
        return statistics.median(end - start for start, end in intervals)


class _CpuStampLogger(RunLogger):
    """A run log that also notes the process CPU clock at every event."""

    def __init__(self, path: pathlib.Path):
        super().__init__(path)
        self.stamps: List[tuple] = []

    def log(self, event: str, **fields) -> dict:
        self.stamps.append((event, time.process_time()))
        return super().log(event, **fields)

    def epoch_intervals(self) -> List[tuple]:
        """The CPU clock interval of each epoch: from the event before it to its own.

        The event before an epoch is ``run_start`` or the previous epoch's
        ``eval``, which is logged after the evaluation callback returns, so
        the callback's work is not counted.
        """
        return [
            (self.stamps[i - 1][1], now)
            for i, (event, now) in enumerate(self.stamps)
            if event == "epoch"
        ]


def _record_timings(ctx: Context, out: Outcome, **timings: float) -> None:
    """Record ``timings`` (CPU seconds) scaled to the nominal host speed (``hostspeed.py``).

    ``host_scale`` also applies to the set-up time, which ``run.py`` adds up.
    """
    factor = hostspeed.scale(ctx.probes)
    out.info["host_scale"] = factor
    out.info["fastest_probe_s"] = min(ctx.probes)
    out.info["timings_as_measured"] = timings
    out.metrics.update({name: factor * value for name, value in timings.items()})


def _epoch_seconds(log_path: pathlib.Path) -> List[float]:
    return [e["seconds"] for e in read_run_log(log_path) if e["event"] == "epoch"]


# ------------------------------------------------------------------ CKAT/OOI
def _ckat_model(ds, ckg, graph):
    model = build_model(
        "CKAT", ds, ckg, seed=CKAT_SEED, ckat_config=CKATConfig(attention_mode="batch"),
        graph=graph,
    )
    model.scoring_factors()  # warm-up: one inference propagation
    return model


def _build_ckat_ooi():
    ds = load_dataset("ooi", "full", seed=OOI_SEED)
    ds.split  # noqa: B018 - materializes trace → interactions → split
    ckg = ds.build_ckg()
    graph = ds.prepared_graph()
    return ds, ckg, graph, _ckat_model(ds, ckg, graph)


def _train_ckat(ctx: Context, out: Outcome, ds, model, tag: str):
    """One fixed-budget training cycle, evaluating after every epoch."""
    evaluator = RankingEvaluator(ds.split.train, ds.split.test, k=20)
    evals, ingests, per_epoch = [], [], []

    def between_epochs() -> dict:
        # Evaluation and the OOI ingest read the model and rebuild the
        # dataset; neither touches the training RNGs, so training is
        # bit-identical to a run without this callback.
        results = []
        intervals, _ = _timed(
            lambda: results.append(evaluator.evaluate_model(model)), EVAL_REPEATS
        )
        evals.extend(intervals)
        with ctx.span("bench.ingest"):
            intervals, _ = _timed(
                lambda: load_dataset("ooi", "full", seed=OOI_SEED).split, OOI_INGEST_REPEATS
            )
        ingests.extend(intervals)
        ctx.probe()
        per_epoch.append(results)
        return {}

    config = default_fit_config("CKAT", epochs=CKAT_EPOCHS, seed=CKAT_SEED)
    config.eval_every = 1
    log = ctx.work / f"fit-{tag}.jsonl"
    with _CpuStampLogger(log) as logger:
        fit = model.fit(ds.split.train, config, eval_callback=between_epochs, logger=logger)
    epochs = logger.epoch_intervals()
    out.info.setdefault("epoch_wall_seconds", []).extend(_epoch_seconds(log))
    out.attempted += len(epochs) + len(evals) + len(ingests)
    out.check(
        all(len(set(results)) == 1 for results in per_epoch),
        f"{tag}: repeated evaluations of one model disagree",
    )
    return epochs, evals, ingests, per_epoch[-1][0].recall, fit.final_loss


def _ckat_workload(
    ctx: Context, train_share: float, min_cycles: int, serve_share: float
) -> Outcome:
    out = Outcome()
    with ctx.span("bench.setup"):
        out.setup["build_s"], (ds, ckg, graph, model) = _median_timed(_build_ckat_ooi)
    ctx.probe()
    epochs, evals, ingests, cycles = [], [], [], []
    start = time.perf_counter()
    while len(cycles) < min_cycles or (
        time.perf_counter() - start < train_share * ctx.seconds and len(cycles) < 8
    ):
        if cycles:
            with ctx.span("bench.setup"):
                model = _ckat_model(ds, ckg, graph)
        e, v, i, recall, loss = _train_ckat(ctx, out, ds, model, f"cycle{len(cycles)}")
        epochs += e
        evals += v
        ingests += i
        cycles.append((recall, loss))
    out.check(
        len(set(cycles)) == 1,
        f"recall@20/final loss differ between cycles with the same seed: {cycles}",
    )
    out.metrics["recall_at_20"] = cycles[0][0]
    out.info["final_loss"] = cycles[0][1]
    out.info["training_cycles"] = len(cycles)
    out.info["epoch_cpu_seconds"] = [end - start for start, end in epochs]
    _serve_tail(ctx, out, model, ds.split.train, ds.split.test, serve_share)
    _record_timings(
        ctx,
        out,
        epoch_s=ctx.stamps.fastest(epochs),
        eval_s=ctx.stamps.fastest(evals),
        ingest_s=ctx.stamps.fastest(ingests),
    )
    return out


def train_ckat_ooi(ctx: Context) -> Outcome:
    return _ckat_workload(ctx, train_share=0.5, min_cycles=3, serve_share=0.3)


def serve_mixed_ooi(ctx: Context) -> Outcome:
    return _ckat_workload(ctx, train_share=0.0, min_cycles=3, serve_share=0.6)


# ------------------------------------------------------------------- serving
def _foldin_sets(test, rng: np.random.Generator, limit: int = 64) -> List[List[int]]:
    """3–20 items from each of up to ``limit`` held-out test histories."""
    degree = np.diff(test.user_offsets)
    users = np.flatnonzero(degree >= 3)
    users = rng.choice(users, size=min(limit, users.size), replace=False)
    sets = []
    for u in users:
        items = test.item_ids[test.user_offsets[u] : test.user_offsets[u + 1]]
        n = min(int(rng.integers(3, 21)), items.size)
        sets.append(sorted(int(i) for i in rng.choice(items, size=n, replace=False)))
    return sets


def _serve_tail(ctx: Context, out: Outcome, model, train, test, serve_share: float) -> None:
    """Freeze ``model`` and serve it from its own process (see ``serve.py``).

    The open-loop window lasts ``serve_share`` of the run's seconds; the
    cost pass then sends the same requests back to back.
    """
    store = ArtifactStore(ctx.work / "serving-store")
    reps = iter(range(SETUP_REPEATS))

    def freeze():
        index = ScoreIndex.from_model(model, train)
        return index.save(store, {"perfbench": "serve", "rep": next(reps)}).digest

    with ctx.span("bench.setup"):
        out.setup["freeze_s"], digest = _median_timed(freeze)
        starts = []
        for rep in range(SETUP_REPEATS):
            last = rep == SETUP_REPEATS - 1
            server = serve.ServerProcess(
                str(store.root), digest, trace=last and ctx.tracer is not None
            )
            starts.append(server.startup_cpu_s)
            if not last:
                server.stop()
        out.setup["server_start_s"] = statistics.median(starts)
    ctx.probe()
    with server:
        with ctx.own_work("plan"):
            plan = serve.make_plan(
                ctx.rng(1),
                train.num_users,
                _foldin_sets(test, ctx.rng(2)),
                NOMINAL_RPS,
                serve_share * ctx.seconds,
            )
        with ctx.span("loadgen.run"):
            load = serve.run_load(server, plan)
        server_result = server.stop()
    summary = serve.summarize(plan, load)
    with ctx.own_work("check"):
        index = ScoreIndex.by_digest(store, digest)
        errors = serve.check_responses(index, plan, load)
    del index
    shutil.rmtree(store.root, ignore_errors=True)
    out.errors += errors
    out.info["responses_checked"] = serve.checked_count(load)
    cost_status = load["cost"]["status"]
    out.attempted += summary["sent"] + len(plan.handle_sets) + len(cost_status)
    out.failed += summary["failed"] + sum(code != 200 for code in cost_status)
    out.metrics.update(serve.cpu_costs(load))
    out.info["server_fastest_probe_s"] = min(load["cost"]["probes"])
    out.info["serving"] = summary
    out.info["server_stats"] = server_result["stats"]
    out.server_trace = server_result.get("trace")


WORKLOADS = {
    "train-ckat-ooi": train_ckat_ooi,
    "serve-mixed-ooi": serve_mixed_ooi,
}
