"""The repository benchmark: one command, two seeded workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload train-ckat-ooi --seed 1 --seconds 26 --trace 0

``--trace 0`` measures the end-to-end metrics listed in ``BENCHMARK.json``,
whose timings are CPU seconds of the process doing the work (see
``workloads.py`` for why); ``--trace 1`` runs the workload with span shims
installed (see ``tracing.py``) and reports the per-layer metrics, a
per-layer self-time tree, the residual and the tracing overhead.  Every run
checks its outputs; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Each run also
appends its full record, stamped with the run conditions, to
``.perfbench/results.jsonl``, which ``report.py`` reads.

BLAS is pinned to one thread in this process and in the server process it
starts, so server, load generator and trainer together stay within two
cores.
"""

from __future__ import annotations

import os
import sys
import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from collections import defaultdict  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = ROOT / ".perfbench" / "results.jsonl"
#: The sum check: layer self times plus residual must match the traced wall.
SUM_TOLERANCE = 0.05


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def peak_rss_mb() -> dict:
    """``ru_maxrss`` of this process and the largest of its reaped children."""
    return {
        "self": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "children": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }


def import_cpu_seconds(repeats: int) -> list:
    """CPU time of a fresh interpreter importing the benchmark and the layers."""
    code = "import sys; sys.path[:0] = sys.argv[1:]; import workloads"

    def children_cpu() -> float:
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        return usage.ru_utime + usage.ru_stime

    times = []
    for _ in range(repeats):
        start = children_cpu()
        subprocess.run([sys.executable, "-c", code, str(ROOT / "src"), str(HERE)], check=True)
        times.append(children_cpu() - start)
    return times


# ----------------------------------------------------------------- conditions
def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else None
    return ref


def conditions(args) -> dict:
    """What a result depends on besides the code: machine, libraries, inputs."""
    import numpy as np

    from repro.kernels import dispatch

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    nproc = len(os.sched_getaffinity(0))
    backends = dispatch.available_backends()
    return {
        "nproc": nproc,
        "blas": {
            "vendor": blas.get("name"),
            "version": blas.get("version"),
            "threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        },
        "kernel_backend": dispatch.get_backend(),
        "available_backends": list(backends),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_sha": _git_sha(),
        "source_digest": _source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        # Gates this machine cannot run are recorded, never left out.
        "gates": {
            "data_parallel_speedup_4core": {
                "verified": False,
                "reason": f"needs >= 4 cores, this machine has {nproc}",
            }
            if nproc < 4
            else {"verified": False, "reason": "not run by this benchmark"},
            "numba_backend": {
                "verified": "numba" in backends,
                "reason": "numba imports and passes its self-check"
                if "numba" in backends
                else "numba is not installed",
            },
        },
    }


# -------------------------------------------------------------------- tracing
def layer_metrics(spec: dict, main: dict, server, outcome, overhead_s: float):
    """Per-layer metric values from both processes' spans and counters."""
    from tracing import accounting, self_times

    selfs = defaultdict(float)
    counts = defaultdict(float)
    residual = 0.0
    for trace in (main, server):
        if trace is None:
            continue
        for name, seconds in self_times(trace["spans"]).items():
            selfs[name] += seconds
        for name, value in trace["counts"].items():
            counts[name] += value
        residual += accounting(trace)[0]["residual"]
    serving = outcome.info["serving"]
    stats = outcome.info["server_stats"]
    cache = stats["user_cache"]
    batch_ms = 1e3 * counts["serving.batch_request_s"] / max(counts["serving.batch_requests"], 1)
    derived = {
        "residual_s": residual,
        "trace_overhead_s": overhead_s,
        "serving.batches": stats["batches"],
        "serving.mean_batch": stats["requests_served"] / max(stats["batches"], 1),
        "serving.user_cache_hit_ratio": cache["hits"] / max(cache["hits"] + cache["misses"], 1),
        # Estimate: nominal-rate client latency minus the request-weighted
        # recommend_many time of the batches requests rode in.
        "serving.queue_wait_ms": serving["mean_recommend_latency_ms"] - batch_ms,
        "loadgen.sent": serving["sent"],
        "loadgen.failed": serving["failed"],
        "loadgen.late_ms": serving["late_ms"],
        "loadgen.recommend_p50_ms": serving["recommend_p50_ms"],
        "loadgen.foldin_p50_ms": serving["foldin_p50_ms"],
        "loadgen.recommend_p95_ms": serving["recommend_p95_ms"],
        "loadgen.recommend_p99_ms": serving["recommend_p99_ms"],
    }
    values = {}
    for metric in spec["per_layer"]:
        name = metric["name"]
        if name in derived:
            value = derived[name]
        elif name.endswith("_s"):
            value = selfs.get(name[:-2], 0.0)
        else:
            value = counts.get(name, 0.0)
        values[name] = {"value": float(value), "unit": metric["unit"]}
    return values


def sum_check(title: str, trace: dict) -> tuple:
    """Layer self times + residual against the process wall clock; (text, ok)."""
    from tracing import accounting

    by_layer, wall = accounting(trace)
    total = sum(by_layer.values())
    ok = abs(total - wall) <= SUM_TOLERANCE * wall
    verdict = "ok" if ok else "MISMATCH"
    lines = [
        f"{title}: process wall {wall:.3f} s, layers + residual {total:.3f} s ({verdict})"
    ]
    for layer, seconds in sorted(by_layer.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {layer:<12} {seconds:>9.4f} s {100 * seconds / wall:>6.1f}%")
    return "\n".join(lines), ok


# ----------------------------------------------------------------------- main
def run_workload(name: str, ctx):
    from workloads import WORKLOADS

    start = time.perf_counter()
    with ctx.stamps:
        outcome = WORKLOADS[name](ctx)
    return outcome, time.perf_counter() - start


def traced_run(spec: dict, args, ctx_factory):
    """The workload under span shims; returns (outcome, metrics, report, ok)."""
    from tracing import Tracer, install_shims, render_tree, span_cost_s

    tracer = Tracer()
    install_shims(tracer)
    try:
        with tracer.span("run"):
            outcome, wall = run_workload(args.workload, ctx_factory(tracer))
    finally:
        tracer.uninstall()
    main_trace = tracer.export(PROCESS_START)
    server_trace = outcome.server_trace
    # Tracing overhead: spans recorded times the measured cost of one shimmed
    # call.  (Differencing a traced and an untraced run measures host noise:
    # whole runs on this class of shared host differ by 10-30%.)
    spans = len(main_trace["spans"]) + (len(server_trace["spans"]) if server_trace else 0)
    overhead_s = spans * span_cost_s()
    metrics = layer_metrics(spec, main_trace, server_trace, outcome, overhead_s)
    report, ok = [], True
    for title, trace in (("benchmark process", main_trace), ("server process", server_trace)):
        if trace is not None:
            text, fits = sum_check(title, trace)
            report += [render_tree(f"span tree, {title}", trace["spans"]), text]
            ok &= fits
    report.append(
        f"residual_s {metrics['residual_s']['value']:.4f}  "
        f"trace_overhead_s {overhead_s:.4f} ({spans} spans; traced wall {wall:.3f} s)"
    )
    return outcome, metrics, report, ok


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description="repository benchmark")
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no source tree at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    # Before numpy loads BLAS; the server process inherits the environment.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    # Stages must be built, not loaded from a cache a previous run left behind.
    os.environ.pop("REPRO_CACHE_DIR", None)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads  # imports numpy and the repro layers

    setup = {"first_import_s": time.perf_counter() - PROCESS_START}
    work = ROOT / ".perfbench" / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            outcome, metrics, report, ok = traced_run(
                spec,
                args,
                lambda tracer: workloads.Context(args.seed, args.seconds, work, tracer),
            )
            if not ok:
                outcome.errors.append(
                    "layer self times + residual differ from wall by more than 5%"
                )
        else:
            outcome, _wall = run_workload(
                args.workload, workloads.Context(args.seed, args.seconds, work)
            )
            rss = peak_rss_mb()  # before the import samples' interpreters
            # The first import above may read cold files; the set-up metric
            # takes the median of repeated imports in fresh interpreters.
            setup["import_s"] = statistics.median(import_cpu_seconds(workloads.SETUP_REPEATS))
            values = dict(outcome.metrics)
            values["setup_s"] = outcome.info["host_scale"] * (
                setup["import_s"] + sum(outcome.setup.values())
            )
            values["peak_rss_mb"] = max(rss.values())
            outcome.info["peak_rss_mb"] = rss
            metrics = {
                m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                for m in spec["end_to_end"]
            }
            report = []
    finally:
        shutil.rmtree(work, ignore_errors=True)

    stamp = conditions(args)
    setup.update(outcome.setup)
    print(f"conditions {json.dumps(stamp, sort_keys=True)}")
    print(f"setup {json.dumps(setup, sort_keys=True)}")
    print(f"workload {json.dumps(outcome.info, sort_keys=True, default=str)}")
    for line in report:
        print(line)
    for error in outcome.errors:
        print(f"CHECK FAILED: {error}")
    result = {
        "correct": not outcome.errors,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "conditions": stamp,
        "setup": setup,
        "info": outcome.info,
        "errors": outcome.errors,
        "result": result,
    }
    RESULTS.parent.mkdir(parents=True, exist_ok=True)
    with RESULTS.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, default=str) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
