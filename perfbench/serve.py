"""Serving phase: the recommend server in its own process, driven two ways.

Run as a script this module is the server process::

    python3 perfbench/serve.py --store DIR --digest HEX [--trace 1]

It loads the frozen :class:`~repro.serving.ScoreIndex` from the artifact
store, serves it with :class:`~repro.serving.RecommendServer`, prints
``{"port": P, "cpu_s": C}`` once listening (``C`` is the CPU time its
start-up took), and on end of standard input stops and prints one JSON line
with the service's stats and, when traced, its spans.  Its ``/stats`` also
reports the process CPU clock, the CPU seconds of every fold-in so far and
a host probe (``hostspeed.py``).

Imported, it supplies :class:`ServerProcess` (spawn/stop that process),
:func:`make_plan` (the seeded requests) and :func:`run_load`, which drives
the plan twice:

* an open-loop window: each request is sent at its due time however many
  are outstanding and timed from when it was due, so a stall shows in every
  request it delays.  It gives the latencies and the responses checked.
* a closed-loop cost pass: the same requests back to back over one
  connection, with the server's CPU clock read between chunks of them.  It
  gives the CPU each request costs the server.

The bounded serving metrics are CPU costs, not latencies: wall-clock
latency on a shared host follows the neighbours (the p50 of the same load
spread by 50-120% between runs).  The CPU clock does not advance while the
process waits for a core.  In the cost pass one request is in flight, so
every ``/recommend`` is scored alone and the work per request does not
depend on how requests happened to coincide, and the server is kept busy
(under the sparse open-loop load one fold-in's CPU read 4.5 or 7.6 ms
depending on what else ran on the host).
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import asyncio  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import selectors  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from typing import Dict, List, Sequence  # noqa: E402

import hostspeed  # noqa: E402

#: Keep-alive connections the generator spreads requests over.  The server
#: answers one request at a time per connection, so this caps the batch the
#: server can form; the generator queues requests that find every
#: connection busy, and that wait counts in their latency.
CONNECTIONS = 8
#: Share of requests of each kind.
MIX = {"user": 0.90, "foldin": 0.05, "handle": 0.05}
#: Handles minted before the timed window, reused by ``/recommend?handle=``.
NUM_HANDLES = 8
#: Latencies are kept out of the bounded end-to-end metrics: on a shared
#: two-vCPU host their run-to-run spread (IQR over median) measured 34-83%
#: for p95 and p99 and 50-120% for p50.  They are reported per run and in
#: traced runs.
TAIL = 0.95
#: Requests per chunk of the cost pass: ~25 ms of server CPU, shorter than
#: the host's fast and slow spells (see ``hostspeed.py``).
COST_CHUNK = 32
#: Every SAMPLE_EVERY-th request's response is kept and checked against a
#: fresh service.
SAMPLE_EVERY = 16


# ------------------------------------------------------------ server process
def _server_main(argv: Sequence[str]) -> int:
    import argparse

    parser = argparse.ArgumentParser(description="recommend server for the benchmark")
    parser.add_argument("--store", required=True)
    parser.add_argument("--digest", required=True)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args(argv)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from tracing import Tracer, install_shims

    from repro.serving import RecommendService, ScoreIndex
    from repro.store import ArtifactStore

    tracer = None
    if args.trace:
        tracer = Tracer()
        install_shims(tracer)
        # Time the event loop spends blocked waiting for sockets, so that
        # idle time is not reported as unattributed residual.
        tracer.wrap(selectors.DefaultSelector, "select", "serving.loop_wait")
    with tracer.span("server") if tracer else contextlib.nullcontext():
        index = ScoreIndex.by_digest(ArtifactStore(args.store), args.digest)
        if index is None:
            raise SystemExit(f"index {args.digest} not found in {args.store}")
        service = RecommendService(index)
        _report_cpu(service)
        asyncio.run(_serve(service))
    result = {"stats": service.stats()}
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.export(PROCESS_START)
    print(json.dumps(result), flush=True)
    return 0


def _report_cpu(service) -> None:
    """Add the process CPU clock, each fold-in's CPU seconds and a host probe
    (``hostspeed.py``) to ``/stats``.

    The probe runs first; ``probe_cpu_s`` is all the CPU it took, which the
    reader subtracts from the CPU since the previous ``/stats``.
    """
    foldin_cpu: List[float] = []
    fold_in, stats = service.fold_in, service.stats

    def timed_fold_in(item_ids):
        start = time.thread_time()
        try:
            return fold_in(item_ids)
        finally:
            foldin_cpu.append(time.thread_time() - start)

    def stats_with_cpu() -> dict:
        start = time.process_time()
        probe = hostspeed.probe_s()
        cpu = time.process_time()
        return {
            **stats(),
            "cpu_s": cpu,
            "probe_s": probe,
            "probe_cpu_s": cpu - start,
            "foldin_cpu_s": list(foldin_cpu),
        }

    service.fold_in = timed_fold_in
    service.stats = stats_with_cpu


async def _serve(service) -> None:
    from repro.serving import RecommendServer

    server = RecommendServer(service, port=0)
    _host, port = await server.start()
    print(json.dumps({"port": port, "cpu_s": time.process_time()}), flush=True)
    loop = asyncio.get_running_loop()
    stdin = asyncio.StreamReader()
    await loop.connect_read_pipe(lambda: asyncio.StreamReaderProtocol(stdin), sys.stdin)
    await stdin.read()  # until the parent closes our standard input
    await server.stop()


class ServerProcess:
    """The server script as a child process; a context manager that stops it."""

    START_TIMEOUT_S = 60.0

    def __init__(self, store_root: str, digest: str, trace: bool):
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        self.proc = subprocess.Popen(
            [
                sys.executable,
                os.path.abspath(__file__),
                "--store",
                store_root,
                "--digest",
                digest,
                "--trace",
                str(int(trace)),
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
        )
        try:
            ready = json.loads(self._readline(self.START_TIMEOUT_S))
            self.port = int(ready["port"])
            #: CPU seconds the server process took to start listening.
            self.startup_cpu_s = float(ready["cpu_s"])
        except BaseException:
            self.kill()
            raise

    def _readline(self, timeout: float) -> bytes:
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            if not sel.select(timeout):
                raise TimeoutError("server process did not report its port")
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"server process exited with code {self.proc.wait()}")
        return line

    def stop(self) -> dict:
        """Close stdin, collect the server's final JSON line, reap the process."""
        try:
            out, _ = self.proc.communicate(timeout=60)  # closes stdin first
        except BaseException:
            self.kill()
            raise
        if self.proc.returncode != 0:
            raise RuntimeError(f"server process exited with code {self.proc.returncode}")
        return json.loads(out.decode("utf-8").strip().splitlines()[-1])

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc) -> bool:
        self.kill()
        return False


# ------------------------------------------------------------------ the plan
@dataclasses.dataclass
class Plan:
    """The seeded load: handle item sets and one open-loop window.

    Requests are due at ``due`` seconds from the window's start.
    """

    handle_sets: List[List[int]]
    due: List[float]
    requests: List[dict]


def make_plan(
    rng, num_users: int, foldin_sets: List[List[int]], rate: float, seconds: float
) -> Plan:
    """A Poisson schedule conditioned on ``round(rate * seconds)`` arrivals.

    Conditioning on the count makes every run offer exactly its nominal load.
    """
    picks = rng.choice(len(foldin_sets), size=NUM_HANDLES, replace=False)
    kinds = list(MIX)
    n = max(1, int(round(rate * seconds)))
    due = sorted(rng.uniform(0.0, seconds, size=n).tolist())
    drawn = rng.choice(len(kinds), size=n, p=[MIX[k] for k in kinds])
    users = rng.integers(0, num_users, size=n)
    ks = rng.choice([10, 20], size=n)
    sets = rng.integers(0, len(foldin_sets), size=n)
    handles = rng.integers(0, NUM_HANDLES, size=n)
    requests = []
    for i in range(n):
        kind = kinds[drawn[i]]
        if kind == "user":
            requests.append({"kind": kind, "user": int(users[i]), "k": int(ks[i])})
        elif kind == "handle":
            requests.append({"kind": kind, "set": int(handles[i]), "k": int(ks[i])})
        else:
            requests.append({"kind": kind, "items": foldin_sets[int(sets[i])]})
    return Plan([foldin_sets[i] for i in picks], due, requests)


# ------------------------------------------------------------- the generator
async def _send(client, request: dict, handles: List[str]):
    if request["kind"] == "foldin":
        return await client.fold_in(request["items"])
    if request["kind"] == "handle":
        return await client.recommend(handle=handles[request["set"]], k=request["k"])
    return await client.recommend(user=request["user"], k=request["k"])


async def _run_window(clients, plan: Plan, handles: List[str]) -> dict:
    loop = asyncio.get_running_loop()
    n = len(plan.requests)
    latency = [0.0] * n
    status = [0] * n
    late = [0.0] * n
    samples: Dict[int, dict] = {}
    queue: asyncio.Queue = asyncio.Queue()
    start = loop.time() + 0.01

    async def dispatch() -> None:
        for i, due in enumerate(plan.due):
            wait = start + due - loop.time()
            if wait > 0:
                await asyncio.sleep(wait)
            late[i] = loop.time() - (start + due)
            queue.put_nowait(i)
        for _ in clients:
            queue.put_nowait(None)

    async def worker(client) -> None:
        while True:
            i = await queue.get()
            if i is None:
                return
            request = plan.requests[i]
            try:
                code, body = await _send(client, request, handles)
            except (OSError, asyncio.IncompleteReadError, ValueError):
                code, body = -1, {}
                await client.close()  # reconnects on the next request
            latency[i] = loop.time() - (start + plan.due[i])
            status[i] = code
            if code == 200 and (i % SAMPLE_EVERY == 0 or request["kind"] == "foldin"):
                samples[i] = body

    await asyncio.gather(dispatch(), *(worker(c) for c in clients))
    return {"latency": latency, "status": status, "late": late, "samples": samples}


async def _run_load(port: int, plan: Plan) -> dict:
    from repro.serving.client import ServingClient

    clients = [await ServingClient("127.0.0.1", port).connect() for _ in range(CONNECTIONS)]
    try:
        handles = []
        for items in plan.handle_sets:  # untimed: mint the handles
            code, body = await clients[0].fold_in(items)
            if code != 200:
                raise RuntimeError(f"fold-in warm-up failed with status {code}: {body}")
            handles.append(body["handle"])
        window = await _run_window(clients, plan, handles)
        cost = await _cost_pass(clients[0], plan, handles)
    finally:
        for client in clients:
            await client.close()
    return {"handles": handles, **window, "cost": cost}


async def _cost_pass(client, plan: Plan, handles: List[str]) -> dict:
    """The plan's requests back to back over one connection, in chunks.

    ``/stats`` is read between chunks, so each chunk records the server's CPU
    for its requests and the CPU of each fold-in in it.
    """
    _code, before = await client.get("/stats")
    chunks, status, probes = [], [], [before["probe_s"]]
    for first in range(0, len(plan.requests), COST_CHUNK):
        requests = plan.requests[first : first + COST_CHUNK]
        for request in requests:
            try:
                code, _body = await _send(client, request, handles)
            except (OSError, asyncio.IncompleteReadError, ValueError):
                code = -1
                await client.close()  # reconnects on the next request
            status.append(code)
        _code, after = await client.get("/stats")
        chunks.append(
            {
                "recommends": sum(r["kind"] != "foldin" for r in requests),
                "cpu_s": after["cpu_s"] - before["cpu_s"] - after["probe_cpu_s"],
                "foldin_cpu_s": after["foldin_cpu_s"][len(before["foldin_cpu_s"]) :],
            }
        )
        probes.append(after["probe_s"])
        before = after
    return {"chunks": chunks, "status": status, "probes": probes}


def run_load(server: ServerProcess, plan: Plan) -> dict:
    """Drive the plan against ``server``; returns raw records.

    For the duration this process's garbage collector is off, so that a
    collection of the trainer's heap cannot stall the generator.  (Pinning
    server and generator to separate CPUs was tried and dropped: when
    another task lands on the server's CPU the scheduler can no longer move
    the server away, and one run in ten collapsed at the nominal rate.)
    """
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        return asyncio.run(_run_load(server.port, plan))
    finally:
        gc.enable()
        gc.unfreeze()


# ------------------------------------------------------------------- results
def _quantile(values: List[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def summarize(plan: Plan, load: dict) -> dict:
    """End-to-end serving metrics from the generator's records."""
    rec = [lat for lat, r in zip(load["latency"], plan.requests) if r["kind"] != "foldin"]
    fold = [lat for lat, r in zip(load["latency"], plan.requests) if r["kind"] == "foldin"]
    return {
        "recommend_p50_ms": 1e3 * _quantile(rec, 0.50),
        "recommend_p95_ms": 1e3 * _quantile(rec, TAIL),
        "recommend_p99_ms": 1e3 * _quantile(rec, 0.99),
        "foldin_p50_ms": 1e3 * _quantile(fold, 0.50),
        "recommend_samples": len(rec),
        "foldin_samples": len(fold),
        "sent": len(load["latency"]),
        "failed": sum(code != 200 for code in load["status"]),
        # How late the generator sent requests, 99th percentile.
        "late_ms": 1e3 * _quantile(load["late"], 0.99),
        "mean_recommend_latency_ms": 1e3 * sum(rec) / len(rec),
    }


def cpu_costs(load: dict) -> dict:
    """The server's CPU cost of a request, from the cost pass, in the fast state.

    ``recommend_cpu_ms`` is a chunk's server CPU, less the CPU inside its
    fold-ins, per ``/recommend`` request in it (HTTP handling and scoring),
    for the cheapest chunk.  ``foldin_cpu_ms`` is the cheapest fold-in.
    Both are scaled by the server's probes (see ``hostspeed.py``).
    """
    cost = load["cost"]
    chunks = cost["chunks"]
    factor = hostspeed.scale(cost["probes"])
    return {
        "recommend_cpu_ms": factor
        * 1e3
        * min(
            (c["cpu_s"] - sum(c["foldin_cpu_s"])) / c["recommends"]
            for c in chunks
            if c["recommends"]
        ),
        "foldin_cpu_ms": factor * 1e3 * min(s for c in chunks for s in c["foldin_cpu_s"]),
    }


def check_responses(index, plan: Plan, load: dict) -> List[str]:
    """Compare sampled responses with a fresh service over the same index.

    Returns a list of mismatch descriptions (empty when every checked
    response is bit-identical, ids and scores, and every handle repeats).
    """
    from repro.serving import RecommendService

    fresh = RecommendService(index)
    errors = []
    handles = [fresh.fold_in(items) for items in plan.handle_sets]
    if handles != load["handles"]:
        errors.append("minted fold-in handles differ from a fresh service's")
    for i, body in sorted(load["samples"].items()):
        request = plan.requests[i]
        if request["kind"] == "foldin":
            if body.get("handle") != fresh.fold_in(request["items"]):
                errors.append(f"request {i}: fold-in handle differs")
            continue
        if request["kind"] == "user":
            query = {"user": request["user"], "k": request["k"]}
        else:
            query = {"handle": handles[request["set"]], "k": request["k"]}
        if fresh.recommend_one(query) != body:
            errors.append(f"request {i}: response differs from recommend_one")
    return errors


def checked_count(load: dict) -> int:
    return len(load["samples"]) + len(load["handles"])


if __name__ == "__main__":
    raise SystemExit(_server_main(sys.argv[1:]))
