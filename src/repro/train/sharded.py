"""Data-parallel training over partitioned embedding tables.

:class:`ShardedExecutor` runs the engine's epoch as a sequence of
*shard-synchronous rounds*.  The sampler's contiguous user shards are
assigned to workers in contiguous blocks (so each worker owns one contiguous
user-row range); per round, every worker draws the next batch from each of
its live shards, backpropagates locally, and the resulting sparse row
gradients are reconciled deterministically:

- **Row-partitioned parameters** (the per-user tables a model declares via
  ``row_partitioned_parameters``): every gradient row belongs to exactly one
  shard, hence one worker.  The owning worker applies lazy Adam locally
  through a slice-view parameter whose ``step_count`` is synced to the
  global step, so the arithmetic is bit-identical to a master-side update —
  no row ever has two writers.
- **Shared parameters** (item/entity/relation tables): each worker coalesces
  its own gradient, the master merges worker gradients in ascending rank
  order via :meth:`SparseRowGrad.merge_`, coalesces once, and applies a
  single Adam step.  The two-level reduction (within-worker, then
  across-workers in rank order) is deterministic for a fixed worker count;
  across *different* worker counts the grouping of the summation changes,
  which reassociates floating-point addition — that is exactly why
  cross-worker-count parity is tolerance-bounded rather than bit-exact
  (DESIGN §14).

Process model: ``parallel=True`` forks long-lived workers that inherit the
parameter tables as mmap'd shared segments (:class:`repro.store.SegmentArena`)
plus preallocated gradient slabs; rounds are coordinated with semaphores
(crash-detecting timeouts — a dead or failed worker aborts the epoch
*before* the in-flight round is applied, so no gradient batch is ever
double- or partially applied to shared state; recovery is resume-from-
checkpoint).  ``parallel=False`` runs the identical two-level arithmetic
in-process — the reference used by the gradient-agreement harness, parity
tests, and single-core machines; fork and inline modes are bit-identical
for the same worker count.

Batch schedules depend only on ``(seed, epoch, shard)`` — never on the
worker count or which process draws them — so runs with different
``--workers`` consume identical batches and differ only by summation
reassociation.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.autograd import Parameter, no_grad
from repro.autograd.optim import Adam, assemble_row_sharded_state
from repro.autograd.sparse import SparseRowGrad
from repro.parallel import chunk_indices
from repro.store import SegmentArena
from repro.train.engine import FitConfig, StepExecutor, make_step_fn
from repro.utils.rng import ensure_rng

__all__ = ["ShardedExecutor"]

#: Safety factor for gradient-slab sizing: no supported model gathers more
#: than this many rows of one parameter per training example.
_ROWS_PER_EXAMPLE_BOUND = 6

#: Seconds between liveness checks while waiting on round semaphores.
_POLL_SECONDS = 0.25


def shard_stream_rng(seed: int, epoch: int, shard: int) -> np.random.Generator:
    """The deterministic RNG for one (epoch, shard) batch stream.

    Keyed only by seed/epoch/shard — any process that owns the shard
    produces identical batches, which is what makes the schedule invariant
    under the worker count.
    """
    return ensure_rng(
        np.random.SeedSequence(entropy=int(seed), spawn_key=(int(epoch), int(shard)))
    )


class _RankState:
    """One worker's compute state: owned shards, slice params, local Adam.

    Used identically by fork-mode children (each inherits its own instance)
    and by inline mode (the master iterates the instances in rank order).
    """

    def __init__(
        self,
        rank: int,
        model,
        sampler,
        config: FitConfig,
        shards: Sequence[int],
        partitioned: Sequence[int],
    ):
        self.rank = rank
        self.model = model
        self.sampler = sampler
        self.config = config
        self.shards = list(shards)
        self.partitioned = list(partitioned)
        self.params = model.parameters()
        if self.shards and self.partitioned:
            self.row_lo = sampler.shard_users(self.shards[0])[0]
            self.row_hi = sampler.shard_users(self.shards[-1])[1]
        else:
            self.row_lo = self.row_hi = 0
        self.local_params: List[Parameter] = []
        for i in self.partitioned:
            base = self.params[i]
            view = base.data[self.row_lo : self.row_hi]
            self.local_params.append(
                Parameter(view, name=f"{base.name or f'param{i}'}@rank{rank}")
            )
        self.local_adam: Optional[Adam] = (
            Adam(self.local_params, lr=config.lr)
            if self.local_params and self.row_hi > self.row_lo
            else None
        )
        self._streams: Dict[int, tuple] = {}

    # ------------------------------------------------------------- epoch API
    def start_epoch(self, epoch: int) -> None:
        self._streams = {}
        for s in self.shards:
            rng = shard_stream_rng(self.config.seed, epoch, s)
            gen = self.sampler.shard_epoch_batches(s, self.config.batch_size, rng)
            self._streams[s] = (gen, rng)

    def compute_round(self, t: int, apply_local: bool = True):
        """Run one round; returns ``(loss_sum, n_batches, grads_by_index)``.

        ``t`` is the global optimizer step this round becomes.  Gradients
        for row-partitioned parameters are applied locally (their rows are
        exclusively owned); shared-parameter gradients are coalesced and
        returned for the master's rank-ordered merge.  With
        ``apply_local=False`` (the gradient-agreement harness) partitioned
        grads are returned instead of applied.
        """
        for p in self.params:
            p.grad = None
        loss_sum, n_batches = 0.0, 0
        for s in self.shards:
            gen, rng = self._streams[s]
            batch = next(gen, None)
            if batch is None:
                continue
            a, b, c = batch
            loss = self.model.batch_loss(a, b, c, rng)
            loss.backward()
            loss_sum += float(loss.item())
            n_batches += 1
        grads: Dict[int, object] = {}
        partitioned = set(self.partitioned)
        for i, lp in zip(self.partitioned, self.local_params):
            base = self.params[i]
            g = base.grad
            base.grad = None
            lp.grad = None
            if g is None:
                continue
            if not apply_local:
                grads[i] = g.coalesce() if isinstance(g, SparseRowGrad) else g
                continue
            if isinstance(g, SparseRowGrad):
                g = g.coalesce()
                idx = g.indices
                if idx.size and (idx[0] < self.row_lo or idx[-1] >= self.row_hi):
                    raise RuntimeError(
                        f"rank {self.rank} received gradient rows outside its owned "
                        f"range [{self.row_lo}, {self.row_hi}) for parameter {i} — "
                        "row-partitioned parameters must be indexed by the sampler's "
                        "shard users only"
                    )
                lp.grad = SparseRowGrad(
                    lp.data.shape, idx - self.row_lo, g.values, coalesced=True
                )
            else:
                lp.grad = np.asarray(g)[self.row_lo : self.row_hi]
        if apply_local and self.local_adam is not None:
            # Sync to the global step so lazy-Adam decay exponents match a
            # master-side update exactly, even across rounds this worker
            # contributed nothing to.
            self.local_adam.step_count = t - 1
            self.local_adam.step()
        for i, p in enumerate(self.params):
            if i in partitioned:
                continue
            g = p.grad
            p.grad = None
            if g is None:
                continue
            grads[i] = g.coalesce() if isinstance(g, SparseRowGrad) else g
        return loss_sum, n_batches, grads

    # -------------------------------------------------- optimizer state I/O
    def collect_shard_state(self) -> List[Tuple[int, int, int, dict]]:
        """Per-row-shard Adam views: ``(param_index, lo, hi, view)`` tuples."""
        out: List[Tuple[int, int, int, dict]] = []
        if self.local_adam is None:
            return out
        for i, lp in zip(self.partitioned, self.local_params):
            out.append((i, self.row_lo, self.row_hi, self.local_adam.export_row_shard(lp)))
        return out

    def install_shard_state(self, views: Dict[int, dict], step_count: int) -> None:
        """Install this rank's slices of checkpointed optimizer state."""
        if self.local_adam is None:
            return
        for i, lp in zip(self.partitioned, self.local_params):
            view = views.get(i)
            if view is None:
                raise ValueError(
                    f"checkpoint optimizer state is missing rows "
                    f"[{self.row_lo}, {self.row_hi}) of parameter {i}"
                )
            self.local_adam.install_row_shard(lp, view)
        self.local_adam.step_count = int(step_count)


class ShardedExecutor(StepExecutor):
    """Data-parallel :class:`StepExecutor` over partitioned embedding tables.

    Parameters
    ----------
    num_workers:
        Worker (rank) count.  Shards are assigned to ranks in contiguous
        blocks via :func:`repro.parallel.chunk_indices`.
    users_per_shard:
        Shard granularity handed to the default
        :class:`~repro.data.sampling.ShardedBPRSampler`; ``None`` sizes
        shards so each worker owns two.  Ignored when ``fit`` receives an
        explicit sampler (the sampler's own layout wins).
    parallel:
        ``True`` forks worker processes over mmap'd shared segments;
        ``False`` runs the identical round arithmetic in-process
        (bit-identical results, no speedup — the reference mode).
    barrier_timeout:
        Seconds a round waits for worker results before declaring the epoch
        dead (liveness is checked every fraction of a second regardless, so
        a SIGKILLed worker is detected fast; the timeout bounds pathological
        stalls).

    Requirements: the model's ``batch_loss`` must be deterministic given the
    batch and RNG, with no private generators (``extra_rng_state() is None``)
    — auxiliary phases still run serially on the master via the engine's
    step funnel, so CKE-style alternating schedules work unchanged.
    """

    kind = "sharded"

    def __init__(
        self,
        num_workers: int,
        users_per_shard: Optional[int] = None,
        *,
        parallel: bool = True,
        barrier_timeout: float = 120.0,
        _fail_at: Optional[Tuple[int, int]] = None,
        _max_rounds: Optional[int] = None,
    ):
        if num_workers <= 0:
            raise ValueError(f"num_workers must be positive, got {num_workers}")
        if users_per_shard is not None and users_per_shard <= 0:
            raise ValueError(f"users_per_shard must be positive, got {users_per_shard}")
        self.num_workers = int(num_workers)
        self.users_per_shard = users_per_shard
        self.parallel = bool(parallel)
        self.barrier_timeout = float(barrier_timeout)
        self._fail_at = _fail_at  # test hook: (rank, round) raises in-worker
        self._max_rounds = _max_rounds  # test hook: truncate every epoch
        self._bound = False
        self._closed = False
        self._states: List[_RankState] = []
        self._events: List[dict] = []
        self._arena: Optional[SegmentArena] = None
        self._originals: Optional[List[np.ndarray]] = None
        self._procs: List = []
        self._pipes: List = []
        self._fingerprint: Optional[dict] = None

    # -------------------------------------------------------------- binding
    def default_sampler(self, train):
        from repro.data.sampling import ShardedBPRSampler  # deferred: layering

        ups = self.users_per_shard
        if ups is None:
            ups = max(1, -(-train.num_users // (2 * self.num_workers)))
        return ShardedBPRSampler(train, users_per_shard=ups)

    def fingerprint(self) -> dict:
        if self._fingerprint is None:
            raise RuntimeError("ShardedExecutor.fingerprint() requires bind() first")
        return dict(self._fingerprint)

    def bind(self, model, train, config: FitConfig, sampler, optimizer) -> None:
        if self._bound:
            raise RuntimeError("ShardedExecutor instances bind to exactly one fit()")
        for attr in ("num_shards", "shard_num_batches", "shard_epoch_batches"):
            if not hasattr(sampler, attr):
                raise ValueError(
                    f"ShardedExecutor needs a shard-addressable sampler exposing "
                    f"{attr!r} (e.g. data.ShardedBPRSampler); got {type(sampler).__name__}"
                )
        if model.extra_rng_state() is not None:
            raise NotImplementedError(
                f"{type(model).__name__} owns private RNG state (dropout generators); "
                "its batch loss is not replicable across worker processes — train it "
                "with the serial executor"
            )
        if not isinstance(optimizer, Adam):
            raise NotImplementedError(
                "ShardedExecutor implements the lazy-Adam reconciliation only; got "
                f"{type(optimizer).__name__}"
            )
        self.model = model
        self.config = config
        self.sampler = sampler
        self.params = model.parameters()
        hook = getattr(model, "row_partitioned_parameters", None)
        part_params = list(hook()) if hook is not None else []
        index_of = {id(p): i for i, p in enumerate(self.params)}
        self.partitioned = sorted(index_of[id(p)] for p in part_params)
        if self.partitioned and not hasattr(sampler, "shard_users"):
            raise ValueError(
                "row-partitioned parameters need a sampler that maps shards to row "
                "ranges (shard_users); got " + type(sampler).__name__
            )
        num_rows = sampler.shard_users(sampler.num_shards - 1)[1] if self.partitioned else None
        for i in self.partitioned:
            p = self.params[i]
            if p.data.shape[0] != num_rows:
                raise ValueError(
                    f"row-partitioned parameter {i} has {p.data.shape[0]} rows but the "
                    f"sampler's shards cover {num_rows}"
                )
        num_shards = sampler.num_shards
        chunks = chunk_indices(num_shards, self.num_workers)
        assignments: List[List[int]] = [list(c) for c in chunks]
        while len(assignments) < self.num_workers:
            assignments.append([])
        rows_per_shard = getattr(sampler, "users_per_shard", None) or getattr(
            sampler, "rows_per_shard", None
        )
        self._fingerprint = {
            "kind": self.kind,
            "workers": self.num_workers,
            "num_shards": int(num_shards),
            "rows_per_shard": int(rows_per_shard) if rows_per_shard else None,
        }
        self._shared = [i for i in range(len(self.params)) if i not in set(self.partitioned)]
        if self.parallel:
            self._setup_fork(assignments)
        else:
            self._states = [
                _RankState(w, model, sampler, config, shards, self.partitioned)
                for w, shards in enumerate(assignments)
            ]
        self._bound = True

    def _setup_fork(self, assignments: List[List[int]]) -> None:
        ctx = multiprocessing.get_context("fork")
        self._arena = SegmentArena()
        # Swap parameter buffers into shared segments *before* building the
        # rank states (their slice views must alias the segments) and before
        # forking (children inherit the mappings).
        self._originals = [p.data for p in self.params]
        with no_grad():
            for i, p in enumerate(self.params):
                p.data = self._arena.create(f"param.{i}", p.data)
        self._states = [
            _RankState(w, self.model, self.sampler, self.config, shards, self.partitioned)
            for w, shards in enumerate(assignments)
        ]
        W = self.num_workers
        self._count_slab = self._arena.create_empty(
            "grad.counts", (W, max(1, len(self._shared))), np.int64
        )
        self._loss_slab = self._arena.create_empty("loss", (W, 2), np.float64)
        self._idx_slabs: List[List[Optional[np.ndarray]]] = []
        self._val_slabs: List[List[Optional[np.ndarray]]] = []
        batch = self.config.batch_size
        for w in range(W):
            per_round = max(1, len(assignments[w]))
            idx_row: List[Optional[np.ndarray]] = []
            val_row: List[Optional[np.ndarray]] = []
            for j, i in enumerate(self._shared):
                p = self.params[i]
                cap = int(min(p.data.shape[0], _ROWS_PER_EXAMPLE_BOUND * batch * per_round))
                idx_row.append(self._arena.create_empty(f"grad.idx.{w}.{j}", (cap,), np.int64))
                val_row.append(
                    self._arena.create_empty(
                        f"grad.val.{w}.{j}", (cap,) + p.data.shape[1:], p.data.dtype
                    )
                )
            self._idx_slabs.append(idx_row)
            self._val_slabs.append(val_row)
        self._done = ctx.Semaphore(0)
        self._gos = [ctx.Semaphore(0) for _ in range(W)]
        self._abort = ctx.Value("i", 0)
        self._parent_pid = os.getpid()
        self._pipes = []
        self._child_pipes = []
        for _ in range(W):
            parent_end, child_end = ctx.Pipe()
            self._pipes.append(parent_end)
            self._child_pipes.append(child_end)
        self._procs = [
            ctx.Process(target=self._worker_loop, args=(w,), daemon=True) for w in range(W)
        ]
        for proc in self._procs:
            proc.start()
        for child_end in self._child_pipes:
            child_end.close()  # parent keeps only its ends

    # ------------------------------------------------------------ worker side
    def _worker_loop(self, rank: int) -> None:
        state = self._states[rank]
        pipe = self._child_pipes[rank]
        try:
            while True:
                cmd = pipe.recv()
                kind = cmd[0]
                if kind == "stop":
                    return
                if kind == "collect":
                    pipe.send(("shard_state", state.collect_shard_state()))
                elif kind == "install":
                    _, views, step_count = cmd
                    state.install_shard_state(views, step_count)
                    pipe.send(("installed",))
                elif kind == "epoch":
                    _, epoch, t0, rounds = cmd
                    self._worker_epoch(state, pipe, epoch, t0, rounds)
        except (EOFError, BrokenPipeError, KeyboardInterrupt):
            return

    def _worker_epoch(self, state: _RankState, pipe, epoch: int, t0: int, rounds: int) -> None:
        start = time.perf_counter()
        state.start_epoch(epoch)
        loss_total, batches_total = 0.0, 0
        for r in range(rounds):
            try:
                if self._fail_at is not None and self._fail_at == (state.rank, r):
                    raise RuntimeError(
                        f"injected worker failure (rank {state.rank}, round {r})"
                    )
                loss_sum, n_batches, grads = state.compute_round(t0 + r + 1)
                self._write_slabs(state.rank, loss_sum, n_batches, grads)
            except BaseException:
                # Report first, then release the round token so the master
                # unblocks, sees the error, and aborts WITHOUT applying the
                # round — the failed round's gradients never reach the
                # shared tables.
                pipe.send(("error", traceback.format_exc()))
                self._done.release()
                return
            self._done.release()
            if not self._wait_go(state.rank):
                return  # master aborted the epoch
            loss_total += loss_sum
            batches_total += n_batches
        pipe.send(
            (
                "epoch_done",
                [
                    {
                        "event": "worker_epoch",
                        "ts": time.time(),
                        "worker": state.rank,
                        "epoch": epoch + 1,
                        "shards": len(state.shards),
                        "rounds": rounds,
                        "batches": batches_total,
                        "loss_sum": loss_total,
                        "seconds": time.perf_counter() - start,
                    }
                ],
            )
        )

    def _wait_go(self, rank: int) -> bool:
        go = self._gos[rank]
        while True:
            if go.acquire(timeout=_POLL_SECONDS):
                return True
            if self._abort.value:
                return False
            if os.getppid() != self._parent_pid:
                return False  # master died; orphaned worker exits

    def _write_slabs(self, rank: int, loss_sum: float, n_batches: int, grads: Dict[int, object]):
        self._loss_slab[rank, 0] = loss_sum
        self._loss_slab[rank, 1] = float(n_batches)
        for j, i in enumerate(self._shared):
            g = grads.get(i)
            if g is None:
                self._count_slab[rank, j] = 0
                continue
            if not isinstance(g, SparseRowGrad):
                raise RuntimeError(
                    f"parameter {i} produced a dense gradient; fork-mode sharded "
                    "training ships sparse row grads only (run with parallel=False "
                    "or make the model emit sparse grads)"
                )
            n = int(g.indices.shape[0])
            cap = self._idx_slabs[rank][j].shape[0]
            if n > cap:
                raise RuntimeError(
                    f"gradient slab overflow for parameter {i}: {n} rows > capacity "
                    f"{cap} — the model gathers more rows per example than the "
                    f"sizing bound ({_ROWS_PER_EXAMPLE_BOUND})"
                )
            self._idx_slabs[rank][j][:n] = g.indices
            self._val_slabs[rank][j][:n] = g.values
            self._count_slab[rank, j] = n

    # ------------------------------------------------------------ master side
    def run_epoch(self, epoch: int, optimizer, rng: np.random.Generator):
        config = self.config
        extra = self.model.extra_epoch_step(make_step_fn(optimizer), rng, config)
        t0 = int(optimizer.step_count)
        num_shards = self.sampler.num_shards
        rounds = max(
            (
                self.sampler.shard_num_batches(s, config.batch_size)
                for s in range(num_shards)
            ),
            default=0,
        )
        if self._max_rounds is not None:
            rounds = min(rounds, self._max_rounds)
        if self.parallel:
            loss_total, batches_total = self._fork_epoch(epoch, t0, rounds, optimizer)
        else:
            loss_total, batches_total = self._inline_epoch(epoch, t0, rounds, optimizer)
        return loss_total / max(batches_total, 1), extra

    def _inline_epoch(self, epoch: int, t0: int, rounds: int, optimizer):
        start = time.perf_counter()
        for state in self._states:
            state.start_epoch(epoch)
        loss_total, batches_total = 0.0, 0
        per_rank = [[0.0, 0] for _ in self._states]
        for r in range(rounds):
            outs = []
            for state in self._states:
                if self._fail_at is not None and self._fail_at == (state.rank, r):
                    raise RuntimeError(
                        f"injected worker failure (rank {state.rank}, round {r})"
                    )
                outs.append(state.compute_round(t0 + r + 1))
            self._apply_round(optimizer, outs)
            for w, (loss_sum, n_batches, _) in enumerate(outs):
                loss_total += loss_sum
                batches_total += n_batches
                per_rank[w][0] += loss_sum
                per_rank[w][1] += n_batches
        seconds = time.perf_counter() - start
        now = time.time()
        for state, (loss_sum, n_batches) in zip(self._states, per_rank):
            self._events.append(
                {
                    "event": "worker_epoch",
                    "ts": now,
                    "worker": state.rank,
                    "epoch": epoch + 1,
                    "shards": len(state.shards),
                    "rounds": rounds,
                    "batches": n_batches,
                    "loss_sum": loss_sum,
                    "seconds": seconds,
                    "inline": True,
                }
            )
        return loss_total, batches_total

    def _fork_epoch(self, epoch: int, t0: int, rounds: int, optimizer):
        for pipe in self._pipes:
            pipe.send(("epoch", epoch, t0, rounds))
        loss_total, batches_total = 0.0, 0
        for r in range(rounds):
            t = t0 + r + 1
            self._await_round(t)
            outs = self._read_slabs()
            self._apply_round(optimizer, outs)
            for loss_sum, n_batches, _ in outs:
                loss_total += loss_sum
                batches_total += n_batches
            for go in self._gos:
                go.release()
        for w, pipe in enumerate(self._pipes):
            msg = self._recv_worker(w, pipe)
            if msg[0] == "error":
                self._abort_workers()
                raise RuntimeError(
                    f"training worker {w} failed at end of epoch {epoch}:\n{msg[1]}"
                )
            self._events.extend(msg[1])
        return loss_total, batches_total

    def _await_round(self, t: int) -> None:
        """Wait for every worker's round token, watching for death/failure."""
        acquired = 0
        waited = 0.0
        while acquired < self.num_workers:
            if self._done.acquire(timeout=_POLL_SECONDS):
                acquired += 1
                continue
            waited += _POLL_SECONDS
            for w, proc in enumerate(self._procs):
                if not proc.is_alive():
                    self._abort_workers()
                    raise RuntimeError(
                        f"training worker {w} (pid {proc.pid}) died before optimizer "
                        f"step {t}; the in-flight gradient batch was NOT applied — "
                        "resume from the last checkpoint"
                    )
            if waited >= self.barrier_timeout:
                self._abort_workers()
                raise RuntimeError(
                    f"training round timed out after {self.barrier_timeout:.0f}s "
                    f"before optimizer step {t}; no gradient was applied"
                )
        errors = []
        for w, pipe in enumerate(self._pipes):
            while pipe.poll():
                msg = pipe.recv()
                if msg[0] == "error":
                    errors.append((w, msg[1]))
        if errors:
            self._abort_workers()
            w, tb = errors[0]
            raise RuntimeError(
                f"training worker {w} failed before optimizer step {t}; the round's "
                f"gradients were NOT applied to shared parameters — resume from the "
                f"last checkpoint.\nworker traceback:\n{tb}"
            )

    def _read_slabs(self):
        outs = []
        for w in range(self.num_workers):
            grads: Dict[int, SparseRowGrad] = {}
            for j, i in enumerate(self._shared):
                n = int(self._count_slab[w, j])
                if n == 0:
                    continue
                p = self.params[i]
                # Slab slices are consumed (merged + coalesced + applied)
                # before this round's go tokens release the writers, so
                # aliasing the mmap here is safe.
                grads[i] = SparseRowGrad(
                    p.data.shape,
                    self._idx_slabs[w][j][:n],
                    self._val_slabs[w][j][:n],
                    coalesced=True,
                )
            outs.append((float(self._loss_slab[w, 0]), int(self._loss_slab[w, 1]), grads))
        return outs

    def _apply_round(self, optimizer, outs) -> None:
        """Merge worker gradients in rank order and apply one global step."""
        merged: Dict[int, object] = {}
        for _, _, grads in outs:  # outs is rank-ordered
            for i, g in grads.items():
                cur = merged.get(i)
                if cur is None:
                    merged[i] = g
                elif isinstance(cur, SparseRowGrad) and isinstance(g, SparseRowGrad):
                    cur.merge_(g)
                else:
                    dense_cur = cur.to_dense() if isinstance(cur, SparseRowGrad) else cur
                    dense_g = g.to_dense() if isinstance(g, SparseRowGrad) else g
                    merged[i] = dense_cur + dense_g
        for i, g in merged.items():
            self.params[i].grad = g
        optimizer.step()
        optimizer.zero_grad()

    def _abort_workers(self) -> None:
        if self._abort is not None:
            self._abort.value = 1

    # --------------------------------------------------------- state gather
    def _recv_worker(self, rank: int, pipe, timeout: float = None):
        deadline = self.barrier_timeout if timeout is None else timeout
        waited = 0.0
        while not pipe.poll(_POLL_SECONDS):
            waited += _POLL_SECONDS
            proc = self._procs[rank]
            if not proc.is_alive():
                raise RuntimeError(
                    f"training worker {rank} (pid {proc.pid}) died while the master "
                    "awaited its reply — resume from the last checkpoint"
                )
            if waited >= deadline:
                raise RuntimeError(f"training worker {rank} did not reply in {deadline:.0f}s")
        return pipe.recv()

    def optimizer_state(self, optimizer) -> dict:
        state = optimizer.state_dict()
        if not self.partitioned:
            return state
        shards_by_param: Dict[int, List[Tuple[int, int, dict]]] = {i: [] for i in self.partitioned}
        if self.parallel:
            for w, pipe in enumerate(self._pipes):
                pipe.send(("collect",))
            for w, pipe in enumerate(self._pipes):
                msg = self._recv_worker(w, pipe)
                if msg[0] != "shard_state":
                    raise RuntimeError(f"unexpected worker reply {msg[0]!r} during collect")
                for i, lo, hi, view in msg[1]:
                    shards_by_param[i].append((lo, hi, view))
        else:
            for st in self._states:
                for i, lo, hi, view in st.collect_shard_state():
                    shards_by_param[i].append((lo, hi, view))
        for i, shards in shards_by_param.items():
            assemble_row_sharded_state(state, i, shards)
        return state

    def load_optimizer_state(self, optimizer, state: dict) -> None:
        optimizer.load_state_dict(state)
        if not self.partitioned:
            return
        slots = state.get("slots", {})
        row_steps = state.get("row_steps", {})

        def _slot(buf: dict, i: int):
            if i in buf:
                return buf[i]
            if str(i) in buf:
                return buf[str(i)]
            raise ValueError(
                f"checkpoint optimizer state lacks sharded slot data for parameter {i}"
            )

        step_count = int(optimizer.step_count)
        for w in range(self.num_workers):
            state_w = self._states[w]
            if state_w.row_hi <= state_w.row_lo:
                continue
            lo, hi = state_w.row_lo, state_w.row_hi
            views: Dict[int, dict] = {}
            for i in self.partitioned:
                m_full = np.asarray(_slot(slots.get("m", {}), i))
                v_full = np.asarray(_slot(slots.get("v", {}), i))
                last_full = np.asarray(_slot(row_steps, i), dtype=np.int64)
                views[i] = {
                    "m": m_full[lo:hi],
                    "v": v_full[lo:hi],
                    "row_steps": last_full[lo:hi],
                }
            if self.parallel:
                self._pipes[w].send(("install", views, step_count))
            else:
                state_w.install_shard_state(views, step_count)
        if self.parallel:
            for w in range(self.num_workers):
                if self._states[w].row_hi <= self._states[w].row_lo:
                    continue
                msg = self._recv_worker(w, self._pipes[w])
                if msg[0] != "installed":
                    raise RuntimeError(f"unexpected worker reply {msg[0]!r} during install")

    # -------------------------------------------------------------- teardown
    def drain_worker_events(self) -> List[dict]:
        events, self._events = self._events, []
        return events

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._procs:
            self._abort_workers()
            for pipe in self._pipes:
                try:
                    pipe.send(("stop",))
                except (BrokenPipeError, OSError):
                    pass
            for proc in self._procs:
                proc.join(timeout=5)
            for proc in self._procs:
                if proc.is_alive():
                    proc.terminate()
                    proc.join(timeout=5)
            for pipe in self._pipes:
                pipe.close()
            self._procs = []
            self._pipes = []
        if self._originals is not None:
            # Copy the trained values out of the shared segments and rebind
            # the parameters to ordinary in-memory buffers before the arena
            # (and its files) go away.
            with no_grad():
                for p, orig in zip(self.params, self._originals):
                    orig[...] = p.data
                    p.data = orig
            self._originals = None
        if self._arena is not None:
            self._arena.cleanup()
            self._arena = None
