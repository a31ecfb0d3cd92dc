"""Process-pool fan-out: a failure-aware ordered map.

Workers receive picklable items and results come back in submission order.
:func:`repro.experiments.runner.run_cells` maps the independent Table II–V
cells through :class:`ProcessExecutor`; nothing else in the package fans
out across processes.
"""

from __future__ import annotations

import logging
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, List, Optional, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

__all__ = ["ProcessExecutor"]

logger = logging.getLogger(__name__)


class ProcessExecutor:
    """Ordered process-pool map (requires picklable ``fn`` and items).

    ``max_workers`` defaults to the available CPU count; on single-core
    machines this is equivalent to (slightly slower than) a plain loop, but
    exercises the same code path as multi-core runs.

    ``map`` is failure-aware: a worker exception (or a hard worker crash
    that breaks the pool) is logged with the failing item's index, retried
    once in a worker, and finally re-run in-process — so one bad item
    degrades a fanned-out run to partially-serial instead of aborting it.
    Only if the in-process attempt also fails does the exception propagate.
    ``failure_count`` tallies worker-side failures observed so far.

    ``fn`` may therefore run up to three times per item, so it must be
    idempotent.
    """

    def __init__(self, max_workers: Optional[int] = None):
        workers = max_workers if max_workers is not None else (os.cpu_count() or 1)
        if workers <= 0:
            raise ValueError(f"max_workers must be positive, got {workers}")
        self._pool = ProcessPoolExecutor(max_workers=workers)
        self.max_workers = workers
        self.failure_count = 0

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        items = list(items)
        futures = []
        for item in items:
            try:
                futures.append(self._pool.submit(fn, item))
            except BrokenProcessPool as exc:
                futures.append(exc)  # pool died mid-submission; recover below
        results: List[R] = []
        for index, (item, future) in enumerate(zip(items, futures)):
            try:
                if isinstance(future, BrokenProcessPool):
                    raise future
                results.append(future.result())
            except Exception as exc:
                results.append(self._recover(fn, item, index, exc))
        return results

    def _recover(self, fn: Callable[[T], R], item: T, index: int, exc: BaseException) -> R:
        """One worker retry, then in-process fallback, for a failed item."""
        self.failure_count += 1
        logger.warning("worker failed on item %d (%r); retrying once in a worker", index, exc)
        try:
            return self._resubmit(fn, item)
        except Exception as retry_exc:
            self.failure_count += 1
            logger.warning(
                "retry for item %d failed (%r); falling back to in-process execution",
                index,
                retry_exc,
            )
            return fn(item)

    def _resubmit(self, fn: Callable[[T], R], item: T) -> R:
        """Submit one item, replacing the pool if a crash left it broken."""
        try:
            return self._pool.submit(fn, item).result()
        except BrokenProcessPool:
            logger.warning("process pool broken; restarting %d workers", self.max_workers)
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = ProcessPoolExecutor(max_workers=self.max_workers)
            return self._pool.submit(fn, item).result()

    def close(self) -> None:
        self._pool.shutdown(wait=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False
