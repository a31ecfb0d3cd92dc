"""Async handlers: blocking-call and lock-discipline cases for RPL013."""

import asyncio
import io
import threading
import time

from proj.utils import slow_io


class Counter:
    """Owns a lock; writes outside it from handler-reachable code violate."""

    def __init__(self):
        self._lock = threading.Lock()
        self.total = 0

    def bump(self):
        self.total += 1  # expect: RPL013

    def bump_locked(self):
        with self._lock:
            self.total += 1


class Journal:
    """Writes through a file handle opened at construction."""

    def __init__(self, path):
        self._fh = open(path, "a")
        self._buf = io.StringIO()

    def append(self, line):
        self._fh.write(line)  # expect: RPL013

    def append_buffered(self, line):
        self._buf.write(line)


async def log_handler(journal: Journal, line):
    journal.append(line)
    journal.append_buffered(line)


async def handler(path):
    time.sleep(0.1)  # expect: RPL013
    data = slow_io(path)  # expect: RPL013
    c = Counter()
    c.bump()
    c.bump_locked()
    return data


async def handler_ok(path):
    await asyncio.to_thread(slow_io, path)
    await asyncio.sleep(0.01)
    return None


async def handler_suppressed():
    time.sleep(0.2)  # reprolint: disable=RPL013
    return None
