"""Parallel-utilities tests: the process-pool map."""

import pytest

from repro.parallel import ProcessExecutor


def _triple(x):
    """Module-level map function (picklable for process pools)."""
    return x * 3


class TestExecutors:
    def test_process_executor_validation(self):
        with pytest.raises(ValueError):
            ProcessExecutor(max_workers=0)

    def test_process_executor_round_trip_preserves_order(self):
        items = list(range(40))
        with ProcessExecutor(max_workers=2) as pool:
            out = pool.map(_triple, items)
        assert out == [3 * i for i in items]
