"""Parallel execution utilities.

The paper's conclusion names "the parallelization of the CKAT model" as
future work; this subpackage implements the single-node building blocks:

- :mod:`~repro.parallel.executor` — a map abstraction with serial and
  process-pool backends (chunked, ordered);
- :mod:`~repro.parallel.partition` — edge partitioning for the CKG
  (contiguous ranges and hashed assignment, with replication statistics);
- :mod:`~repro.parallel.sharded` — the shard-local neighbor sum: the fused
  propagation kernel per shard plus an all-reduce-style combine, verified
  against the monolithic propagation (the A2 ablation bench measures
  partition quality).

On a single-core machine the process backend degenerates gracefully; the
point of these modules is to make the partitioned *algorithm* testable —
shard-combined results must equal the monolithic ones up to the
reassociation of each head's sum across shards.
"""

from repro.parallel.executor import MapExecutor, ProcessExecutor, SerialExecutor
from repro.parallel.partition import EdgePartition, partition_edges
from repro.parallel.sharded import sharded_segment_sum

__all__ = [
    "MapExecutor",
    "SerialExecutor",
    "ProcessExecutor",
    "EdgePartition",
    "partition_edges",
    "sharded_segment_sum",
]
