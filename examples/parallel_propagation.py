"""Parallel CKAT propagation — exploring the paper's scaling note.

Run:  python examples/parallel_propagation.py

The paper's conclusion flags "the parallelization of the CKAT model" as
future work.  The propagation step's neighborhood sum is additive over
edges, so any edge partition yields an exact parallel schedule: shard-local
partial sums + one all-reduce.  This example:

1. builds the OOI-like CKG and a frozen-attention CKAT;
2. partitions the propagation edges with both strategies;
3. verifies the sharded step is *bitwise-equivalent in tolerance* to the
   monolithic one;
4. reports the partition quality metrics (load balance, replication factor)
   that decide real-world communication cost.
"""

import numpy as np
from scipy.sparse import coo_matrix

from repro import CKAT, CKATConfig, KnowledgeSources, load_dataset
from repro.parallel import partition_edges, sharded_segment_sum
from repro.utils.tables import TextTable


def main() -> None:
    dataset = load_dataset("ooi", scale="small", seed=21)
    ckg = dataset.build_ckg(KnowledgeSources.best())
    model = CKAT(
        dataset.split.train.num_users,
        dataset.split.train.num_items,
        ckg,
        CKATConfig(dim=32, relation_dim=32, layer_dims=(32,)),
        seed=0,
    )
    store = ckg.propagation_store
    print(ckg.describe())

    # Edge weights in store order (attention weights live in head-sorted
    # order; map them back through the sort).
    adj = model.adj
    order = np.argsort(store.heads, kind="stable")
    weights_store = np.empty(len(store))
    weights_store[order] = model._edge_weights
    emb = model.transr.entity_emb.data

    reference = coo_matrix(
        (model._edge_weights, (adj.heads, adj.tails)), shape=(adj.num_entities,) * 2
    ) @ emb

    table = TextTable(
        ["strategy", "shards", "max error", "load balance", "replication factor"],
        title="Sharded propagation: exactness and partition quality",
        float_digits=3,
    )
    for strategy in ("contiguous", "hash"):
        for shards in (2, 4, 8):
            part = partition_edges(store, num_shards=shards, strategy=strategy)
            sharded = sharded_segment_sum(store.heads, store.tails, weights_store, emb, part)
            err = float(np.abs(sharded - reference).max())
            table.add_row(
                [
                    strategy,
                    shards,
                    f"{err:.2e}",
                    part.load_balance(),
                    part.replication_factor(store.heads, store.tails),
                ]
            )
    print(table.render())
    print(
        "\nBoth strategies reproduce the monolithic result exactly; hashing"
        "\nbalances head ownership while contiguous ranges minimize shard"
        "\ncount of each head's segment.  Replication factor ≈ the all-gather"
        "\nvolume a distributed implementation would pay per layer."
    )


if __name__ == "__main__":
    main()
