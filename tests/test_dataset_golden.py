"""Golden digests of the generated datasets: any change to their bits fails here.

Every table, benchmark and cached artifact starts from the trace → split →
CKG chain that ``load_dataset`` builds.  This pins the sha256 of the trace,
the train/test split and the CKG triples for ooi and gage at ``small`` and
ooi at ``full`` (seed 0), so a change that moves a single bit of them —
an RNG draw consumed in a different order, a reordered sum — fails loudly
instead of silently shifting every published number.
"""

import hashlib

import numpy as np
import pytest

from repro.experiments.datasets import load_dataset


def _digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


#: sha256 of (trace, split, CKG triples) at seed 0, recorded with the
#: per-user ``rng.choice`` trace draw (``tests/trace_oracle.py``).  A change
#: here changes every dataset and published number downstream: regenerate
#: them together.
GOLDEN = {
    ("ooi", "small"): (
        "f7110ef467a3e547d2517998e2480db06f006dd737c84878f2af39c4479f9668",
        "e639082b70169f5cd7df0c549da7a916824e9bc8755dc2f6c2a97ecd7b9bf2eb",
        "db6b264e1f947dbf9a68389cb3e2499a90b6c81b109c23ffc657ec9fbeac1d45",
    ),
    ("gage", "small"): (
        "819a59bc31f0cafd168513ba039cd6776e00494c0efce713843157a4eb8d8911",
        "88b4f5fae6d099fd66acff1a5d7e9d4d2cdaf16e48aac625543b76d136184d1c",
        "10dab16dec2ff51b6c5b996ac126d491b1a0859a8b5512e967fd180e8df8b39c",
    ),
    ("ooi", "full"): (
        "20980e8af394a1e428d0e7f9edea01ad6320e7b4f3285e84aafabb475190e0c8",
        "a1cd478323e65c0abc7396230f06947324328ff9ca7cf04dc66ba55bef6a6417",
        "4c443a86c1ff23eba4c12459481a348994aad3e63847dd91a79c332b12cb283f",
    ),
}


@pytest.mark.parametrize("name,scale", sorted(GOLDEN))
def test_dataset_digests_pinned(name, scale):
    ds = load_dataset(name, scale, seed=0)
    trace, split, store = ds.trace, ds.split, ds.build_ckg().store
    got = (
        _digest(trace.user_ids, trace.object_ids, trace.timestamps),
        _digest(
            split.train.user_ids, split.train.item_ids, split.test.user_ids, split.test.item_ids
        ),
        _digest(store.heads, store.rels, store.tails),
    )
    assert got == GOLDEN[(name, scale)]
