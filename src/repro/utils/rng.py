"""Random-number-generator plumbing.

Every stochastic component in this repository (facility simulators, trace
generators, negative samplers, initializers, dropout) takes either an integer
seed or a :class:`numpy.random.Generator`.  These helpers normalize the two
and derive independent child generators so that adding randomness to one
component never perturbs another (a common reproducibility bug when a single
global generator is threaded through everything).
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

SeedLike = Union[int, np.random.Generator, np.random.SeedSequence]

__all__ = ["ensure_rng", "SeedSequenceFactory"]


def ensure_rng(seed: SeedLike) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    An existing generator is returned unchanged (not copied), so callers
    sharing one advance it together by design.  ``None`` raises
    ``ValueError``: it would draw OS entropy, and a run seeded that way can
    be neither repeated nor resumed.
    """
    if seed is None:
        raise ValueError(
            "ensure_rng: missing seed (got None); pass an int, a SeedSequence "
            "or a Generator"
        )
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(seed)


class SeedSequenceFactory:
    """Hands out named, reproducible child generators from a root seed.

    Two factories constructed with the same root seed produce identical
    generators for identical names, independent of request order::

        f = SeedSequenceFactory(42)
        rng_trace = f.get("trace")
        rng_model = f.get("model")
    """

    def __init__(self, root_seed: Optional[int] = 0):
        self._root = root_seed

    def get(self, name: str) -> np.random.Generator:
        """Return the generator associated with ``name``."""
        # Hash the name into spawn-key material; stable across processes
        # (unlike built-in hash(), which is salted for strings).
        key = [b for b in name.encode("utf-8")]
        ss = np.random.SeedSequence(entropy=self._root, spawn_key=tuple(key))
        return np.random.default_rng(ss)
