"""The float64 test reference of a CKAT model.

CKAT trains in float32 (``PARAM_DTYPE`` in :mod:`repro.models.ckat.model`).
Tests and benchmarks that assert float64-precision identities on a CKAT —
fused == oracle parity, attention rows summing to 1 at 1e-9 — build the
model, then cast it to float64 here.
"""

import numpy as np

from repro.autograd import no_grad


def float64_ckat(model):
    """Cast ``model``'s parameters to float64 in place and return the model.

    The frozen attention is recomputed from the cast tables, so the result
    is the float64 model of the same initial values.
    """
    with no_grad():
        for p in model.parameters():
            p.data = p.data.astype(np.float64)
    model.refresh_attention()
    return model
