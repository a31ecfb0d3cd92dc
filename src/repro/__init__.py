"""repro — reproduction of "Facilitating Data Discovery for Large-scale
Science Facilities using Knowledge Networks" (Qin, Rodero, Parashar;
IPDPS 2021).

The package implements, from scratch in NumPy:

- the **CKAT** recommendation model (collaborative knowledge-aware graph
  attention network) and seven baselines (BPRMF, FM, NFM, CKE, CFKG,
  RippleNet, KGCN) — :mod:`repro.models`;
- the **collaborative knowledge graph** construction of Section IV —
  :mod:`repro.kg`;
- synthetic **facility simulators** substituting the paper's proprietary
  OOI/GAGE query traces — :mod:`repro.facility`;
- the Section-III **trace analysis** (Figures 3–5) — :mod:`repro.analysis`;
- a small reverse-mode **autodiff engine** powering all models —
  :mod:`repro.autograd`;
- the **experiment harness** regenerating every table and figure of the
  paper's evaluation — :mod:`repro.experiments`;
- the **training engine** (epoch loop, resume, checkpoints) —
  :mod:`repro.train`.

Importing :mod:`repro` loads none of that: every name in ``__all__`` is
imported from its submodule on first access (PEP 562), and so is every
subpackage reached as an attribute (``repro.kg``).  A process pays only for
the layers it touches, so ``import repro.serving`` loads no model, no
experiment harness and no knowledge-graph builder.

Quickstart
----------
>>> from repro import load_dataset, run_single_model
>>> ds = load_dataset("ooi", scale="small")
>>> result = run_single_model("CKAT", ds, epochs=5)
>>> print(result.recall, result.ndcg)  # doctest: +SKIP
"""

import importlib
import os
from typing import TYPE_CHECKING

__version__ = "0.1.0"

#: Each lazily exported name -> the module it is imported from.
_EXPORTS = {
    "load_dataset": "repro.experiments.datasets",
    "BenchmarkDataset": "repro.experiments.datasets",
    "MODEL_NAMES": "repro.experiments.runner",
    "build_model": "repro.experiments.runner",
    "run_single_model": "repro.experiments.runner",
    "RankingEvaluator": "repro.eval",
    "CollaborativeKnowledgeGraph": "repro.kg",
    "KnowledgeSources": "repro.kg",
    "build_ckg": "repro.kg",
    "Recommender": "repro.models",
    "CKAT": "repro.models",
    "CKATConfig": "repro.models",
    "BPRMF": "repro.models",
    "FM": "repro.models",
    "NFM": "repro.models",
    "CKE": "repro.models",
    "CFKG": "repro.models",
    "RippleNet": "repro.models",
    "KGCN": "repro.models",
}

if TYPE_CHECKING:  # the same names, for type checkers and reprolint's resolver
    from repro.eval import RankingEvaluator
    from repro.experiments.datasets import BenchmarkDataset, load_dataset
    from repro.experiments.runner import MODEL_NAMES, build_model, run_single_model
    from repro.kg import CollaborativeKnowledgeGraph, KnowledgeSources, build_ckg
    from repro.models import (
        BPRMF,
        CFKG,
        CKAT,
        CKE,
        FM,
        KGCN,
        NFM,
        CKATConfig,
        Recommender,
        RippleNet,
    )

__all__ = [
    "__version__",
    "load_dataset",
    "BenchmarkDataset",
    "MODEL_NAMES",
    "build_model",
    "run_single_model",
    "RankingEvaluator",
    "CollaborativeKnowledgeGraph",
    "KnowledgeSources",
    "build_ckg",
    "Recommender",
    "CKAT",
    "CKATConfig",
    "BPRMF",
    "FM",
    "NFM",
    "CKE",
    "CFKG",
    "RippleNet",
    "KGCN",
]


def __getattr__(name: str):
    """Import an exported name or a subpackage on first access."""
    module_name = _EXPORTS.get(name)
    if module_name is not None:
        value = getattr(importlib.import_module(module_name), name)
        globals()[name] = value
        return value
    full_name = f"{__name__}.{name}"
    try:
        return importlib.import_module(full_name)
    except ModuleNotFoundError as exc:
        if exc.name != full_name:
            raise  # the subpackage exists but one of its imports failed
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return list(__all__)


# Honor REPRO_SANITIZE: instrument the autograd engine for NaN/Inf, shape,
# and dtype-upcast detection (see repro.analysis.sanitizer, which parses the
# value).  Unset, the sanitizer is not even imported.
if os.environ.get("REPRO_SANITIZE"):
    importlib.import_module("repro.analysis.sanitizer").install_from_env()
