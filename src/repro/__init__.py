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
- **data-parallel training** (the paper's future-work note) —
  :mod:`repro.train`.

Quickstart
----------
>>> from repro import load_dataset, run_single_model
>>> ds = load_dataset("ooi", scale="small")
>>> result = run_single_model("CKAT", ds, epochs=5)
>>> print(result.recall, result.ndcg)  # doctest: +SKIP
"""

from repro.analysis.sanitizer import install_from_env as _install_sanitizer_from_env
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

__version__ = "0.1.0"

# Honor REPRO_SANITIZE=1: instrument the autograd engine for NaN/Inf, shape,
# and dtype-upcast detection (see repro.analysis.sanitizer).
_install_sanitizer_from_env()

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
