"""Recommendation models: CKAT and the seven baselines of Table II.

All models share the :class:`~repro.models.base.Recommender` interface
(``fit`` / ``score_users`` / ``recommend``) and are built on the NumPy
autodiff engine in :mod:`repro.autograd`.

- :mod:`~repro.models.bprmf` — BPRMF, collaborative filtering by pairwise
  matrix factorization (Rendle et al., 2012);
- :mod:`~repro.models.fm` — Factorization Machines over user/item/KG-entity
  features (Rendle et al., 2011);
- :mod:`~repro.models.nfm` — Neural FM with one hidden layer over the
  bi-interaction pooling (He & Chua, 2017);
- :mod:`~repro.models.cke` — Collaborative Knowledge-base Embedding, BPRMF
  regularized by TransR structural embeddings (Zhang et al., 2016);
- :mod:`~repro.models.cfkg` — TransE over the unified user–item–knowledge
  graph, scoring by translation distance (Ai et al., 2018);
- :mod:`~repro.models.ripplenet` — preference propagation over per-user
  ripple sets (Wang et al., 2018);
- :mod:`~repro.models.kgcn` — knowledge graph convolution with user-specific
  relation attention over sampled neighborhoods (Wang et al., 2019);
- :mod:`~repro.models.ckat` — the paper's model: TransR embedding layer +
  knowledge-aware attentive embedding propagation + BPR (Section V).
"""

from repro.models.base import FitConfig, FitResult, Recommender
from repro.models.bprmf import BPRMF
from repro.models.cfkg import CFKG
from repro.models.ckat import CKAT, CKATConfig
from repro.models.cke import CKE
from repro.models.embeddings import TransE, TransR
from repro.models.fm import FM, ItemFeatureTable
from repro.models.kgcn import KGCN
from repro.models.nfm import NFM
from repro.models.ripplenet import RippleNet

__all__ = [
    "Recommender",
    "FitConfig",
    "FitResult",
    "TransR",
    "TransE",
    "BPRMF",
    "FM",
    "NFM",
    "ItemFeatureTable",
    "CKE",
    "CFKG",
    "RippleNet",
    "KGCN",
    "CKAT",
    "CKATConfig",
]
