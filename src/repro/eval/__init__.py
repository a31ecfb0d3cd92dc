"""Top-K evaluation protocol (Section VI-B).

The paper adopts full-ranking top-K evaluation with recall@20 and ndcg@20:
for every test user, all items are scored, training positives are masked,
and the top K of the remainder are compared against the held-out test items.
"""

from repro.eval.evaluator import EvaluationResult, PerUserMetrics, RankingEvaluator
from repro.eval.metrics import (
    average_precision_at_k,
    hit_at_k,
    mrr_at_k,
    ndcg_at_k,
    precision_at_k,
    recall_at_k,
)
from repro.eval.significance import PairedTestResult, bootstrap_ci, paired_bootstrap_test

__all__ = [
    "recall_at_k",
    "ndcg_at_k",
    "precision_at_k",
    "hit_at_k",
    "mrr_at_k",
    "average_precision_at_k",
    "RankingEvaluator",
    "EvaluationResult",
    "PerUserMetrics",
    "bootstrap_ci",
    "paired_bootstrap_test",
    "PairedTestResult",
]
