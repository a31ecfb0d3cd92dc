"""The float32 seed band: CKAT in float32 ranks as well as the float64 reference.

CKAT trains in float32 (``PARAM_DTYPE`` in ``repro.models.ckat.model``).
This bench trains it at the ``perfbench`` budget (2 epochs, batch
attention) on ooi and gage for model seeds 0–4, once in float32 and once
cast to the float64 test reference, and asserts that the float32 mean
recall@20 and mean ndcg@20 each lie within the float64 runs' per-seed
[min, max].  The seed-to-seed spread is the noise a precision change has to
stay inside; EXPERIMENTS.md records the table.

Slow: 20 trainings, most of the time in the gage runs.
"""

import statistics

import pytest

from conftest import BENCH_SEED, write_bench_json, write_result

from repro.eval.evaluator import RankingEvaluator
from repro.experiments.runner import build_model, default_fit_config
from repro.models import CKATConfig
from tests.ckat_reference import float64_ckat

SEEDS = range(5)
EPOCHS = 2
_CONFIG = CKATConfig(attention_mode="batch")


def _train(dataset, ckg, graph, seed, reference):
    """Recall@20, ndcg@20 and seconds per epoch of one CKAT training."""
    model = build_model("CKAT", dataset, ckg, seed=seed, ckat_config=_CONFIG, graph=graph)
    if reference:
        float64_ckat(model)
    fit = model.fit(dataset.split.train, default_fit_config("CKAT", epochs=EPOCHS, seed=seed))
    result = RankingEvaluator(dataset.split.train, dataset.split.test, k=20).evaluate_model(model)
    return result.recall, result.ndcg, fit.seconds / EPOCHS


@pytest.mark.slow
def test_float32_within_float64_seed_band(ooi_dataset, gage_dataset):
    rows, payload, failures = [], {}, []
    for dataset in (ooi_dataset, gage_dataset):
        ckg, graph = dataset.build_ckg(), dataset.prepared_graph()
        runs = {
            dtype: [_train(dataset, ckg, graph, s, dtype == "float64") for s in SEEDS]
            for dtype in ("float64", "float32")
        }
        payload[dataset.name] = runs
        for i, metric in enumerate(("recall@20", "ndcg@20")):
            ref = [r[i] for r in runs["float64"]]
            mean32 = statistics.mean(r[i] for r in runs["float32"])
            lo, hi = min(ref), max(ref)
            rows.append(
                f"  {dataset.name:<5} {metric:<10} float64 mean {statistics.mean(ref):.4f} "
                f"[{lo:.4f}, {hi:.4f}]   float32 mean {mean32:.4f}"
            )
            if not lo <= mean32 <= hi:
                failures.append(f"{dataset.name} {metric}: {mean32:.4f} outside [{lo:.4f}, {hi:.4f}]")
        epoch_s = {d: statistics.median(r[2] for r in runs[d]) for d in runs}
        rows.append(
            f"  {dataset.name:<5} epoch      float64 {epoch_s['float64']:.2f} s   "
            f"float32 {epoch_s['float32']:.2f} s  (median wall)"
        )
    write_result(
        "bench_float32_band",
        f"CKAT float32 vs the float64 reference, seeds {SEEDS.start}-{SEEDS.stop - 1}, "
        f"{EPOCHS} epochs, batch attention (dataset seed {BENCH_SEED})\n" + "\n".join(rows),
    )
    write_bench_json("float32_band", {"seeds": list(SEEDS), "epochs": EPOCHS, "runs": payload})
    assert not failures, "; ".join(failures)
