"""Cross-model scoring invariants.

Checks every registered model satisfies the contracts the evaluator and the
recommendation API rely on: score determinism at inference time, batching
invariance, exclusion handling, and basic learned-signal sanity.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.datasets import load_dataset
from repro.experiments.runner import MODEL_NAMES, build_model
from repro.models.base import FitConfig, Recommender
from tests.ckat_reference import float64_ckat
from tests.ranking_oracle import assert_row_matches_oracle, oracle_rank, oracle_valid


@pytest.fixture(scope="module")
def tiny_setup():
    ds = load_dataset("ooi", scale="small", seed=29)
    ckg = ds.build_ckg()
    return ds, ckg


@pytest.fixture(scope="module")
def trained_registry(tiny_setup):
    ds, ckg = tiny_setup
    from repro.models import CKATConfig

    out = {}
    for name in MODEL_NAMES:
        model = build_model(
            name,
            ds,
            ckg,
            seed=0,
            ckat_config=CKATConfig(dim=8, relation_dim=8, layer_dims=(8,), kg_steps_per_epoch=2),
        )
        if name == "CKAT":
            # Float64: batching invariance is asserted at rtol 1e-8.
            float64_ckat(model)
        model.fit(ds.split.train, FitConfig(epochs=2, batch_size=256, seed=0))
        out[name] = model
    return out


@pytest.mark.parametrize("name", MODEL_NAMES)
class TestScoringInvariants:
    def test_inference_deterministic(self, trained_registry, name):
        model = trained_registry[name]
        a = model.score_users(np.array([0, 1]))
        b = model.score_users(np.array([0, 1]))
        np.testing.assert_allclose(a, b)

    def test_batching_invariance(self, trained_registry, name):
        model = trained_registry[name]
        together = model.score_users(np.array([0, 2, 4]))
        alone = model.score_users(np.array([2]))
        np.testing.assert_allclose(together[1], alone[0], rtol=1e-8, atol=1e-10)

    def test_scores_finite(self, trained_registry, name, tiny_setup):
        ds, _ = tiny_setup
        model = trained_registry[name]
        scores = model.score_users(np.arange(min(8, ds.split.train.num_users)))
        assert np.isfinite(scores).all()

    def test_scores_not_constant(self, trained_registry, name):
        """A trained model must discriminate between items."""
        model = trained_registry[name]
        scores = model.score_users(np.array([0]))[0]
        assert scores.std() > 0

    def test_recommend_within_catalog(self, trained_registry, name, tiny_setup):
        ds, _ = tiny_setup
        model = trained_registry[name]
        recs = model.recommend(0, k=7)
        assert (recs >= 0).all() and (recs < ds.split.train.num_items).all()

    def test_recommend_rejects_negative_exclude(self, trained_registry, name):
        """Regression: a negative exclude id used to wrap around and silently
        mask the wrong item."""
        model = trained_registry[name]
        with pytest.raises(ValueError, match="exclude contains item ids"):
            model.recommend(0, k=5, exclude=np.array([0, -1]))

    def test_recommend_rejects_out_of_range_exclude(self, trained_registry, name):
        """Regression: an exclude id >= num_items used to raise a bare
        IndexError from deep inside numpy."""
        model = trained_registry[name]
        with pytest.raises(ValueError, match="exclude contains item ids"):
            model.recommend(0, k=5, exclude=np.array([model.num_items]))

    def test_recommend_all_items_excluded(self, trained_registry, name):
        """With every item excluded the clamp yields an empty result, never a
        -inf-masked id."""
        model = trained_registry[name]
        recs = model.recommend(0, k=5, exclude=np.arange(model.num_items))
        assert recs.size == 0


class _TableRecommender(Recommender):
    """Scores every user from a fixed table — ``recommend`` without a model."""

    def __init__(self, table):
        super().__init__(*table.shape)
        self.table = table

    def score_users(self, users):
        return self.table[users]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    num_items=st.integers(1, 25),
    data=st.data(),
)
def test_recommend_matches_oracle_property(seed, num_items, data):
    """``recommend`` over forced ties equals the brute-force oracle.

    Scores come from a five-value set, so rows hold tied cohorts; exclusions
    may repeat ids, be absent, or cover every item; ``k`` runs past
    ``num_items``.  The result holds ``min(k, unmasked)`` distinct ids, no
    excluded one, matching the oracle's ranking with tie cohorts as sets.
    """
    rng = np.random.default_rng(seed)
    table = rng.choice([-1.5, -0.5, 0.0, 0.5, 2.0], (3, num_items))
    model = _TableRecommender(table)
    user = int(rng.integers(0, 3))
    mode = data.draw(st.sampled_from(["none", "random", "duplicates", "all"]), label="exclude")
    exclude = {
        "none": None,
        "random": rng.choice(num_items, rng.integers(0, num_items + 1), replace=False),
        "duplicates": rng.integers(0, num_items, 2 * num_items),
        "all": rng.permutation(np.r_[np.arange(num_items), np.arange(num_items)]),
    }[mode]
    k = data.draw(st.integers(1, num_items + 5), label="k")
    recs = model.recommend(user, k=k, exclude=exclude)
    excluded = [] if exclude is None else exclude
    masked, order = oracle_rank(-table[[user]], [excluded])
    assert len(recs) == oracle_valid(masked[0], min(k, num_items))
    assert not set(recs.tolist()) & set(np.asarray(excluded).tolist())
    assert_row_matches_oracle(recs, masked[0], order[0])
