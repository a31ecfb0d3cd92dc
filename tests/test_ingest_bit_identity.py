"""The batched ingest keeps every dataset bit: trace draw, mixture rows, dedup, sort.

``TraceGenerator.generate`` draws every record from one ``random`` call and
``AffinityModel.unique_user_mixtures`` builds its rows in one broadcast;
``tests/trace_oracle.py`` holds the per-user and per-key loops they replaced.
The properties here compare the two bit for bit over generated catalogs,
populations, affinity parameters and seeds; ``tests/test_dataset_golden.py``
pins the sha256 of whole datasets.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.interactions import InteractionDataset
from repro.facility.affinity import AffinityModel
from repro.facility.gage import GAGEConfig, build_gage_catalog
from repro.facility.ooi import OOIConfig, build_ooi_catalog
from repro.facility.trace import TraceGenerator, draw_categorical, sorted_unique_pairs
from repro.facility.users import build_user_population
from tests import trace_oracle


def _catalog(kind: str, seed: int):
    if kind == "ooi":
        return build_ooi_catalog(OOIConfig(num_sites=24), seed=seed)
    return build_gage_catalog(GAGEConfig(num_stations=80, num_cities=50), seed=seed)


affinities = st.builds(
    AffinityModel,
    p_region=st.floats(0.0, 1.0),
    p_dtype=st.floats(0.0, 1.0),
    popularity_exponent=st.floats(0.0, 2.0),
    site_concentration=st.floats(1.0, 50.0),
)


@settings(max_examples=25, deadline=None)
@given(
    kind=st.sampled_from(["ooi", "gage"]),
    catalog_seed=st.integers(0, 50),
    num_users=st.integers(1, 40),
    population_seed=st.integers(0, 10_000),
    affinity=affinities,
    queries=st.floats(1.0, 30.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_generate_matches_per_user_choice_loop(
    kind, catalog_seed, num_users, population_seed, affinity, queries, seed
):
    catalog = _catalog(kind, catalog_seed)
    population = build_user_population(
        catalog, num_users=num_users, num_orgs=min(num_users, 4), seed=population_seed
    )
    gen = TraceGenerator(catalog, population, affinity, queries_per_user_mean=queries)

    rows, inverse = affinity.unique_user_mixtures(catalog, population, np.random.default_rng(seed))
    ref_rows, ref_inverse = trace_oracle.unique_user_mixtures(
        affinity, catalog, population, np.random.default_rng(seed)
    )
    assert rows.tobytes() == ref_rows.tobytes()
    np.testing.assert_array_equal(inverse, ref_inverse)

    trace = gen.generate(seed=seed)
    ref = trace_oracle.generate(gen, seed=seed)
    assert trace.user_ids.tobytes() == ref.user_ids.tobytes()
    assert trace.object_ids.tobytes() == ref.object_ids.tobytes()
    assert trace.timestamps.tobytes() == ref.timestamps.tobytes()


@settings(max_examples=25, deadline=None)
@given(
    kind=st.sampled_from(["ooi", "gage"]),
    catalog_seed=st.integers(0, 50),
    affinity=affinities,
    data=st.data(),
)
def test_mixture_distribution_matches_one_key_reference(kind, catalog_seed, affinity, data):
    """Any (region, dtype, site) key, the empty and mismatched gates included."""
    catalog = _catalog(kind, catalog_seed)
    region = data.draw(st.integers(0, catalog.num_regions))  # num_regions: an empty gate
    dtype = data.draw(st.integers(0, catalog.num_data_types))
    site = data.draw(st.none() | st.integers(0, catalog.num_sites - 1))
    pop = affinity.popularity_weights(catalog.num_objects, np.random.default_rng(0))
    row = affinity.mixture_distribution(
        catalog, region, dtype, base_popularity=pop, focus_site=site
    )
    ref = trace_oracle.mixture_distribution(affinity, catalog, region, dtype, pop, focus_site=site)
    assert row.tobytes() == ref.tobytes()


@pytest.mark.parametrize("empty", ["region", "dtype", "both"])
@pytest.mark.parametrize("with_site", [False, True])
def test_mixture_empty_gate_fallbacks_match_reference(ooi_catalog, empty, with_site):
    """An empty region or dtype gate falls back exactly as the one-key code did."""
    affinity = AffinityModel(p_region=0.4, p_dtype=0.3, site_concentration=5.0)
    region = ooi_catalog.num_regions if empty in ("region", "both") else 0
    dtype = ooi_catalog.num_data_types if empty in ("dtype", "both") else 0
    site = int(np.flatnonzero(ooi_catalog.site_region == 0)[0]) if with_site else None
    pop = affinity.popularity_weights(ooi_catalog.num_objects, np.random.default_rng(3))
    row = affinity.mixture_distribution(
        ooi_catalog, region, dtype, base_popularity=pop, focus_site=site
    )
    ref = trace_oracle.mixture_distribution(
        affinity, ooi_catalog, region, dtype, pop, focus_site=site
    )
    assert row.tobytes() == ref.tobytes()


@settings(max_examples=40, deadline=None)
@given(
    pairs=st.lists(st.tuples(st.integers(0, 30), st.integers(0, 20)), max_size=200),
)
def test_sorted_unique_pairs_equals_np_unique(pairs):
    users = np.array([u for u, _ in pairs], dtype=np.int64)
    objects = np.array([o for _, o in pairs], dtype=np.int64)
    got_users, got_objects = sorted_unique_pairs(users, objects, 21)
    keys = np.unique(users * 21 + objects)
    np.testing.assert_array_equal(got_users, keys // 21)
    np.testing.assert_array_equal(got_objects, keys % 21)
    assert got_users.dtype == got_objects.dtype == np.int64


class TestInteractionDatasetOrder:
    @staticmethod
    def _lexsorted(users, items):
        order = np.lexsort((items, users))
        return users[order], items[order]

    @settings(max_examples=60, deadline=None)
    @given(
        pairs=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 14)), max_size=80),
        order=st.sampled_from(["lexsorted", "by_item", "as_drawn"]),
    )
    def test_equals_lexsort(self, pairs, order):
        """Sorted, unsorted and duplicate-bearing input all give the lexsort order.

        ``by_item`` input ascends by item but not by user, the case a check
        that looked at items alone would take for sorted.
        """
        users = np.array([u for u, _ in pairs], dtype=np.int64)
        items = np.array([i for _, i in pairs], dtype=np.int64)
        if order == "lexsorted":
            users, items = self._lexsorted(users, items)
        elif order == "by_item":
            by_item = np.argsort(items, kind="stable")
            users, items = users[by_item], items[by_item]
        data = InteractionDataset(users, items, 10, 15)
        want_users, want_items = self._lexsorted(users, items)
        np.testing.assert_array_equal(data.user_ids, want_users)
        np.testing.assert_array_equal(data.item_ids, want_items)
        np.testing.assert_array_equal(np.diff(data.user_offsets), np.bincount(users, minlength=10))

    @pytest.mark.parametrize("presort", [True, False])
    def test_owns_its_arrays(self, presort):
        users = np.array([0, 0, 1, 2, 2] if presort else [2, 0, 1, 0, 2], dtype=np.int64)
        items = np.array([1, 4, 0, 2, 3] if presort else [3, 4, 0, 1, 2], dtype=np.int64)
        data = InteractionDataset(users, items, 3, 5)
        users[:] = 0
        items[:] = 0
        np.testing.assert_array_equal(data.user_ids, [0, 0, 1, 2, 2])
        np.testing.assert_array_equal(data.item_ids, [1, 4, 0, 2, 3])


class TestDrawInputChecks:
    """``draw_categorical`` keeps ``Generator.choice``'s checks on ``p``."""

    @pytest.mark.parametrize(
        "bad_row", [[0.25, 0.75, np.nan], [0.25, 1.0, -0.25], [0.25, 0.75, np.inf]]
    )
    def test_bad_row_raises(self, bad_row):
        rows = np.array([[0.5, 0.5, 0.0], bad_row])
        with pytest.raises(ValueError):
            draw_categorical(rows, np.array([0, 1, 1]), np.random.default_rng(0))
        with pytest.raises(ValueError):
            np.random.default_rng(0).choice(3, size=2, p=rows[1])

    def test_row_off_one_raises(self):
        rows = np.array([[0.5, 0.5 + 1e-6]])
        with pytest.raises(ValueError, match="sum to 1"):
            draw_categorical(rows, np.array([0]), np.random.default_rng(0))

    @pytest.mark.parametrize("bad", [np.nan, -0.5])
    def test_generate_raises_on_bad_mixture_row(self, ooi_catalog, ooi_population, bad):
        class Broken(AffinityModel):
            def unique_user_mixtures(self, catalog, population, rng):
                rows, inverse = super().unique_user_mixtures(catalog, population, rng)
                rows[-1, 0] = bad
                return rows, inverse

        gen = TraceGenerator(ooi_catalog, ooi_population, Broken(0.3, 0.3))
        with pytest.raises(ValueError):
            gen.generate(seed=0)
