"""Affinity-model tests: distributions, mixtures, concentration effects."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.facility.affinity import GAGE_AFFINITY, OOI_AFFINITY, AffinityModel


class TestValidation:
    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            AffinityModel(p_region=1.5, p_dtype=0.5)
        with pytest.raises(ValueError):
            AffinityModel(p_region=0.5, p_dtype=-0.1)

    def test_popularity_exponent_nonnegative(self):
        with pytest.raises(ValueError):
            AffinityModel(0.5, 0.5, popularity_exponent=-1.0)

    def test_site_concentration_at_least_one(self):
        with pytest.raises(ValueError):
            AffinityModel(0.5, 0.5, site_concentration=0.5)

    def test_frozen(self):
        a = AffinityModel(0.5, 0.5)
        with pytest.raises(Exception):
            a.p_region = 0.9


class TestPopularityWeights:
    def test_positive(self):
        w = AffinityModel(0.5, 0.5).popularity_weights(100, np.random.default_rng(0))
        assert (w > 0).all()

    def test_zipf_shape(self):
        w = AffinityModel(0.5, 0.5, popularity_exponent=1.0).popularity_weights(
            1000, np.random.default_rng(0)
        )
        sorted_w = np.sort(w)[::-1]
        # Heavy tail: top weight much larger than median.
        assert sorted_w[0] > 10 * np.median(sorted_w)

    def test_uniform_when_exponent_zero(self):
        w = AffinityModel(0.5, 0.5, popularity_exponent=0.0).popularity_weights(
            50, np.random.default_rng(0)
        )
        np.testing.assert_allclose(w, w[0])

    def test_deterministic_given_seed(self):
        a = AffinityModel(0.5, 0.5).popularity_weights(64, np.random.default_rng(7))
        b = AffinityModel(0.5, 0.5).popularity_weights(64, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_seed_controls_permutation(self):
        a = AffinityModel(0.5, 0.5).popularity_weights(64, np.random.default_rng(7))
        b = AffinityModel(0.5, 0.5).popularity_weights(64, np.random.default_rng(8))
        assert not np.array_equal(a, b)

    def test_permutation_decorrelates_rank_from_id(self):
        w = AffinityModel(0.5, 0.5).popularity_weights(500, np.random.default_rng(0))
        # Top-10 objects should not all be the first ids.
        top = np.argsort(-w)[:10]
        assert top.max() > 20


class TestMixtureDistribution:
    def test_sums_to_one(self, ooi_catalog):
        m = OOI_AFFINITY.mixture_distribution(ooi_catalog, 0, 0, rng=np.random.default_rng(0))
        np.testing.assert_allclose(m.sum(), 1.0, atol=1e-12)

    def test_nonnegative(self, ooi_catalog):
        m = OOI_AFFINITY.mixture_distribution(ooi_catalog, 2, 3, rng=np.random.default_rng(0))
        assert (m >= 0).all()

    def test_region_gate_raises_region_mass(self, ooi_catalog):
        strong = AffinityModel(0.9, 0.0)
        weak = AffinityModel(0.0, 0.0)
        region = int(ooi_catalog.object_region[0])
        mask = ooi_catalog.object_region == region
        m_strong = strong.mixture_distribution(ooi_catalog, region, 0, rng=np.random.default_rng(0))
        m_weak = weak.mixture_distribution(ooi_catalog, region, 0, rng=np.random.default_rng(0))
        assert m_strong[mask].sum() > m_weak[mask].sum()

    def test_dtype_gate_raises_dtype_mass(self, ooi_catalog):
        strong = AffinityModel(0.0, 0.9)
        weak = AffinityModel(0.0, 0.0)
        dtype = int(ooi_catalog.object_dtype[0])
        mask = ooi_catalog.object_dtype == dtype
        assert (
            strong.mixture_distribution(ooi_catalog, 0, dtype, rng=np.random.default_rng(0))[mask].sum()
            > weak.mixture_distribution(ooi_catalog, 0, dtype, rng=np.random.default_rng(0))[mask].sum()
        )

    def test_focus_site_concentrates(self, ooi_catalog):
        site = int(ooi_catalog.object_site[0])
        region = int(ooi_catalog.site_region[site])
        conc = AffinityModel(0.8, 0.0, site_concentration=50.0)
        flat = AffinityModel(0.8, 0.0, site_concentration=1.0)
        mask = ooi_catalog.object_site == site
        m_conc = conc.mixture_distribution(ooi_catalog, region, 0, focus_site=site, rng=np.random.default_rng(0))
        m_flat = flat.mixture_distribution(ooi_catalog, region, 0, focus_site=site, rng=np.random.default_rng(0))
        assert m_conc[mask].sum() > m_flat[mask].sum()

    def test_mixture_matches_monte_carlo(self, ooi_catalog):
        """The closed-form mixture equals the expectation of gated draws."""
        aff = AffinityModel(0.6, 0.4, site_concentration=1.0)
        region, dtype = 1, 2
        pop = aff.popularity_weights(ooi_catalog.num_objects, np.random.default_rng(0))
        analytic = aff.mixture_distribution(ooi_catalog, region, dtype, base_popularity=pop)
        rng = np.random.default_rng(0)
        acc = np.zeros(ooi_catalog.num_objects)
        trials = 3000
        for _ in range(trials):
            acc += aff.item_distribution(ooi_catalog, region, dtype, rng, base_popularity=pop)
        mc = acc / trials
        np.testing.assert_allclose(mc, analytic, atol=4e-3)


class TestUserMixtures:
    def test_shape(self, ooi_catalog, ooi_population):
        rows, inverse = OOI_AFFINITY.unique_user_mixtures(
            ooi_catalog, ooi_population, np.random.default_rng(0)
        )
        assert rows.shape == (inverse.max() + 1, ooi_catalog.num_objects)
        assert inverse.shape == (ooi_population.num_users,)

    def test_rows_sum_to_one(self, ooi_catalog, ooi_population):
        rows, _ = OOI_AFFINITY.unique_user_mixtures(
            ooi_catalog, ooi_population, np.random.default_rng(0)
        )
        np.testing.assert_allclose(rows.sum(axis=1), np.ones(len(rows)), atol=1e-9)

    def test_shared_focus_shares_rows(self, ooi_catalog, ooi_population):
        rows, inverse = OOI_AFFINITY.unique_user_mixtures(
            ooi_catalog, ooi_population, np.random.default_rng(0)
        )
        keys = (
            ooi_population.user_focus_site * ooi_catalog.num_data_types
            + ooi_population.user_focus_dtype
        )
        # One row per distinct (focus site, focus dtype) key, shared by its users.
        assert len(rows) == len(np.unique(keys))
        for key in np.unique(keys):
            assert len(np.unique(inverse[keys == key])) == 1


class TestItemDistribution:
    def test_empty_catalog_rejected(self, ooi_catalog):
        aff = AffinityModel(0.5, 0.5)

        class Empty:
            num_objects = 0

        with pytest.raises(ValueError):
            aff.item_distribution(Empty(), 0, 0, np.random.default_rng(0))

    def test_valid_distribution(self, ooi_catalog, rng):
        d = OOI_AFFINITY.item_distribution(ooi_catalog, 0, 0, rng)
        np.testing.assert_allclose(d.sum(), 1.0, atol=1e-12)
        assert (d >= 0).all()


@settings(max_examples=20, deadline=None)
@given(pr=st.floats(0, 1), pd=st.floats(0, 1))
def test_presets_and_arbitrary_params_valid(pr, pd):
    """Property: any probability pair builds a valid model."""
    AffinityModel(p_region=pr, p_dtype=pd)


def test_presets_exist():
    assert 0 < OOI_AFFINITY.p_region < 1
    assert 0 < GAGE_AFFINITY.p_dtype < 1
    assert GAGE_AFFINITY.p_dtype > OOI_AFFINITY.p_dtype  # paper: GAGE more dtype-bound
    assert OOI_AFFINITY.p_region > GAGE_AFFINITY.p_region  # OOI more region-bound
