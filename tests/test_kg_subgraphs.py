"""Subgraph builders and entity-space tests (Section IV construction)."""

import numpy as np
import pytest

from repro.kg.ckg import _allocate_space
from repro.kg.subgraphs import (
    INTERACT,
    EntitySpace,
    KnowledgeSources,
    build_iag,
    build_uig,
    build_uug,
)


class TestEntitySpace:
    def test_blocks_contiguous(self):
        space = EntitySpace()
        assert space.add_block("a", 3) == 0
        assert space.add_block("b", 5) == 3
        assert space.num_entities == 8

    def test_duplicate_block_rejected(self):
        space = EntitySpace()
        space.add_block("a", 1)
        with pytest.raises(ValueError):
            space.add_block("a", 1)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            EntitySpace().add_block("a", -1)

    def test_global_ids(self):
        space = EntitySpace()
        space.add_block("a", 3)
        space.add_block("b", 4)
        np.testing.assert_array_equal(space.global_ids("b", np.array([0, 3])), [3, 6])

    def test_global_ids_bounds_checked(self):
        space = EntitySpace()
        space.add_block("a", 3)
        with pytest.raises(ValueError):
            space.global_ids("a", np.array([3]))

    def test_owner_of(self):
        space = EntitySpace()
        space.add_block("a", 3)
        space.add_block("b", 2)
        assert space.owner_of(0) == "a"
        assert space.owner_of(4) == "b"
        with pytest.raises(ValueError):
            space.owner_of(9)

    def test_empty_block_allowed(self):
        space = EntitySpace()
        space.add_block("empty", 0)
        assert space.num_entities == 0


class TestKnowledgeSources:
    def test_labels(self):
        assert KnowledgeSources.best().label() == "UIG+UUG+LOC+DKG"
        assert KnowledgeSources.all_sources().label() == "UIG+UUG+LOC+DKG+MD"
        assert KnowledgeSources(uug=False, loc=True, dkg=False, md=False).label() == "UIG+LOC"

    def test_frozen(self):
        with pytest.raises(Exception):
            KnowledgeSources().uug = False


class TestBuildUIG:
    def test_triples_are_user_item(self, ooi_catalog, ooi_population):
        space = _allocate_space(ooi_catalog, ooi_population)
        store = build_uig(space, np.array([0, 1, 1]), np.array([5, 6, 6]))
        assert len(store) == 2  # deduplicated
        user_off, _ = space.block("user")
        item_off, _ = space.block("item")
        assert (store.heads >= user_off).all()
        assert (store.tails >= item_off).all()
        assert store.relation_counts() == {INTERACT: 2}


class TestBuildUUG:
    def test_same_city_links_only(self, ooi_catalog, ooi_population):
        space = _allocate_space(ooi_catalog, ooi_population)
        store = build_uug(space, ooi_population, max_neighbors=5, seed=0)
        user_off, user_size = space.block("user")
        heads = store.heads - user_off
        tails = store.tails - user_off
        assert (ooi_population.user_city[heads] == ooi_population.user_city[tails]).all()

    def test_no_self_loops(self, ooi_catalog, ooi_population):
        space = _allocate_space(ooi_catalog, ooi_population)
        store = build_uug(space, ooi_population, seed=0)
        assert (store.heads != store.tails).all()

    def test_degree_cap_limits_size(self, ooi_catalog, ooi_population):
        space = _allocate_space(ooi_catalog, ooi_population)
        small = build_uug(space, ooi_population, max_neighbors=2, seed=0)
        large = build_uug(space, ooi_population, max_neighbors=20, seed=0)
        assert len(small) <= len(large)

    def test_canonical_pair_order(self, ooi_catalog, ooi_population):
        space = _allocate_space(ooi_catalog, ooi_population)
        store = build_uug(space, ooi_population, seed=0)
        assert (store.heads < store.tails).all()

    def test_invalid_max_neighbors(self, ooi_catalog, ooi_population):
        space = _allocate_space(ooi_catalog, ooi_population)
        with pytest.raises(ValueError):
            build_uug(space, ooi_population, max_neighbors=0)


class TestBuildIAG:
    def test_loc_only(self, ooi_catalog, ooi_population):
        space = _allocate_space(ooi_catalog, ooi_population)
        store = build_iag(space, ooi_catalog, KnowledgeSources(uug=False, loc=True, dkg=False, md=False))
        names = set(store.relation_counts())
        assert names == {"locatedAt", "memberOfArray"}

    def test_dkg_only_ooi(self, ooi_catalog, ooi_population):
        space = _allocate_space(ooi_catalog, ooi_population)
        store = build_iag(space, ooi_catalog, KnowledgeSources(uug=False, loc=False, dkg=True, md=False))
        names = set(k for k, v in store.relation_counts().items() if v)
        assert names == {"hasDataType", "hasDiscipline", "generatedBy"}

    def test_md_only_ooi(self, ooi_catalog, ooi_population):
        space = _allocate_space(ooi_catalog, ooi_population)
        store = build_iag(space, ooi_catalog, KnowledgeSources(uug=False, loc=False, dkg=False, md=True))
        names = set(k for k, v in store.relation_counts().items() if v)
        assert names == {"deliveryMethod", "inGroup", "processingLevel"}

    def test_gage_relations(self, gage_catalog):
        from repro.facility.users import build_user_population

        pop = build_user_population(gage_catalog, num_users=20, num_orgs=5, seed=0)
        space = _allocate_space(gage_catalog, pop)
        store = build_iag(space, gage_catalog, KnowledgeSources.all_sources())
        names = set(k for k, v in store.relation_counts().items() if v)
        assert names == {
            "locatedAt",
            "siteInCity",
            "cityInState",
            "hasDataType",
            "hasDiscipline",
            "inNetwork",
            "deliveryMethod",
        }

    def test_every_item_has_location_triple(self, ooi_catalog, ooi_population):
        space = _allocate_space(ooi_catalog, ooi_population)
        store = build_iag(space, ooi_catalog, KnowledgeSources(loc=True, dkg=False, md=False))
        item_off, item_size = space.block("item")
        h, _ = store.triples_of_relation("locatedAt")
        items_with_loc = np.unique(h[(h >= item_off) & (h < item_off + item_size)]) - item_off
        assert len(items_with_loc) == ooi_catalog.num_objects

    def test_disabled_sources_empty(self, ooi_catalog, ooi_population):
        space = _allocate_space(ooi_catalog, ooi_population)
        store = build_iag(space, ooi_catalog, KnowledgeSources(uug=False, loc=False, dkg=False, md=False))
        assert len(store) == 0
