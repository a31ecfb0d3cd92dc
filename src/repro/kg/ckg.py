"""The collaborative knowledge graph (CKG) of Section IV.

:func:`build_ckg` performs entity alignment over a shared
:class:`~repro.kg.subgraphs.EntitySpace`, merges the UIG / UUG / IAG triple
stores, and augments the result with inverse relations (the paper's
canonical-plus-inverse relation set, with the user-level ``interact``
relation treated as symmetric).

The resulting :class:`CollaborativeKnowledgeGraph` exposes everything the
models need:

- ``store`` — the canonical (no-inverse) triples, for statistics;
- ``propagation_store`` — the inverse-augmented triples over which GNN
  message passing runs (messages must flow both ways along every edge);
- id helpers translating user/item indices into the global entity space;
- the interaction matrix restricted to users×items.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.facility.catalog import FacilityCatalog
from repro.facility.users import UserPopulation
from repro.kg.subgraphs import (
    INTERACT,
    EntitySpace,
    KnowledgeSources,
    build_iag,
    build_uig,
    build_uug,
    city_names,
    group_names,
)
from repro.kg.triples import TripleStore

__all__ = [
    "CollaborativeKnowledgeGraph",
    "build_ckg",
]


class CollaborativeKnowledgeGraph:
    """Aligned union of UIG, UUG and IAG over one entity id space."""

    def __init__(
        self,
        space: EntitySpace,
        store: TripleStore,
        num_users: int,
        num_items: int,
        sources: KnowledgeSources,
        catalog_name: str,
        propagation_store: Optional[TripleStore] = None,
    ):
        self.space = space
        self.store = store
        self.num_users = num_users
        self.num_items = num_items
        self.sources = sources
        self.catalog_name = catalog_name
        # ``propagation_store`` lets a cached build (repro.pipeline) hand the
        # inverse-augmented triples back in directly instead of re-deriving
        # them; derivation is deterministic, so both paths are identical.
        self.propagation_store = (
            propagation_store
            if propagation_store is not None
            else store.with_inverses(symmetric=(INTERACT,))
        )

    # -------------------------------------------------------------- id maps
    @property
    def num_entities(self) -> int:
        return self.space.num_entities

    @property
    def num_relations(self) -> int:
        """Canonical KG relation count, excluding ``interact`` — this is what
        the paper's Table I reports (8 for OOI, 7 for GAGE); ``interact`` is
        the alignment relation added on top of R (Section IV)."""
        return sum(
            1
            for rid in self.store.relations.canonical_ids()
            if self.store.relations.name_of(int(rid)) != INTERACT
        )

    def user_entity_ids(self, user_ids: np.ndarray) -> np.ndarray:
        """Global entity ids for user indices."""
        return self.space.global_ids("user", user_ids)

    def item_entity_ids(self, item_ids: np.ndarray) -> np.ndarray:
        """Global entity ids for item indices."""
        return self.space.global_ids("item", item_ids)

    def all_user_entities(self) -> np.ndarray:
        offset, size = self.space.block("user")
        return np.arange(offset, offset + size, dtype=np.int64)

    def all_item_entities(self) -> np.ndarray:
        offset, size = self.space.block("item")
        return np.arange(offset, offset + size, dtype=np.int64)

    # ---------------------------------------------------------- interactions
    def interaction_pairs(self) -> Tuple[np.ndarray, np.ndarray]:
        """(user_idx, item_idx) pairs of the UIG (local indices)."""
        heads, tails = self.store.triples_of_relation(INTERACT)
        user_off, user_size = self.space.block("user")
        item_off, item_size = self.space.block("item")
        is_ui = (heads >= user_off) & (heads < user_off + user_size) & (
            tails >= item_off
        ) & (tails < item_off + item_size)
        return heads[is_ui] - user_off, tails[is_ui] - item_off

    def describe(self) -> str:
        """One-line structural summary."""
        return (
            f"CKG[{self.catalog_name}/{self.sources.label()}]: "
            f"{self.num_entities} entities, {self.num_relations} relations, "
            f"{len(self.store)} triples ({len(self.propagation_store)} with inverses)"
        )

    def __repr__(self) -> str:
        return self.describe()


def build_ckg(
    catalog: FacilityCatalog,
    population: UserPopulation,
    train_user_ids: np.ndarray,
    train_item_ids: np.ndarray,
    sources: KnowledgeSources = KnowledgeSources.best(),
    uug_max_neighbors: int = 25,
    seed=0,
) -> CollaborativeKnowledgeGraph:
    """Construct the CKG from training interactions + facility knowledge.

    Parameters
    ----------
    train_user_ids, train_item_ids:
        The *training* split of observed query pairs (test pairs must not
        enter the graph).
    sources:
        Knowledge-source toggles (Table III).
    uug_max_neighbors:
        Degree cap for the same-city user–user graph.
    """
    space = _allocate_space(catalog, population)
    store = TripleStore(space.num_entities)
    store.extend(build_uig(space, train_user_ids, train_item_ids))
    if sources.uug:
        store.extend(build_uug(space, population, max_neighbors=uug_max_neighbors, seed=seed))
    store.extend(build_iag(space, catalog, sources))
    store = store.deduplicated()
    return CollaborativeKnowledgeGraph(
        space=space,
        store=store,
        num_users=population.num_users,
        num_items=catalog.num_objects,
        sources=sources,
        catalog_name=catalog.name,
    )


def _allocate_space(catalog: FacilityCatalog, population: UserPopulation) -> EntitySpace:
    """Reserve id blocks for every entity family the subgraphs may emit.

    Blocks are allocated unconditionally (even for disabled sources) so that
    entity ids are stable across Table-III source combinations — embeddings
    and evaluation indices remain comparable between runs.
    """
    space = EntitySpace()
    space.add_block("user", population.num_users)
    space.add_block("item", catalog.num_objects)
    space.add_block("site", catalog.num_sites)
    space.add_block("region", catalog.num_regions)
    space.add_block("class", catalog.num_instrument_classes)
    space.add_block("dtype", catalog.num_data_types)
    space.add_block("discipline", catalog.num_disciplines)
    space.add_block("delivery", len(catalog.delivery_methods))
    space.add_block("group", len(group_names(catalog)))
    space.add_block("level", len(catalog.processing_level_names))
    space.add_block("city", len(city_names(catalog)))
    return space
