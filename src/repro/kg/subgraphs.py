"""Builders for the three CKG subgraphs and the knowledge-source toggles.

Section IV defines:

- **UIG** (user–item bipartite graph): ``(u, interact, v)`` for every observed
  query pair — built from *training* interactions only, so the test split
  never leaks into the graph;
- **UUG** (user–user bipartite graph): ``(u_i, interact, u_j)`` for users in
  the same location (city);
- **IAG** (item–attribute KG): facility metadata triples, partitioned into
  the knowledge sources of Table III — instrument location (**LOC**),
  data-domain knowledge (**DKG**), and additional instrument metadata
  (**MD**, the deliberate noise source).

Relation-to-source mapping (see DESIGN.md):

========== ========================================== =========================
source      OOI-like relations                         GAGE-like relations
========== ========================================== =========================
LOC         locatedAt, memberOfArray                   locatedAt, siteInCity, cityInState
DKG         hasDataType, hasDiscipline, generatedBy    hasDataType, hasDiscipline
MD          deliveryMethod, inGroup, processingLevel   inNetwork, deliveryMethod
========== ========================================== =========================

giving the paper's 8 relations for OOI and 7 for GAGE.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Tuple

import numpy as np

from repro.facility.catalog import FacilityCatalog
from repro.facility.users import UserPopulation
from repro.kg.triples import TripleStore
from repro.utils.rng import ensure_rng

__all__ = [
    "KnowledgeSources",
    "EntitySpace",
    "INTERACT",
    "build_uig",
    "build_uug",
    "build_iag",
]

INTERACT = "interact"


@dataclasses.dataclass(frozen=True)
class KnowledgeSources:
    """Which knowledge sources enter the CKG — the Table-III toggle set.

    ``uug`` controls the user–user subgraph; ``loc``/``dkg``/``md`` select
    IAG relation groups.  The UIG is always present (without it there is no
    recommendation signal at all).
    """

    uug: bool = True
    loc: bool = True
    dkg: bool = True
    md: bool = False

    @classmethod
    def all_sources(cls) -> "KnowledgeSources":
        """UIG+UUG+LOC+DKG+MD (the '+noise' row of Table III)."""
        return cls(uug=True, loc=True, dkg=True, md=True)

    @classmethod
    def best(cls) -> "KnowledgeSources":
        """UIG+UUG+LOC+DKG — the paper's best combination (Table III)."""
        return cls(uug=True, loc=True, dkg=True, md=False)

    def label(self) -> str:
        """The Table-III row label, e.g. ``"UIG+UUG+LOC+DKG"``."""
        parts = ["UIG"]
        if self.uug:
            parts.append("UUG")
        if self.loc:
            parts.append("LOC")
        if self.dkg:
            parts.append("DKG")
        if self.md:
            parts.append("MD")
        return "+".join(parts)


class EntitySpace:
    """Allocates named contiguous id blocks in the unified CKG entity space.

    Entity alignment (Section IV) is implemented by construction: each
    conceptual entity set (users, items, sites, …) receives one block, and
    subgraph builders translate local ids through :meth:`global_ids`.
    """

    def __init__(self):
        self._blocks: Dict[str, Tuple[int, int]] = {}
        self._total = 0

    def add_block(self, name: str, size: int) -> int:
        """Reserve ``size`` ids under ``name``; returns the block offset."""
        if name in self._blocks:
            raise ValueError(f"block {name!r} already allocated")
        if size < 0:
            raise ValueError(f"block size must be nonnegative, got {size}")
        offset = self._total
        self._blocks[name] = (offset, size)
        self._total += size
        return offset

    def block(self, name: str) -> Tuple[int, int]:
        """(offset, size) of a named block."""
        return self._blocks[name]

    def global_ids(self, name: str, local_ids: np.ndarray) -> np.ndarray:
        """Translate block-local ids to global entity ids (bounds-checked)."""
        offset, size = self._blocks[name]
        local = np.asarray(local_ids, dtype=np.int64)
        if local.size and (local.min() < 0 or local.max() >= size):
            raise ValueError(f"local id out of range for block {name!r} of size {size}")
        return local + offset

    def blocks(self) -> List[Tuple[str, int]]:
        """(name, size) of every block in allocation order.

        Allocation order determines every offset, so this listing is a
        complete serialization of the space — the artifact pipeline stores
        it and rebuilds an identical space with :meth:`add_block` calls.
        """
        return [(name, size) for name, (_, size) in self._blocks.items()]

    def owner_of(self, global_id: int) -> str:
        """Name of the block containing ``global_id``."""
        for name, (offset, size) in self._blocks.items():
            if offset <= global_id < offset + size:
                return name
        raise ValueError(f"global id {global_id} outside entity space of size {self._total}")

    @property
    def num_entities(self) -> int:
        return self._total


def build_uig(
    space: EntitySpace, user_ids: np.ndarray, item_ids: np.ndarray
) -> TripleStore:
    """User–item interaction triples ``(u, interact, v)`` (deduplicated)."""
    store = TripleStore(space.num_entities)
    store.add_triples(
        INTERACT, space.global_ids("user", user_ids), space.global_ids("item", item_ids)
    )
    return store.deduplicated()


def build_uug(
    space: EntitySpace,
    population: UserPopulation,
    max_neighbors: int = 10,
    seed=0,
) -> TripleStore:
    """User–user association triples for same-city users.

    The paper links users in the same location (``y_uu = 1``).  A full
    same-city clique grows quadratically in city population, so each user is
    linked to at most ``max_neighbors`` same-city peers (sampled without
    replacement); with the symmetric closure applied later this preserves the
    locality signal at bounded degree.
    """
    if max_neighbors <= 0:
        raise ValueError(f"max_neighbors must be positive, got {max_neighbors}")
    rng = ensure_rng(seed)
    store = TripleStore(space.num_entities)
    heads: List[np.ndarray] = []
    tails: List[np.ndarray] = []
    for city in range(population.num_cities):
        members = population.users_of_city(city)
        if len(members) < 2:
            continue
        for u in members:
            peers = members[members != u]
            if len(peers) > max_neighbors:
                peers = rng.choice(peers, size=max_neighbors, replace=False)
            heads.append(np.full(len(peers), u, dtype=np.int64))
            tails.append(peers.astype(np.int64))
    if heads:
        h = space.global_ids("user", np.concatenate(heads))
        t = space.global_ids("user", np.concatenate(tails))
        # Canonicalize each undirected pair as (min, max) before dedup; the
        # symmetric closure is added by TripleStore.with_inverses later.
        lo, hi = np.minimum(h, t), np.maximum(h, t)
        store.add_triples(INTERACT, lo, hi)
    return store.deduplicated()


def build_iag(
    space: EntitySpace, catalog: FacilityCatalog, sources: KnowledgeSources
) -> TripleStore:
    """Item–attribute triples for the enabled knowledge sources.

    Dispatches on catalog structure: catalogs whose sites carry city/state
    fields (GAGE-like) get the locatedAt→city→state hierarchy; otherwise
    (OOI-like) the locatedAt→array hierarchy plus instrument-class domain
    knowledge.
    """
    store = TripleStore(space.num_entities)
    items = np.arange(catalog.num_objects, dtype=np.int64)
    gage_like = _is_city_catalog(catalog)

    if sources.loc:
        # Items link to their location at every granularity the facility
        # publishes (the real portals tag products with site AND region),
        # all under one ``locatedAt`` relation; the hierarchy triples connect
        # the granularities to each other.
        store.add_triples(
            "locatedAt",
            space.global_ids("item", items),
            space.global_ids("site", catalog.object_site),
        )
        if gage_like:
            site_city = _site_city_codes(catalog)
            store.add_triples(
                "locatedAt",
                space.global_ids("item", items),
                space.global_ids("city", site_city[catalog.object_site]),
            )
            store.add_triples(
                "locatedAt",
                space.global_ids("item", items),
                space.global_ids("region", catalog.object_region),
            )
            sites = np.arange(catalog.num_sites, dtype=np.int64)
            store.add_triples(
                "siteInCity",
                space.global_ids("site", sites),
                space.global_ids("city", site_city),
            )
            city_state = _city_state_codes(catalog)
            cities = np.arange(len(city_state), dtype=np.int64)
            store.add_triples(
                "cityInState",
                space.global_ids("city", cities),
                space.global_ids("region", city_state),
            )
        else:
            store.add_triples(
                "locatedAt",
                space.global_ids("item", items),
                space.global_ids("region", catalog.object_region),
            )
            sites = np.arange(catalog.num_sites, dtype=np.int64)
            store.add_triples(
                "memberOfArray",
                space.global_ids("site", sites),
                space.global_ids("region", catalog.site_region),
            )

    if sources.dkg:
        store.add_triples(
            "hasDataType",
            space.global_ids("item", items),
            space.global_ids("dtype", catalog.object_dtype),
        )
        dtypes = np.arange(catalog.num_data_types, dtype=np.int64)
        store.add_triples(
            "hasDiscipline",
            space.global_ids("dtype", dtypes),
            space.global_ids("discipline", catalog.dtype_discipline),
        )
        if gage_like:
            # Portal products are tagged with their discipline directly.
            store.add_triples(
                "hasDiscipline",
                space.global_ids("item", items),
                space.global_ids("discipline", catalog.object_discipline),
            )
        else:
            store.add_triples(
                "generatedBy",
                space.global_ids("item", items),
                space.global_ids("class", catalog.object_class),
            )

    if sources.md:
        store.add_triples(
            "deliveryMethod",
            space.global_ids("item", items),
            space.global_ids("delivery", catalog.object_delivery),
        )
        group_codes = _class_group_codes(catalog)
        if gage_like:
            # GAGE stations host exactly one instrument whose class encodes
            # the network; both the station and each of its products carry
            # the network tag.
            site_class = np.full(catalog.num_sites, -1, dtype=np.int64)
            site_class[catalog.instrument_site] = catalog.instrument_class
            sites = np.arange(catalog.num_sites, dtype=np.int64)
            store.add_triples(
                "inNetwork",
                space.global_ids("site", sites),
                space.global_ids("group", group_codes[site_class]),
            )
            store.add_triples(
                "inNetwork",
                space.global_ids("item", items),
                space.global_ids("group", group_codes[site_class][catalog.object_site]),
            )
        else:
            classes = np.arange(catalog.num_instrument_classes, dtype=np.int64)
            store.add_triples(
                "inGroup",
                space.global_ids("class", classes),
                space.global_ids("group", group_codes),
            )
            has_level = catalog.object_level >= 0
            if has_level.any():
                store.add_triples(
                    "processingLevel",
                    space.global_ids("item", items[has_level]),
                    space.global_ids("level", catalog.object_level[has_level]),
                )
    return store.deduplicated()


# ----------------------------------------------------------- catalog coding
def _is_city_catalog(catalog: FacilityCatalog) -> bool:
    return any(s.city is not None for s in catalog.sites)


def city_names(catalog: FacilityCatalog) -> List[str]:
    """Sorted distinct site-city names of a GAGE-like catalog."""
    return sorted({s.city for s in catalog.sites if s.city is not None})


def _site_city_codes(catalog: FacilityCatalog) -> np.ndarray:
    names = city_names(catalog)
    code = {n: i for i, n in enumerate(names)}
    return np.array([code[s.city] for s in catalog.sites], dtype=np.int64)


def _city_state_codes(catalog: FacilityCatalog) -> np.ndarray:
    """Region (state) id of each city, indexed by city code."""
    names = city_names(catalog)
    code = {n: i for i, n in enumerate(names)}
    out = np.full(len(names), -1, dtype=np.int64)
    for s in catalog.sites:
        if s.city is not None:
            out[code[s.city]] = s.region_id
    if (out < 0).any():
        raise ValueError("city without a region encountered")
    return out


def _class_group_codes(catalog: FacilityCatalog) -> np.ndarray:
    groups = group_names(catalog)
    code = {g: i for i, g in enumerate(groups)}
    return np.array([code[c.group] for c in catalog.instrument_classes], dtype=np.int64)


def group_names(catalog: FacilityCatalog) -> List[str]:
    """Sorted distinct instrument-group (or network) names."""
    return sorted({c.group for c in catalog.instrument_classes})
