"""The Section-III affinity model, as an explicit parameterized object.

The paper measures three affinities in the real traces:

1. **Instrument locality** — on average 43.1% (OOI) / 36.3% (GAGE) of a
   user's queries target data objects from instruments in one region;
2. **Data-domain affinity** — 51.6% (OOI) / 68.8% of a user's queries target
   one data type;
3. **User association** — users from the same organization/city have highly
   similar query patterns (Fig 4 t-SNE clusters; Fig 5 likelihood ratios).

:class:`AffinityModel` turns those three numbers into a per-user categorical
distribution over data objects.  A query first (independently) decides
whether to respect the user's focus region and focus data type, then samples
an item uniformly from the matching set weighted by global item popularity.
Because focus is shared within organizations (see
:mod:`repro.facility.users`), affinity 3 emerges from 1+2 without extra
machinery — exactly the mechanism the paper hypothesizes.

The trace generators use the closed form of that per-query process:
:meth:`AffinityModel.unique_user_mixtures` builds one expected item
distribution per distinct (focus site, focus data type) key, all keys in one
broadcast, and :meth:`AffinityModel.mixture_distribution` is the same
builder for a single key.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple

import numpy as np

from repro.facility.catalog import FacilityCatalog
from repro.facility.users import UserPopulation
from repro.utils.validation import check_probability

__all__ = ["AffinityModel", "OOI_AFFINITY", "GAGE_AFFINITY"]

#: Block size of the batched mixture builder, in (key, object) cells: its
#: float64 temporaries stay at 64 KB each, in cache, however many keys a
#: catalog has.  On OOI full (65 keys × 789 objects) this ran ~1.5x faster
#: than one block of all keys, and 1.3x faster than 2**14 or 2**15 cells.
_MIXTURE_BLOCK_CELLS = 1 << 13

#: Fewest keys in a block.  On a catalog of thousands of objects the cell
#: budget alone allows one or two keys per block, and then the per-block
#: Python overhead outweighs any cache gain (the scale recipe's 3,287
#: objects would take ~1,500 blocks).  OOI full keeps its 10 keys a block.
_MIXTURE_BLOCK_MIN_KEYS = 8


@dataclasses.dataclass(frozen=True)
class AffinityModel:
    """Per-query affinity strengths.

    Parameters
    ----------
    p_region:
        Probability a query is confined to the user's focus region
        (calibrates the paper's same-region query fraction).
    p_dtype:
        Probability a query is confined to the user's focus data type.
    popularity_exponent:
        Items within the admissible set are drawn proportionally to
        ``(1 + popularity_rank)^-popularity_exponent``; 0 gives uniform.
        Heavy-tailed item popularity is what produces the Fig-3 curves.
    """

    p_region: float
    p_dtype: float
    popularity_exponent: float = 0.8
    site_concentration: float = 8.0
    """Within a region-gated query, the focus *site*'s objects are this many
    times likelier than the region's other sites — research groups watch
    specific moorings/stations, which is what makes instrument locality a
    fine-grained signal (Fig 5 measures it at site granularity)."""

    def __post_init__(self):
        check_probability("p_region", self.p_region)
        check_probability("p_dtype", self.p_dtype)
        if self.popularity_exponent < 0:
            raise ValueError(f"popularity_exponent must be >= 0, got {self.popularity_exponent}")
        if self.site_concentration < 1.0:
            raise ValueError(f"site_concentration must be >= 1, got {self.site_concentration}")

    def item_distribution(
        self,
        catalog: FacilityCatalog,
        focus_region: int,
        focus_dtype: int,
        rng: np.random.Generator,
        base_popularity: Optional[np.ndarray] = None,
        focus_site: Optional[int] = None,
    ) -> np.ndarray:
        """Categorical distribution over data objects for one query decision.

        The region/data-type gates are sampled *per call*, so repeated calls
        for the same user yield the mixture the affinity probabilities
        describe.  ``base_popularity`` (unnormalized, length ``num_objects``)
        lets callers share one popularity vector across users.
        """
        n = catalog.num_objects
        if n == 0:
            raise ValueError("catalog has no data objects")
        pop = base_popularity if base_popularity is not None else self.popularity_weights(n, rng)
        weights = pop.astype(np.float64).copy()
        if rng.random() < self.p_region:
            mask = catalog.object_region == focus_region
            if mask.any():
                weights = np.where(mask, weights, 0.0)
                if focus_site is not None:
                    weights = weights * self._site_boost(catalog, focus_site)
        if rng.random() < self.p_dtype:
            mask = catalog.object_dtype == focus_dtype
            if mask.any() and (weights * mask).sum() > 0:
                weights = np.where(mask, weights, 0.0)
        total = weights.sum()
        if total <= 0:
            weights = pop.astype(np.float64).copy()
            total = weights.sum()
        return weights / total

    def _site_boost(self, catalog: FacilityCatalog, focus_site: int) -> np.ndarray:
        """Multiplicative weight favoring the focus site's objects."""
        boost = np.ones(catalog.num_objects, dtype=np.float64)
        boost[catalog.object_site == focus_site] = self.site_concentration
        return boost

    def mixture_distribution(
        self,
        catalog: FacilityCatalog,
        focus_region: int,
        focus_dtype: int,
        base_popularity: Optional[np.ndarray] = None,
        focus_site: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """The *expected* per-query item distribution for a user (closed form).

        Mixing the four gate outcomes analytically lets the trace generator
        draw all of a user's queries from one categorical instead of gating
        per query — orders of magnitude faster and statistically identical
        (queries are i.i.d. given the user).  Callers either share a
        precomputed ``base_popularity`` vector or pass the ``rng`` that draws
        the popularity permutation.  This is the one-row call of the builder
        :meth:`unique_user_mixtures` runs over every (site, dtype) key.
        """
        if base_popularity is None:
            if rng is None:
                raise ValueError("mixture_distribution needs rng when base_popularity is not given")
            base_popularity = self.popularity_weights(catalog.num_objects, rng)
        sites = None if focus_site is None else np.array([focus_site], dtype=np.int64)
        return self._mixture_rows(
            catalog,
            base_popularity,
            np.array([focus_region], dtype=np.int64),
            np.array([focus_dtype], dtype=np.int64),
            sites,
        )[0]

    def _mixture_rows(
        self,
        catalog: FacilityCatalog,
        base_popularity: np.ndarray,
        regions: np.ndarray,
        dtypes: np.ndarray,
        sites: Optional[np.ndarray],
    ) -> np.ndarray:
        """Expected item distributions of K (region, dtype[, site]) keys, shape (K, N).

        One broadcast over (key, object), run in key blocks of at most
        ``_MIXTURE_BLOCK_CELLS`` cells (but at least
        ``_MIXTURE_BLOCK_MIN_KEYS`` keys) so the temporaries stay small on
        catalogs with thousands of keys.  A row does not depend on its
        block: its elementwise steps run in the one-key order, and a row sum
        over the last axis of a C-contiguous block is the 1-D sum of that
        row.
        """
        n = catalog.num_objects
        pop = base_popularity.astype(np.float64)
        # Fallbacks mirror item_distribution's gate semantics exactly: an
        # empty region gate is skipped; a dtype gate that would empty the
        # result is skipped (keeping whatever the region gate produced).
        free = pop / pop.sum()
        pr, pd = self.p_region, self.p_dtype
        out = np.empty((len(regions), n), dtype=np.float64)
        block = max(_MIXTURE_BLOCK_MIN_KEYS, _MIXTURE_BLOCK_CELLS // max(n, 1))
        for lo in range(0, len(regions), block):
            keys = slice(lo, lo + block)
            # Boolean masks multiply as 0.0/1.0, so these products are the
            # float-mask products bit for bit, without the casting passes.
            region_mask = catalog.object_region == regions[keys, None]
            if sites is not None:
                region_mask = region_mask * np.where(
                    catalog.object_site == sites[keys, None], self.site_concentration, 1.0
                )
            dtype_mask = catalog.object_dtype == dtypes[keys, None]
            pop_region = pop * region_mask
            pop_both = pop_region * dtype_mask
            region_mass = pop_region.sum(axis=1, keepdims=True)
            region_only = _normalize_or(pop_region, region_mass, free)
            dtype_only = _normalize_or(pop * dtype_mask, None, free)
            both = _normalize_or(pop_both, None, region_only)
            if not (region_mass > 0).all():
                both = np.where(region_mass > 0, both, dtype_only)
            # The sum of the four gate outcomes, term by term in the order
            # of pr*pd*both + pr*(1-pd)*region_only + ..., accumulated in place.
            mix = out[keys]
            np.multiply(both, pr * pd, out=mix)
            mix += pr * (1 - pd) * region_only
            mix += (1 - pr) * pd * dtype_only
            mix += (1 - pr) * (1 - pd) * free
        return out

    def popularity_weights(self, num_objects: int, rng: np.random.Generator) -> np.ndarray:
        """Zipf-like unnormalized popularity over object ids.

        Ranks are assigned by a pseudorandom permutation of object ids drawn
        from the caller's ``rng`` — one draw per trace, shared across every
        user (see :meth:`unique_user_mixtures`), so popularity ranks are consistent
        within a generated trace while remaining a function of the caller's
        seed.  The permutation matters: object ids are emitted
        instrument-by-instrument, so rank-by-id would place all the most
        popular objects on one instrument/site and popularity would
        masquerade as locality.
        """
        ranks = np.arange(1, num_objects + 1, dtype=np.float64)
        weights = ranks**-self.popularity_exponent
        perm = rng.permutation(num_objects)
        return weights[perm]

    def unique_user_mixtures(
        self, catalog: FacilityCatalog, population: UserPopulation, rng: np.random.Generator
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Deduplicated mixture rows plus the per-user row index.

        Users sharing (focus_site, focus_dtype) share a distribution; the
        site determines the region, so each distinct combination is computed
        once.  Returns ``(rows, inverse)`` with ``rows`` of shape (K, N) and
        ``inverse`` of length M such that user ``u``'s distribution is
        ``rows[inverse[u]]``.  K is bounded by sites×dtypes regardless of the
        population size, so no caller ever holds an M×N matrix.  ``rng``
        draws the popularity permutation once, shared by every row.
        """
        pop = self.popularity_weights(catalog.num_objects, rng)
        nd = catalog.num_data_types
        keys = population.user_focus_site * nd + population.user_focus_dtype
        uniq, inverse = np.unique(keys, return_inverse=True)
        sites = uniq // nd
        rows = self._mixture_rows(catalog, pop, catalog.site_region[sites], uniq % nd, sites)
        return rows, inverse


def _normalize_or(
    weights: np.ndarray, mass: Optional[np.ndarray], fallback: np.ndarray
) -> np.ndarray:
    """Rows of ``weights`` over their ``mass`` (row sums), or ``fallback`` where that is 0.

    Divides ``weights`` in place when every row has mass, the common case.
    """
    if mass is None:
        mass = weights.sum(axis=1, keepdims=True)
    positive = mass > 0
    if positive.all():
        weights /= mass
        return weights
    return np.where(positive, weights / np.where(positive, mass, 1.0), fallback)


# Calibrated presets: chosen so the *measured* same-region / same-data-type
# query fractions (repro.analysis.locality.query_concentration) land near the
# paper's Section III-B2 numbers (OOI 43.1% region / 51.6% data type; GAGE
# 36.3% / 68.8%).  The gate probabilities sit below the targets because
# ungated queries also land in the user's focus region/type by chance, which
# the measurement counts.
OOI_AFFINITY = AffinityModel(p_region=0.36, p_dtype=0.53, popularity_exponent=0.8, site_concentration=20.0)
GAGE_AFFINITY = AffinityModel(p_region=0.25, p_dtype=0.67, popularity_exponent=0.8, site_concentration=20.0)
