"""Synthetic large-science-facility simulators.

The paper analyzes one-year proprietary query traces from two real NSF
facilities — the Ocean Observatories Initiative (OOI) and the Geodetic
Facility for the Advancement of Geoscience (GAGE).  Those traces are not
publicly available, so this subpackage builds the closest synthetic
equivalent (see DESIGN.md §2):

- :mod:`~repro.facility.geo` — coordinates, haversine distance, named regions;
- :mod:`~repro.facility.catalog` — the facility schema (sites, instrument
  classes, data types, disciplines, data objects) and the
  :class:`~repro.facility.catalog.FacilityCatalog` container;
- :mod:`~repro.facility.ooi` / :mod:`~repro.facility.gage` — parametric
  builders producing OOI-like and GAGE-like catalogs whose scale matches the
  paper's Table I;
- :mod:`~repro.facility.users` — organizations and user populations with
  geographic placement;
- :mod:`~repro.facility.affinity` — the Section-III affinity model
  (instrument locality, data-domain, user association) as an explicit,
  parameterized object;
- :mod:`~repro.facility.trace` — the query-trace generator driven by the
  affinity model, producing :class:`~repro.facility.trace.QueryTrace`.

The generators are calibrated so the statistics the paper *measures* on its
traces (Fig 3 heavy-tailed per-user query distributions, the 43.1%/36.3%
same-region and 51.6%/68.8% same-data-type query fractions, Fig 5 same-city
likelihood ratios) re-emerge when the analysis code in :mod:`repro.analysis`
is run on the synthetic traces.
"""

from repro.facility.affinity import AffinityModel
from repro.facility.catalog import (
    DataObject,
    DataType,
    FacilityCatalog,
    Instrument,
    InstrumentClass,
    Site,
)
from repro.facility.gage import GAGEConfig, build_gage_catalog
from repro.facility.geo import GeoPoint, Region, haversine_km
from repro.facility.ooi import OOIConfig, build_ooi_catalog
from repro.facility.trace import QueryTrace, TraceGenerator, generate_trace
from repro.facility.users import Organization, UserPopulation, build_user_population

__all__ = [
    "GeoPoint",
    "Region",
    "haversine_km",
    "DataType",
    "InstrumentClass",
    "Site",
    "Instrument",
    "DataObject",
    "FacilityCatalog",
    "OOIConfig",
    "build_ooi_catalog",
    "GAGEConfig",
    "build_gage_catalog",
    "Organization",
    "UserPopulation",
    "build_user_population",
    "AffinityModel",
    "QueryTrace",
    "TraceGenerator",
    "generate_trace",
]
