"""OOI-like facility builder.

The Ocean Observatories Initiative deploys instruments across 8 research
arrays and ~55 sites; the paper's trace involves 36 instrument classes
(Section III-B).  This module builds a synthetic catalog with that shape:
regions are the real OOI arrays (public information), sites are jittered
around array centers, instrument classes carry plausible oceanographic data
types across five disciplines, and data objects are instrument×data-type
products with delivery-method and processing-level metadata.

Scale knobs live on :class:`OOIConfig`; the defaults are calibrated so the
resulting collaborative knowledge graph approaches the paper's Table I
(≈1.3k entities, 8 relations, ≈5.5k KG triples).
"""

from __future__ import annotations

import dataclasses
from typing import List, Sequence, Tuple

import numpy as np

from repro.facility.catalog import (
    DataObject,
    DataType,
    FacilityCatalog,
    Instrument,
    InstrumentClass,
    Site,
)
from repro.facility.geo import GeoPoint, Region, jitter_around
from repro.utils.rng import ensure_rng

__all__ = ["OOIConfig", "build_ooi_catalog", "OOI_ARRAYS", "OOI_DISCIPLINES"]

# The eight OOI research arrays with approximate center coordinates
# (oceanobservatories.org; public metadata).
OOI_ARRAYS: Tuple[Tuple[str, float, float, float], ...] = (
    ("Cabled Axial Seamount", 45.95, -130.00, 120.0),
    ("Cabled Continental Margin", 44.57, -125.39, 150.0),
    ("Coastal Endurance", 44.64, -124.30, 220.0),
    ("Coastal Pioneer", 40.10, -70.88, 250.0),
    ("Global Argentine Basin", -42.98, -42.50, 300.0),
    ("Global Irminger Sea", 59.97, -39.47, 300.0),
    ("Global Southern Ocean", -54.47, -89.28, 300.0),
    ("Global Station Papa", 50.07, -144.80, 300.0),
)

OOI_DISCIPLINES: Tuple[str, ...] = (
    "Physical",
    "Chemical",
    "Biological",
    "Geological",
    "Engineering",
)

# (data type name, discipline) — oceanographic measurement vocabulary.
_OOI_DATA_TYPES: Tuple[Tuple[str, str], ...] = (
    ("Pressure", "Physical"),
    ("Temperature", "Physical"),
    ("Conductivity", "Physical"),
    ("Density", "Physical"),
    ("Salinity", "Physical"),
    ("Depth", "Physical"),
    ("Velocity", "Physical"),
    ("Wave Height", "Physical"),
    ("Irradiance", "Physical"),
    ("Oxygen", "Chemical"),
    ("pH", "Chemical"),
    ("pCO2", "Chemical"),
    ("Nitrate", "Chemical"),
    ("Phosphate", "Chemical"),
    ("Silicate", "Chemical"),
    ("Chlorophyll", "Biological"),
    ("CDOM", "Biological"),
    ("Bioacoustics", "Biological"),
    ("Zooplankton Counts", "Biological"),
    ("Turbidity", "Geological"),
    ("Seismic", "Geological"),
    ("Tilt", "Geological"),
    ("Hydrothermal Vent Chemistry", "Geological"),
    ("Battery Voltage", "Engineering"),
    ("System Status", "Engineering"),
)

# (instrument class name, group, data type names it measures)
_OOI_INSTRUMENT_CLASSES: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("CTD", "Water Column", ("Conductivity", "Temperature", "Depth", "Salinity", "Density")),
    ("BOTPT", "Seafloor", ("Pressure", "Tilt", "Seismic")),
    ("ADCP", "Water Column", ("Velocity", "Depth")),
    ("VELPT", "Water Column", ("Velocity",)),
    ("VEL3D", "Water Column", ("Velocity", "Turbidity")),
    ("DOSTA", "Water Column", ("Oxygen", "Temperature")),
    ("PHSEN", "Water Column", ("pH",)),
    ("PCO2W", "Water Column", ("pCO2",)),
    ("PCO2A", "Surface", ("pCO2",)),
    ("NUTNR", "Water Column", ("Nitrate",)),
    ("SPKIR", "Surface", ("Irradiance",)),
    ("PARAD", "Water Column", ("Irradiance",)),
    ("FLORT", "Water Column", ("Chlorophyll", "CDOM", "Turbidity")),
    ("FLORD", "Water Column", ("Chlorophyll", "CDOM")),
    ("OPTAA", "Water Column", ("Chlorophyll", "CDOM")),
    ("ZPLSC", "Water Column", ("Bioacoustics", "Zooplankton Counts")),
    ("ZPLSG", "Water Column", ("Bioacoustics",)),
    ("HYDBB", "Seafloor", ("Bioacoustics", "Seismic")),
    ("HYDLF", "Seafloor", ("Seismic",)),
    ("OBSBB", "Seafloor", ("Seismic",)),
    ("OBSSP", "Seafloor", ("Seismic", "Tilt")),
    ("PRESF", "Seafloor", ("Pressure", "Wave Height")),
    ("TMPSF", "Seafloor", ("Temperature",)),
    ("THSPH", "Seafloor", ("Hydrothermal Vent Chemistry", "Temperature")),
    ("TRHPH", "Seafloor", ("Hydrothermal Vent Chemistry", "Turbidity")),
    ("RASFL", "Seafloor", ("Hydrothermal Vent Chemistry",)),
    ("CAMDS", "Seafloor", ("System Status",)),
    ("CAMHD", "Seafloor", ("System Status", "Bioacoustics")),
    ("MOPAK", "Surface", ("Wave Height", "Velocity")),
    ("WAVSS", "Surface", ("Wave Height",)),
    ("METBK", "Surface", ("Temperature", "Irradiance", "Wave Height")),
    ("FDCHP", "Surface", ("pCO2", "Temperature")),
    ("ENG000", "Platform", ("Battery Voltage", "System Status")),
    ("STCENG", "Platform", ("Battery Voltage", "System Status")),
    ("DCLENG", "Platform", ("System Status",)),
    ("PPSDN", "Water Column", ("Zooplankton Counts", "Chlorophyll")),
)

_OOI_DELIVERY = ("Streamed", "Telemetered", "Recovered")
_OOI_LEVELS = ("L0 Raw", "L1 Calibrated", "L2 Derived")


@dataclasses.dataclass(frozen=True)
class OOIConfig:
    """Scale parameters for the OOI-like catalog.

    Defaults reproduce the shape reported in Section III-B: 36 instrument
    classes at 55 sites across 8 research arrays.
    """

    num_sites: int = 55
    instruments_per_site_mean: float = 4.5
    object_fraction: float = 0.62
    """Fraction of (instrument, data type) products actually published —
    real facilities do not serve every theoretical product, and this knob
    calibrates the CKG triple count toward Table I."""
    seed_sites_per_array_min: int = 3

    def __post_init__(self):
        if self.num_sites < len(OOI_ARRAYS) * self.seed_sites_per_array_min:
            raise ValueError(
                f"num_sites={self.num_sites} too small for "
                f"{len(OOI_ARRAYS)} arrays × {self.seed_sites_per_array_min} minimum sites"
            )
        if not 0.0 < self.object_fraction <= 1.0:
            raise ValueError(f"object_fraction must be in (0, 1], got {self.object_fraction}")


def build_ooi_catalog(config: OOIConfig = OOIConfig(), seed=0) -> FacilityCatalog:
    """Build an OOI-like :class:`FacilityCatalog`.

    Parameters
    ----------
    config:
        Scale parameters.
    seed:
        Integer seed or :class:`numpy.random.Generator`.
    """
    rng = ensure_rng(seed)

    regions = [
        Region(region_id=i, name=name, center=GeoPoint(lat, lon), radius_km=radius)
        for i, (name, lat, lon, radius) in enumerate(OOI_ARRAYS)
    ]

    data_types = [DataType(i, name, disc) for i, (name, disc) in enumerate(_OOI_DATA_TYPES)]
    dtype_by_name = {d.name: d.dtype_id for d in data_types}

    classes = [
        InstrumentClass(
            class_id=i,
            name=name,
            dtype_ids=tuple(dtype_by_name[t] for t in dtypes),
            group=group,
        )
        for i, (name, group, dtypes) in enumerate(_OOI_INSTRUMENT_CLASSES)
    ]

    # Distribute sites across arrays: each array gets a minimum, the rest
    # proportional to array radius (bigger arrays host more moorings).
    sites = _build_sites(regions, config, rng)

    # Deploy instruments: each site receives a Poisson-distributed number of
    # distinct instrument classes; cabled arrays skew toward seafloor
    # instrumentation, global arrays toward surface/water-column packages.
    instruments: List[Instrument] = []
    group_names = sorted({c.group for c in classes})
    region_weights = [_class_weights_for_region(r, classes, group_names) for r in regions]
    for site in sites:
        k = max(1, int(rng.poisson(config.instruments_per_site_mean)))
        k = min(k, len(classes))
        chosen = rng.choice(len(classes), size=k, replace=False, p=region_weights[site.region_id])
        for class_id in np.sort(chosen):
            instruments.append(
                Instrument(
                    instrument_id=len(instruments),
                    class_id=int(class_id),
                    site_id=site.site_id,
                    name=f"{classes[class_id].name}@{site.name}",
                )
            )

    # Publish data objects: every (instrument, measured data type, delivery
    # method) triple is a candidate product — the real OOI serves the same
    # measurement as separate streamed/telemetered/recovered products.  Keep
    # a calibrated fraction, each tagged with a processing level.
    objects: List[DataObject] = []
    for inst in instruments:
        for dtype_id in classes[inst.class_id].dtype_ids:
            for delivery in _OOI_DELIVERY:
                if rng.random() > config.object_fraction:
                    continue
                level = _OOI_LEVELS[int(rng.integers(len(_OOI_LEVELS)))]
                objects.append(
                    DataObject(
                        object_id=len(objects),
                        instrument_id=inst.instrument_id,
                        dtype_id=dtype_id,
                        delivery_method=delivery,
                        processing_level=level,
                    )
                )

    return FacilityCatalog(
        name="OOI-like",
        regions=regions,
        sites=sites,
        instrument_classes=classes,
        instruments=instruments,
        data_types=data_types,
        objects=objects,
        delivery_methods=list(_OOI_DELIVERY),
    )


def _build_sites(regions: Sequence[Region], config: OOIConfig, rng: np.random.Generator) -> List[Site]:
    n_arrays = len(regions)
    base = config.seed_sites_per_array_min
    remaining = config.num_sites - base * n_arrays
    radii = np.array([r.radius_km for r in regions], dtype=np.float64)
    probs = radii / radii.sum()
    extra = rng.multinomial(remaining, probs)
    sites: List[Site] = []
    for region, n_extra in zip(regions, extra):
        count = base + int(n_extra)
        lats, lons = jitter_around(region.center, region.radius_km, rng, n=count)
        for j in range(count):
            sites.append(
                Site(
                    site_id=len(sites),
                    name=f"{_array_code(region.name)}{j + 1:02d}",
                    region_id=region.region_id,
                    location=GeoPoint(float(lats[j]), float(lons[j])),
                )
            )
    return sites


def _array_code(name: str) -> str:
    return "".join(word[0] for word in name.split())


def _class_weights_for_region(
    region: Region, classes: Sequence[InstrumentClass], group_names: Sequence[str]
) -> np.ndarray:
    """Instrument-class sampling weights biased by array type.

    Cabled arrays (seafloor observatories) favor Seafloor instruments;
    Global arrays (open-ocean moorings) favor Surface and Platform packages;
    Coastal arrays are balanced.  This gives each region a distinctive
    instrument mix, which is what makes instrument locality informative.
    """
    if region.name.startswith("Cabled"):
        group_bias = {"Seafloor": 3.0, "Water Column": 1.0, "Surface": 0.3, "Platform": 0.7}
    elif region.name.startswith("Global"):
        group_bias = {"Seafloor": 0.3, "Water Column": 1.2, "Surface": 2.0, "Platform": 1.2}
    else:  # Coastal
        group_bias = {"Seafloor": 0.8, "Water Column": 1.5, "Surface": 1.2, "Platform": 0.8}
    weights = np.array([group_bias.get(c.group, 1.0) for c in classes], dtype=np.float64)
    return weights / weights.sum()

# OOI relation/metadata vocabulary re-exported for KG construction.
OOI_DELIVERY_METHODS = _OOI_DELIVERY
OOI_PROCESSING_LEVELS = _OOI_LEVELS
