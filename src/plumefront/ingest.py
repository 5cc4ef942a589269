"""Load source sites and grid observations, match cells to nearest sources.

Input files are delimited text with a header; columns are referenced by
name, never by position.  The sources file carries id, lat, lon,
capacity_mw; the observations file carries lat, lon, period (YYYY-MM),
outcome (may be empty for missing).  Distances are great-circle kilometres
on the mean Earth radius 6371.0088 km.

Nearest-source matching is exact and runs once per distinct (lat, lon) cell:
small problems scan all cell-source pairs, large ones use a k-d tree on
unit-sphere 3D coordinates (chord length is monotone in central angle, so the
chord-nearest source is the haversine-nearest one).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError, DomainError

EARTH_RADIUS_KM = 6371.0088
BRUTE_FORCE_MAX_PAIRS = 1_000_000

SOURCE_COLUMNS = ("id", "lat", "lon", "capacity_mw")
OBSERVATION_COLUMNS = ("lat", "lon", "period", "outcome")


@dataclass(frozen=True)
class SourceSite:
    id: str
    lat: float
    lon: float
    capacity_mw: float

    def __post_init__(self):
        _check_coords(self.lat, self.lon)
        if self.capacity_mw < 0:
            raise DomainError(f"capacity must be >= 0, got {self.capacity_mw}")


@dataclass(frozen=True)
class GridObservation:
    lat: float
    lon: float
    period: str  # YYYY-MM
    outcome: float | None
    nearest_source_id: str | None = None
    distance_km: float | None = None

    def __post_init__(self):
        _check_coords(self.lat, self.lon)
        if (self.nearest_source_id is None) != (self.distance_km is None):
            raise DomainError("distance_km must be present exactly when nearest_source_id is")

    @property
    def year(self) -> int:
        return int(self.period.split("-")[0])


def _check_coords(lat: float, lon: float):
    if not -90.0 <= lat <= 90.0:
        raise DomainError(f"latitude {lat} outside [-90, 90]")
    if not -180.0 <= lon <= 180.0:
        raise DomainError(f"longitude {lon} outside [-180, 180]")


def haversine_km(a, b) -> float:
    """Great-circle distance in km between two (lat, lon) points in degrees."""
    lat1, lon1 = a
    lat2, lon2 = b
    _check_coords(lat1, lon1)
    _check_coords(lat2, lon2)
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = phi2 - phi1
    dlam = math.radians(lon2 - lon1)
    s = math.sin(0.5 * dphi) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(0.5 * dlam) ** 2
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(s)))


def _haversine_matrix(lat1, lon1, lat2, lon2) -> np.ndarray:
    """Pairwise distances (rows: first set, cols: second set), vectorised."""
    phi1 = np.radians(lat1)[:, None]
    phi2 = np.radians(lat2)[None, :]
    dphi = phi2 - phi1
    dlam = np.radians(lon2)[None, :] - np.radians(lon1)[:, None]
    s = np.sin(0.5 * dphi) ** 2 + np.cos(phi1) * np.cos(phi2) * np.sin(0.5 * dlam) ** 2
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.minimum(1.0, np.sqrt(s)))


def _unit_vectors(lat, lon) -> np.ndarray:
    phi = np.radians(lat)
    lam = np.radians(lon)
    return np.column_stack(
        [np.cos(phi) * np.cos(lam), np.cos(phi) * np.sin(lam), np.sin(phi)]
    )


def _parse_float(text: str, column: str, line_num: int) -> float:
    try:
        return float(text)
    except (TypeError, ValueError):
        raise DataError(f"row {line_num}: column {column!r} is not numeric: {text!r}") from None


def _open_reader(path):
    handle = open(path, newline="", encoding="utf-8")
    sample = handle.read(4096)
    handle.seek(0)
    delimiter = "\t" if sample.count("\t") > sample.count(",") else ","
    return handle, csv.DictReader(handle, delimiter=delimiter)


def load_sources(path, min_capacity: float = 100.0) -> list[SourceSite]:
    """Read source sites, keeping rows with capacity strictly above the cutoff.

    Parse failures cite the offending file row; duplicate ids are rejected
    by name.
    """
    handle, reader = _open_reader(path)
    with handle:
        if reader.fieldnames is None:
            return []
        missing = [c for c in SOURCE_COLUMNS if c not in reader.fieldnames]
        if missing:
            raise DataError(f"sources file missing columns: {', '.join(missing)}")
        seen = set()
        sites = []
        for row in reader:
            line = reader.line_num
            sid = (row["id"] or "").strip()
            if not sid:
                raise DataError(f"row {line}: empty source id")
            if sid in seen:
                raise DataError(f"duplicate source id {sid!r} at row {line}")
            seen.add(sid)
            try:
                site = SourceSite(
                    id=sid,
                    lat=_parse_float(row["lat"], "lat", line),
                    lon=_parse_float(row["lon"], "lon", line),
                    capacity_mw=_parse_float(row["capacity_mw"], "capacity_mw", line),
                )
            except DomainError as exc:
                raise DataError(f"row {line}: {exc}") from None
            if site.capacity_mw > min_capacity:
                sites.append(site)
        return sites


def load_observations(path) -> list[GridObservation]:
    """Read grid observations; an empty outcome field means missing."""
    handle, reader = _open_reader(path)
    with handle:
        if reader.fieldnames is None:
            return []
        missing = [c for c in OBSERVATION_COLUMNS if c not in reader.fieldnames]
        if missing:
            raise DataError(f"observations file missing columns: {', '.join(missing)}")
        out = []
        for row in reader:
            line = reader.line_num
            period = (row["period"] or "").strip()
            parts = period.split("-")
            if len(parts) != 2 or len(parts[0]) != 4 or not parts[0].isdigit() or not parts[1].isdigit():
                raise DataError(f"row {line}: period {period!r} is not YYYY-MM")
            raw = (row["outcome"] or "").strip()
            outcome = None if raw == "" else _parse_float(raw, "outcome", line)
            try:
                out.append(
                    GridObservation(
                        lat=_parse_float(row["lat"], "lat", line),
                        lon=_parse_float(row["lon"], "lon", line),
                        period=period,
                        outcome=outcome,
                    )
                )
            except DomainError as exc:
                raise DataError(f"row {line}: {exc}") from None
        return out


def match_nearest_source(observations, sources):
    """Attach nearest_source_id and distance_km to every observation.

    Each distinct (lat, lon) is matched once and its result shared by every
    row at that cell.  Exact for any input size; the k-d tree path kicks in
    above one million cell-source pairs.
    """
    if not sources:
        raise DataError("no sources to match against")
    obs_lat = np.array([o.lat for o in observations])
    obs_lon = np.array([o.lon for o in observations])
    # The complex key lat + i lon sorts by (lat, lon); it finds the same cells
    # as np.unique(axis=0) on the coordinate pairs, about ten times faster.
    cells, row_cell = np.unique(obs_lat + 1j * obs_lon, return_inverse=True)
    src_lat = np.array([s.lat for s in sources])
    src_lon = np.array([s.lon for s in sources])

    if len(cells) * len(sources) <= BRUTE_FORCE_MAX_PAIRS:
        dm = _haversine_matrix(cells.real, cells.imag, src_lat, src_lon)
        idx = np.argmin(dm, axis=1)
        dist = dm[np.arange(len(cells)), idx]
    else:
        from scipy.spatial import cKDTree

        tree = cKDTree(_unit_vectors(src_lat, src_lon))
        chord, idx = tree.query(_unit_vectors(cells.real, cells.imag))
        dist = 2.0 * EARTH_RADIUS_KM * np.arcsin(np.minimum(1.0, 0.5 * chord))

    return [
        replace(o, nearest_source_id=sources[int(i)].id, distance_km=float(dd))
        for o, i, dd in zip(observations, idx[row_cell], dist[row_cell])
    ]


def build_sample(
    observations,
    sources,
    max_distance_km: float = 200.0,
    min_monthly_obs_per_year: int = 10,
) -> list[GridObservation]:
    """Construct the analysis sample: valid, matched, near, well-observed.

    A valid observation has a non-missing, non-negative outcome.  Each valid
    observation is matched to its nearest source and kept when that distance
    is within max_distance_km; cell-years with fewer than
    min_monthly_obs_per_year distinct observed months are then dropped (the
    filter applies per cell-year, so a cell can contribute some years and
    not others).
    """
    observations = list(observations)
    sources = list(sources)
    if not observations or not sources:
        raise DataError("build_sample requires non-empty observations and sources")

    valid = [o for o in observations if o.outcome is not None and o.outcome >= 0]
    matched = match_nearest_source(valid, sources)
    near = [o for o in matched if o.distance_km <= max_distance_km]

    months_per_cell_year: dict[tuple, set] = {}
    for o in near:
        key = (o.lat, o.lon, o.year)
        months_per_cell_year.setdefault(key, set()).add(o.period)
    return [
        o
        for o in near
        if len(months_per_cell_year[(o.lat, o.lon, o.year)]) >= min_monthly_obs_per_year
    ]
