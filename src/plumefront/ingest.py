"""Load source sites and grid observations, match cells to nearest sources.

Input files are delimited text with a header; columns are referenced by
name, never by position.  The sources file carries id, lat, lon,
capacity_mw (finite, >= 0); the observations file carries lat, lon, period
(YYYY-MM, month 01-12), outcome (usable when finite and >= 0; empty reads as
NaN).  Distances are great-circle kilometres on the mean Earth radius
6371.0088 km.

Observations are read, checked, matched and filtered as numpy columns
(`read_observation_columns`, `sample_rows`), a period as its month code
year * 12 + month - 1; the row functions `load_observations`,
`match_nearest_source` and `build_sample` are adapters that build a
GridObservation only for each row they return.

Nearest-source matching runs once per distinct (lat, lon) cell, by one search
at every size: the largest dot product of unit vectors (squared chords within
1 km, where products lose precision), then the haversine distance of the pick,
which is within about 1e-8 km of the nearest source's.
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
import operator
import re
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DomainError

EARTH_RADIUS_KM = 6371.0088
SEARCH_BLOCK_PAIRS = 1 << 17  # dot products formed at once: 1 MB, which stays in cache
NEAR_COS = math.cos(1.0 / EARTH_RADIUS_KM)  # 1 km: farther picks are within ~1e-8 km

SOURCE_COLUMNS = ("id", "lat", "lon", "capacity_mw")
OBSERVATION_COLUMNS = ("lat", "lon", "period", "outcome")
_PERIOD = re.compile(r"([0-9]{4})-(0[1-9]|1[0-2])")  # YYYY-MM: ASCII digits, month 01-12


@dataclass(frozen=True)
class SourceSite:
    id: str
    lat: float
    lon: float
    capacity_mw: float

    def __post_init__(self):
        _check_coords(self.lat, self.lon)
        if not 0 <= self.capacity_mw < math.inf:
            raise DomainError(f"capacity must be a finite number >= 0, got {self.capacity_mw}")


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
        if not isinstance(self.period, str) or _period_code(self.period) < 0:
            raise DomainError(f"period {self.period!r} is not YYYY-MM")
        if (self.nearest_source_id is None) != (self.distance_km is None):
            raise DomainError("distance_km must be present exactly when nearest_source_id is")

    @property
    def year(self) -> int:
        return _period_code(self.period) // 12


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
    return float(_haversine(lat1, lon1, lat2, lon2))


def _haversine(lat1, lon1, lat2, lon2) -> np.ndarray:
    """Great-circle distance in km, elementwise over arrays that broadcast together."""
    phi1, phi2 = np.radians(lat1), np.radians(lat2)
    dphi = phi2 - phi1
    dlam = np.radians(lon2) - np.radians(lon1)
    s = np.sin(0.5 * dphi) ** 2 + np.cos(phi1) * np.cos(phi2) * np.sin(0.5 * dlam) ** 2
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.minimum(1.0, np.sqrt(s)))


def _unit_vectors(lat, lon) -> np.ndarray:
    phi, lam = np.radians(lat), np.radians(lon)
    return np.column_stack([np.cos(phi) * np.cos(lam), np.cos(phi) * np.sin(lam), np.sin(phi)])


def _read_text_columns(path, names, label):
    """(delimiter, the named columns as tuples of text, the line lookup).

    names: two or more column names.  None for a file with no header.  The
    delimiter is a tab when the first 4 kB hold more tabs than commas.  Blank
    lines are skipped; a short row reads None past its end and a repeated
    header name its last column, as csv.DictReader would.  Only the named
    fields of a row are kept.  The lookup maps a row's index in the columns
    to the file line it ends on; it reads the file again, so it is called
    only for the row an error message cites.
    """
    with open(path, newline="", encoding="utf-8") as handle:
        sample = handle.read(4096)
        handle.seek(0)
        delimiter = "\t" if sample.count("\t") > sample.count(",") else ","
        _, header, rows = _data_rows(handle, delimiter)
        if header is None:
            return None
        missing = [n for n in names if n not in header]
        if missing:
            raise DataError(f"{label} missing columns: {', '.join(missing)}")
        index = {n: i for i, n in enumerate(header)}
        position = [index[n] for n in names]
        get, top, pad = operator.itemgetter(*position), max(position), [None] * len(header)
        picked = [get(row if len(row) > top else row + pad) for row in rows]
    columns = list(zip(*picked)) or [()] * len(names)
    return delimiter, columns, functools.partial(_line_number, path, delimiter)


def _data_rows(handle, delimiter):
    """(the csv reader, its header or None, its non-blank rows after it).

    The one rule for which rows are data, shared by `_read_text_columns` and
    `_line_number` so that a row's index maps to its line."""
    reader = csv.reader(handle, delimiter=delimiter)
    return reader, next(reader, None), filter(None, reader)


def _line_number(path, delimiter, index):
    """The line on which row `index` of the columns of `_read_text_columns`
    ends, as its csv reader counts lines (a quoted field may span several)."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader, _, rows = _data_rows(handle, delimiter)
        ends = (reader.line_num for _ in rows)
        return next(itertools.islice(ends, index, None))


def _float_column(texts):
    """float() of every text (NaN where it fails) and the mask of failures."""
    values, bad = np.full(len(texts), np.nan), np.zeros(len(texts), bool)
    try:
        values[:] = list(map(float, texts))
    except (TypeError, ValueError):
        for i, text in enumerate(texts):
            try:
                values[i] = float(text)
            except (TypeError, ValueError):
                bad[i] = True
    return values, bad


def _raise_first(line_number, checks, where=""):
    """Raise DataError for the first row in file order that fails a check.

    checks: (mask of failing rows, message of row i and its label "row N"),
    in the order one row is checked, so a row failing two reports the first;
    line_number(i) is the N of row i.
    """
    failed = [(int(np.argmax(bad)), k) for k, (bad, _) in enumerate(checks) if bad.any()]
    if failed:
        i, k = min(failed)
        raise DataError(checks[k][1](i, f"{where}row {line_number(i)}"))


def _not_numeric(column, texts):
    return lambda i, row: f"{row}: column {column!r} is not numeric: {texts[i]!r}"


def read_numeric_columns(path, names) -> list[np.ndarray]:
    """The named columns of a delimited table as float arrays.

    The first cell that is not a number is reported with its row; a file
    with no header is a DataError.
    """
    table = _read_text_columns(path, names, f"{path}:")
    if table is None:
        raise DataError(f"{path}: empty input file")
    _, texts, line_number = table
    parsed = [_float_column(t) for t in texts]
    _raise_first(line_number,
                 [(bad, _not_numeric(n, t)) for n, t, (_, bad) in zip(names, texts, parsed)],
                 f"{path} ")
    return [values for values, _ in parsed]


def _coordinate_checks(lat, lon):
    # NaN fails both comparisons: a NaN coordinate is out of range
    return [
        (~((lat >= -90.0) & (lat <= 90.0)),
         lambda i, row: f"{row}: latitude {float(lat[i])} outside [-90, 90]"),
        (~((lon >= -180.0) & (lon <= 180.0)),
         lambda i, row: f"{row}: longitude {float(lon[i])} outside [-180, 180]"),
    ]


def _period_code(text: str) -> int:
    """The month code year * 12 + month - 1 of a YYYY-MM text, or -1 for any other text."""
    match = _PERIOD.fullmatch(text)
    return int(match[1]) * 12 + int(match[2]) - 1 if match else -1


def period_text(codes: list[int]) -> list[str]:
    """The YYYY-MM text of each month code, formatting each distinct code once."""
    text = {code: f"{code // 12:04d}-{code % 12 + 1:02d}" for code in set(codes)}
    return [text[code] for code in codes]


def load_sources(path, min_capacity: float = 100.0) -> list[SourceSite]:
    """Read source sites, keeping rows with capacity strictly above the cutoff.

    Parse failures cite the offending file row; duplicate ids are rejected
    by name.
    """
    table = _read_text_columns(path, SOURCE_COLUMNS, "sources file")
    if table is None:
        return []
    _, (raw_id, lat_text, lon_text, capacity_text), line_number = table
    ids = [(text or "").strip() for text in raw_id]
    first = {}
    repeated = np.array([first.setdefault(sid, k) != k for k, sid in enumerate(ids)], dtype=bool)
    (lat, bad_lat), (lon, bad_lon), (capacity, bad_capacity) = map(
        _float_column, (lat_text, lon_text, capacity_text))
    _raise_first(line_number, [
        (np.array([not sid for sid in ids], dtype=bool), lambda i, row: f"{row}: empty source id"),
        (repeated, lambda i, row: f"duplicate source id {ids[i]!r} at {row}"),
        (bad_lat, _not_numeric("lat", lat_text)),
        (bad_lon, _not_numeric("lon", lon_text)),
        (bad_capacity, _not_numeric("capacity_mw", capacity_text)),
        *_coordinate_checks(lat, lon),
        (~(np.isfinite(capacity) & (capacity >= 0)),
         lambda i, row: f"{row}: capacity must be a finite number >= 0, got {float(capacity[i])}"),
    ])
    return [SourceSite(id=sid, lat=a, lon=b, capacity_mw=c)
            for sid, a, b, c in zip(ids, lat.tolist(), lon.tolist(), capacity.tolist())
            if c > min_capacity]


def _observation_columns(observations) -> dict:
    return {"lat": np.array([o.lat for o in observations], dtype=float),
            "lon": np.array([o.lon for o in observations], dtype=float),
            "period": np.array([_period_code(o.period) for o in observations], dtype=np.int64),
            "outcome": np.array([np.nan if o.outcome is None else o.outcome
                                 for o in observations], dtype=float)}


def read_observation_columns(path) -> tuple[dict, str]:
    """Grid observations as columns, in file order, and the file's delimiter.

    The columns are arrays keyed lat, lon, period (int64 month codes, year *
    12 + month - 1) and outcome (float; NaN where the field is empty).  Each
    distinct period text is parsed once and the coordinates are checked by
    array masks; the first bad row in file order is reported with the first
    check it fails.
    """
    table = _read_text_columns(path, OBSERVATION_COLUMNS, "observations file")
    if table is None:
        return _observation_columns([]), ","
    delimiter, (lat_text, lon_text, raw_period, raw_outcome), line_number = table
    code = {raw: _period_code((raw or "").strip()) for raw in set(raw_period)}
    period = np.fromiter((code[raw] for raw in raw_period), np.int64, len(raw_period))
    outcome_text = [(text or "").strip() for text in raw_outcome]
    outcome, bad_outcome = _float_column([text or "nan" for text in outcome_text])
    (lat, bad_lat), (lon, bad_lon) = _float_column(lat_text), _float_column(lon_text)
    _raise_first(line_number, [
        (period < 0,
         lambda i, row: f"{row}: period {(raw_period[i] or '').strip()!r} is not YYYY-MM"),
        (bad_outcome, _not_numeric("outcome", outcome_text)),
        (bad_lat, _not_numeric("lat", lat_text)),
        (bad_lon, _not_numeric("lon", lon_text)),
        *_coordinate_checks(lat, lon),
    ])
    return dict(lat=lat, lon=lon, period=period, outcome=outcome), delimiter


def load_observations(path) -> list[GridObservation]:
    """Read grid observations; a NaN outcome (an empty field or nan) reads as None."""
    obs, _ = read_observation_columns(path)
    return [GridObservation(lat=a, lon=b, period=p, outcome=None if math.isnan(v) else v)
            for a, b, p, v in zip(obs["lat"].tolist(), obs["lon"].tolist(),
                                  period_text(obs["period"].tolist()), obs["outcome"].tolist())]


def _nearest(lat, lon, sources):
    """(nearest source index, distance, cell) of every point; each distinct
    (lat, lon) cell is matched once, by the largest dot product of unit vectors,
    SEARCH_BLOCK_PAIRS at a time.  A product near 1 resolves angles only to
    ~1e-15 / angle: cells within 1 km of their pick take the smallest squared chord."""
    if not sources:
        raise DataError("no sources to match against")
    # The complex key lat + i lon sorts by (lat, lon); it finds the same cells
    # as np.unique(axis=0) on the coordinate pairs, about ten times faster.
    cells, row_cell = np.unique(lat + 1j * lon, return_inverse=True)
    src_lat = np.array([s.lat for s in sources])
    src_lon = np.array([s.lon for s in sources])
    # one row per distinct site: BLAS may round the products of equal rows apart
    sites, first = np.unique(src_lat + 1j * src_lon, return_index=True)
    points, xyz = _unit_vectors(cells.real, cells.imag), _unit_vectors(sites.real, sites.imag)
    best, rows = np.empty(len(cells), dtype=np.intp), max(1, SEARCH_BLOCK_PAIRS // len(sites))
    for lo in range(0, len(cells), rows):
        np.argmax(points[lo:lo + rows] @ xyz.T, axis=1, out=best[lo:lo + rows])
    near = np.flatnonzero(np.einsum("ij,ij->i", points, xyz[best]) > NEAR_COS)
    for lo in range(0, len(near), rows):
        part = near[lo:lo + rows]
        best[part] = np.square(points[part, None, :] - xyz).sum(axis=2).argmin(axis=1)
    idx = first[best]
    dist = _haversine(cells.real, cells.imag, src_lat[idx], src_lon[idx])
    return idx[row_cell], dist[row_cell], row_cell


def _matched(observations, sources, idx, dist) -> list[GridObservation]:
    return [GridObservation(lat=o.lat, lon=o.lon, period=o.period, outcome=o.outcome,
                            nearest_source_id=sources[i].id, distance_km=d)
            for o, i, d in zip(observations, idx.tolist(), dist.tolist())]


def match_nearest_source(observations, sources):
    """Attach nearest_source_id and distance_km to every observation.

    Each distinct (lat, lon) is matched once and its result shared by every
    row at that cell; sources at the same coordinates resolve to the first.
    """
    observations = list(observations)
    obs = _observation_columns(observations)
    return _matched(observations, sources, *_nearest(obs["lat"], obs["lon"], sources)[:2])


def sample_rows(obs: dict, sources, max_distance_km: float = 200.0,
                min_monthly_obs_per_year: int = 10):
    """`build_sample` on observation columns: (rows of obs in input order,
    their nearest source index, distance)."""
    if obs["lat"].size == 0 or not sources:
        raise DataError("build_sample requires non-empty observations and sources")
    rows = np.flatnonzero(np.isfinite(obs["outcome"]) & (obs["outcome"] >= 0))
    idx, dist, cell = _nearest(obs["lat"][rows], obs["lon"][rows], sources)
    near = dist <= max_distance_km
    rows, idx, dist, cell = rows[near], idx[near], dist[near], cell[near]
    # count the distinct months (code % 12) of each cell-year (code // 12)
    period = obs["period"][rows]
    years, year = np.unique(period // 12, return_inverse=True)
    cell_years, cell_year = np.unique(cell * len(years) + year, return_inverse=True)
    seen = np.zeros((len(cell_years), 12), dtype=bool)
    seen[cell_year, period % 12] = True
    months = np.count_nonzero(seen, axis=1)
    keep = months[cell_year] >= min_monthly_obs_per_year
    return rows[keep], idx[keep], dist[keep]


def build_sample(
    observations,
    sources,
    max_distance_km: float = 200.0,
    min_monthly_obs_per_year: int = 10,
) -> list[GridObservation]:
    """Construct the analysis sample: valid, matched, near, well-observed.

    A valid observation has a finite outcome >= 0.  Each valid observation
    is matched to its nearest source and kept when that distance is within
    max_distance_km; cell-years with fewer than
    min_monthly_obs_per_year distinct observed months are then dropped (the
    filter applies per cell-year, so a cell can contribute some years and
    not others).
    """
    observations, sources = list(observations), list(sources)
    rows, idx, dist = sample_rows(_observation_columns(observations), sources,
                                  max_distance_km, min_monthly_obs_per_year)
    return _matched([observations[r] for r in rows.tolist()], sources, idx, dist)
