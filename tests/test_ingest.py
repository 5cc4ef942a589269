"""File loading, great-circle distances, nearest-source matching, filters."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plumefront import ingest
from plumefront.errors import DataError, DomainError
from plumefront.ingest import (
    BRUTE_FORCE_MAX_PAIRS,
    EARTH_RADIUS_KM,
    GridObservation,
    SourceSite,
    build_sample,
    haversine_km,
    load_observations,
    load_sources,
    match_nearest_source,
)

lat_st = st.floats(-89.0, 89.0)
lon_st = st.floats(-179.0, 179.0)


class TestHaversine:
    def test_identical_points(self):
        assert haversine_km((35.2, -101.8), (35.2, -101.8)) == 0.0

    def test_antipodal_half_circumference(self):
        assert haversine_km((0.0, 0.0), (0.0, 180.0)) == pytest.approx(
            math.pi * EARTH_RADIUS_KM, rel=1e-12
        )

    def test_one_degree_at_equator(self):
        assert haversine_km((0.0, 0.0), (0.0, 1.0)) == pytest.approx(
            EARTH_RADIUS_KM * math.pi / 180.0, rel=1e-12
        )

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            haversine_km((91.0, 0.0), (0.0, 0.0))
        with pytest.raises(DomainError):
            haversine_km((0.0, 0.0), (0.0, 181.0))

    @settings(max_examples=100)
    @given(lat_st, lon_st, lat_st, lon_st)
    def test_symmetry(self, lat1, lon1, lat2, lon2):
        assert haversine_km((lat1, lon1), (lat2, lon2)) == pytest.approx(
            haversine_km((lat2, lon2), (lat1, lon1)), rel=1e-9, abs=1e-9
        )

    @settings(max_examples=100)
    @given(lat_st, lon_st, lat_st, lon_st, lat_st, lon_st)
    def test_triangle_inequality(self, lat1, lon1, lat2, lon2, lat3, lon3):
        a, b, c = (lat1, lon1), (lat2, lon2), (lat3, lon3)
        direct = haversine_km(a, c)
        detour = haversine_km(a, b) + haversine_km(b, c)
        assert direct <= detour * (1.0 + 1e-9) + 1e-9


class TestLoadSources:
    def _write(self, tmp_path, text):
        path = tmp_path / "sources.csv"
        path.write_text(text)
        return path

    def test_strict_capacity_cutoff(self, tmp_path):
        path = self._write(
            tmp_path,
            "id,lat,lon,capacity_mw\na,10,10,50\nb,11,11,100\nc,12,12,150\n",
        )
        sites = load_sources(path, min_capacity=100.0)
        assert [s.id for s in sites] == ["c"]

    def test_empty_file(self, tmp_path):
        path = self._write(tmp_path, "id,lat,lon,capacity_mw\n")
        assert load_sources(path) == []

    def test_malformed_row_cites_line(self, tmp_path):
        path = self._write(
            tmp_path,
            "id,lat,lon,capacity_mw\n"
            "a,10,10,500\n" "b,11,11,600\n" "c,12,12,700\n" "d,13,13,800\n"
            "e,14,14,900\n" "f,bad,15,950\n",
        )
        with pytest.raises(DataError, match="row 7"):
            load_sources(path)

    def test_duplicate_id_named(self, tmp_path):
        path = self._write(
            tmp_path, "id,lat,lon,capacity_mw\na,10,10,500\na,11,11,600\n"
        )
        with pytest.raises(DataError, match="'a'"):
            load_sources(path)

    def test_missing_columns_named(self, tmp_path):
        path = self._write(tmp_path, "id,lat,lon\na,10,10\n")
        with pytest.raises(DataError, match="capacity_mw"):
            load_sources(path)

    def test_coordinate_range_enforced(self, tmp_path):
        path = self._write(tmp_path, "id,lat,lon,capacity_mw\na,95,10,500\n")
        with pytest.raises(DataError, match="row 2"):
            load_sources(path)


class TestLoadObservations:
    def test_missing_outcome_becomes_none(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("lat,lon,period,outcome\n10,10,2019-01,\n10,10,2019-02,4.5\n")
        obs = load_observations(path)
        assert obs[0].outcome is None
        assert obs[1].outcome == 4.5

    def test_bad_period_rejected(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("lat,lon,period,outcome\n10,10,Jan-2019,1.0\n")
        with pytest.raises(DataError, match="period"):
            load_observations(path)


def _grid_fixture(n_side, n_sources, seed):
    rng = np.random.default_rng(seed)
    lat = np.linspace(29.0, 31.0, n_side)
    lon = np.linspace(-96.0, -94.0, n_side)
    observations = [
        GridObservation(lat=float(a), lon=float(b), period="2019-01", outcome=1.0)
        for a in lat
        for b in lon
    ]
    sources = [
        SourceSite(
            id=f"s{i}",
            lat=float(rng.uniform(28.5, 31.5)),
            lon=float(rng.uniform(-96.5, -93.5)),
            capacity_mw=500.0,
        )
        for i in range(n_sources)
    ]
    return observations, sources


class TestNearestSourceMatching:
    def _brute(self, observations, sources):
        ids, dists = [], []
        for o in observations:
            best = min(
                ((haversine_km((o.lat, o.lon), (s.lat, s.lon)), s.id) for s in sources),
            )
            ids.append(best[1])
            dists.append(best[0])
        return ids, dists

    def test_matches_exhaustive_search(self):
        observations, sources = _grid_fixture(22, 30, seed=0)
        matched = match_nearest_source(observations, sources)
        ids, dists = self._brute(observations, sources)
        assert [m.nearest_source_id for m in matched] == ids
        assert np.allclose([m.distance_km for m in matched], dists, rtol=1e-9)

    def test_tree_path_matches_exhaustive_search(self):
        # enough pairs to trigger the k-d tree branch
        observations, sources = _grid_fixture(60, 300, seed=1)
        assert len(observations) * len(sources) > 1_000_000
        matched = match_nearest_source(observations, sources)
        ids, dists = self._brute(observations, sources)
        assert [m.nearest_source_id for m in matched] == ids
        assert np.allclose([m.distance_km for m in matched], dists, rtol=1e-7, atol=1e-7)

    @staticmethod
    def _spy_on_pair_scan(monkeypatch):
        calls = []
        scan = ingest._haversine_matrix

        def spy(lat1, lon1, lat2, lon2):
            calls.append((len(lat1), len(lat2)))
            return scan(lat1, lon1, lat2, lon2)

        monkeypatch.setattr(ingest, "_haversine_matrix", spy)
        return calls

    def test_repeated_cells_are_scanned_once(self, monkeypatch):
        # every cell observed in 24 months: the rows exceed the pair limit,
        # the distinct cells do not, so the exact pair scan runs on the cells
        cells, sources = _grid_fixture(40, 300, seed=2)
        observations = [
            replace(o, period=f"{2019 + m // 12}-{m % 12 + 1:02d}")
            for m in range(24)
            for o in cells
        ]
        assert len(observations) * len(sources) > BRUTE_FORCE_MAX_PAIRS
        assert len(cells) * len(sources) <= BRUTE_FORCE_MAX_PAIRS
        # exhaustive search row by row, in chunks to bound the pair matrix
        src_lat = np.array([s.lat for s in sources])
        src_lon = np.array([s.lon for s in sources])
        ids, dists = [], []
        for k in range(0, len(observations), len(cells)):
            chunk = observations[k : k + len(cells)]
            dm = ingest._haversine_matrix(
                np.array([o.lat for o in chunk]), np.array([o.lon for o in chunk]),
                src_lat, src_lon,
            )
            best = np.argmin(dm, axis=1)
            ids += [sources[i].id for i in best]
            dists += list(dm[np.arange(len(chunk)), best])

        calls = self._spy_on_pair_scan(monkeypatch)
        matched = match_nearest_source(observations, sources)
        assert calls == [(len(cells), len(sources))]
        assert [m.nearest_source_id for m in matched] == ids
        assert np.allclose([m.distance_km for m in matched], dists, rtol=1e-12, atol=0.0)
        assert [(m.lat, m.lon, m.period) for m in matched] == [
            (o.lat, o.lon, o.period) for o in observations
        ]

    def test_tree_fixture_takes_tree_branch(self, monkeypatch):
        observations, sources = _grid_fixture(60, 300, seed=1)
        assert len(observations) * len(sources) > BRUTE_FORCE_MAX_PAIRS
        calls = self._spy_on_pair_scan(monkeypatch)
        match_nearest_source(observations, sources)
        assert calls == []


class TestBuildSample:
    S = [SourceSite(id="p", lat=30.0, lon=-95.0, capacity_mw=500.0)]

    def _obs(self, lat, lon, months, outcome=1.0):
        return [
            GridObservation(lat=lat, lon=lon, period=f"2019-{m:02d}", outcome=outcome)
            for m in months
        ]

    def test_distance_filter(self):
        near = self._obs(30.1, -95.0, range(1, 13))
        far = self._obs(32.5, -95.0, range(1, 13))  # ~278 km away
        sample = build_sample(near + far, self.S, max_distance_km=200.0)
        assert {o.lat for o in sample} == {30.1}

    def test_monthly_filter_per_cell_year(self):
        rich = self._obs(30.1, -95.0, range(1, 13))
        poor = self._obs(30.2, -95.0, range(1, 10))  # 9 months only
        sample = build_sample(rich + poor, self.S, min_monthly_obs_per_year=10)
        assert {o.lat for o in sample} == {30.1}

    def test_cell_kept_in_good_year_dropped_in_bad_year(self):
        good = self._obs(30.1, -95.0, range(1, 13))
        bad = [
            GridObservation(lat=30.1, lon=-95.0, period=f"2020-{m:02d}", outcome=1.0)
            for m in range(1, 4)
        ]
        sample = build_sample(good + bad, self.S, min_monthly_obs_per_year=10)
        years = {o.year for o in sample}
        assert years == {2019}

    def test_invalid_outcomes_dropped(self):
        obs = self._obs(30.1, -95.0, range(1, 13))
        missing = [GridObservation(lat=30.1, lon=-95.0, period="2019-01", outcome=None)]
        negative = [GridObservation(lat=30.1, lon=-95.0, period="2019-02", outcome=-1.0)]
        sample = build_sample(obs + missing + negative, self.S)
        assert len(sample) == 12

    def test_idempotent(self):
        observations, sources = _grid_fixture(10, 5, seed=2)
        rich = [
            GridObservation(lat=o.lat, lon=o.lon, period=f"2019-{m:02d}", outcome=1.0)
            for o in observations[:20]
            for m in range(1, 13)
        ]
        once = build_sample(rich, sources)
        twice = build_sample(once, sources)
        assert once == twice

    def test_empty_inputs_rejected(self):
        with pytest.raises(DataError):
            build_sample([], self.S)
        with pytest.raises(DataError):
            build_sample(self._obs(30.1, -95.0, [1]), [])
