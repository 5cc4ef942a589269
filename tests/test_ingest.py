"""File loading, great-circle distances, nearest-source matching, filters."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plumefront import ingest
from plumefront.cli import dispatch
from plumefront.errors import DataError, DomainError
from plumefront.ingest import (
    EARTH_RADIUS_KM,
    GridObservation,
    SourceSite,
    build_sample,
    haversine_km,
    load_observations,
    load_sources,
    match_nearest_source,
    read_numeric_columns,
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


class TestFileWithNoHeader:
    """A 0-byte file has no header row: the source and observation readers
    read it as no rows, the numeric-table reader rejects it."""

    def test_sources_are_empty(self, tmp_path):
        path = tmp_path / "sources.csv"
        path.write_text("")
        assert load_sources(path) == []

    def test_observations_are_empty(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("")
        assert load_observations(path) == []

    def test_numeric_table_is_data_error(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("")
        with pytest.raises(DataError, match="empty input file"):
            read_numeric_columns(path, ["distance_km", "outcome"])


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


def _global_fixture(seed):
    """Cells on a 5-degree grid of latitudes from pole to pole, at longitudes
    on both sides of the antimeridian and around the globe; sources anywhere,
    a few of them next to the antimeridian and the poles."""
    rng = np.random.default_rng(seed)
    lat = np.linspace(-90.0, 90.0, 37)
    lon = np.concatenate([np.linspace(-180.0, -170.0, 6), np.linspace(170.0, 180.0, 6),
                          [-120.0, -60.0, 0.0, 60.0, 120.0]])
    observations = [GridObservation(lat=float(a), lon=float(b), period="2019-01", outcome=1.0)
                    for a in lat for b in lon]
    src_lat = np.concatenate([rng.uniform(-90.0, 90.0, 60), [89.9, -89.95, 10.0, -10.0]])
    src_lon = np.concatenate([rng.uniform(-180.0, 180.0, 60), [45.0, -135.0, 179.95, -179.9]])
    sources = [SourceSite(id=f"s{i}", lat=float(a), lon=float(b), capacity_mw=500.0)
               for i, (a, b) in enumerate(zip(src_lat, src_lon))]
    return observations, sources


def _metre_fixture(seed):
    """2,000 cells and 200 sources, all within 11 m of each other."""
    rng = np.random.default_rng(seed)
    observations = [GridObservation(lat=30.0 + a, lon=-95.0 + b, period="2019-01", outcome=1.0)
                    for a, b in rng.uniform(0.0, 1e-4, (2000, 2)).tolist()]
    sources = [SourceSite(id=f"s{i}", lat=30.0 + a, lon=-95.0 + b, capacity_mw=500.0)
               for i, (a, b) in enumerate(rng.uniform(0.0, 1e-4, (200, 2)).tolist())]
    return observations, sources


class TestNearestSourceMatching:
    @pytest.mark.parametrize("source_id,distance", [("a", None), (None, 3.0)],
                             ids=["id_only", "distance_only"])
    def test_match_fields_come_together(self, source_id, distance):
        with pytest.raises(DomainError, match="distance_km must be present exactly when"):
            GridObservation(lat=10.0, lon=10.0, period="2019-01", outcome=1.0,
                            nearest_source_id=source_id, distance_km=distance)

    def test_no_sources_is_data_error(self):
        observations = [GridObservation(lat=10.0, lon=10.0, period="2019-01", outcome=1.0)]
        with pytest.raises(DataError, match="no sources to match against"):
            match_nearest_source(observations, [])

    @staticmethod
    def _brute(observations, sources):
        """haversine_km to every source; the lowest index among equals."""
        ids, dists = [], []
        for o in observations:
            best = min((haversine_km((o.lat, o.lon), (s.lat, s.lon)), k)
                       for k, s in enumerate(sources))
            ids.append(sources[best[1]].id)
            dists.append(best[0])
        return ids, dists

    def _assert_exhaustive(self, observations, sources):
        matched = match_nearest_source(observations, sources)
        ids, dists = self._brute(observations, sources)
        assert [m.nearest_source_id for m in matched] == ids
        assert np.allclose([m.distance_km for m in matched], dists, rtol=1e-12, atol=1e-9)

    def test_matches_exhaustive_search(self):
        observations, sources = _grid_fixture(22, 30, seed=0)
        matched = match_nearest_source(observations, sources)
        ids, dists = self._brute(observations, sources)
        assert [m.nearest_source_id for m in matched] == ids
        assert np.allclose([m.distance_km for m in matched], dists, rtol=1e-9)

    def test_large_input_matches_exhaustive_search(self):
        # more than a million cell-source pairs, several search blocks
        observations, sources = _grid_fixture(60, 300, seed=1)
        assert len(observations) * len(sources) > 1_000_000
        self._assert_exhaustive(observations, sources)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_global_cells_match_exhaustive_search(self, seed):
        # across the antimeridian and up to both poles, where longitudes wrap
        self._assert_exhaustive(*_global_fixture(seed))

    def test_cells_metres_from_sources_match_exhaustive_search(self):
        # dot products of unit vectors resolve angles only to about 1e-15 /
        # angle: alone they would pick a source up to 0.1 m too far for one
        # cell in 50 here; squared chords settle the cells within 1 km of one
        self._assert_exhaustive(*_metre_fixture(7))

    def test_sources_at_the_same_coordinates_resolve_to_the_first(self):
        observations, sources = _grid_fixture(22, 300, seed=5)
        # three copies of one site spread through the list, and a pair at its
        # ends on a corner cell of the grid
        sources[0] = replace(sources[0], lat=29.0, lon=-96.0)
        sources[7] = replace(sources[7], lat=30.0, lon=-95.0)
        for k in (40, 151, 297):
            sources[k] = replace(sources[7], id=f"copy{k}")
        sources[299] = replace(sources[0], id="copy299")
        matched = match_nearest_source(observations, sources)
        ids = [m.nearest_source_id for m in matched]
        assert ids == self._brute(observations, sources)[0]
        assert "s7" in ids and "s0" in ids
        assert not any(i.startswith("copy") for i in ids)

    @pytest.mark.parametrize("fixture", [lambda: _grid_fixture(22, 30, seed=6),
                                         lambda: _metre_fixture(8)], ids=["km", "metres"])
    def test_block_size_does_not_change_the_result(self, monkeypatch, fixture):
        observations, sources = fixture()
        results = []
        # all cells in one block, 7 cells a block, one cell a block
        for pairs in (len(observations) * len(sources), 7 * len(sources), 1):
            monkeypatch.setattr(ingest, "SEARCH_BLOCK_PAIRS", pairs)
            results.append(match_nearest_source(observations, sources))
        assert results[1] == results[0] and results[2] == results[0]

    def test_no_observations_give_no_matches(self):
        _, sources = _grid_fixture(2, 30, seed=0)
        assert match_nearest_source([], sources) == []

    def test_cli_ingest_of_only_invalid_outcomes_is_a_header(self, tmp_path, capsys):
        # every outcome missing or negative: the search runs over zero cells
        src, obs = tmp_path / "sources.csv", tmp_path / "obs.csv"
        src.write_text("id,lat,lon,capacity_mw\np,30,-95,500\n")
        obs.write_text("lat,lon,period,outcome\n"
                       + "".join(f"30.1,-95,2019-{m:02d},{'' if m % 2 else -1}\n"
                                 for m in range(1, 13)))
        assert dispatch(["ingest", "--sources", str(src), "--observations", str(obs)]) == 0
        captured = capsys.readouterr()
        assert captured.out == "lat,lon,period,outcome,nearest_source_id,distance_km\n"
        assert "# ingested 0 observations (12 read, 1 sources kept)" in captured.err

    def test_repeated_cells_are_scanned_once(self, monkeypatch):
        # every cell observed in 24 months: the search runs once, on the
        # distinct cells, and its results are shared by their rows
        cells, sources = _grid_fixture(40, 300, seed=2)
        observations = [
            replace(o, period=f"{2019 + m // 12}-{m % 12 + 1:02d}")
            for m in range(24)
            for o in cells
        ]
        # exhaustive search row by row, in chunks to bound the pair matrix
        src_lat = np.array([s.lat for s in sources])
        src_lon = np.array([s.lon for s in sources])
        ids, dists = [], []
        for k in range(0, len(observations), len(cells)):
            chunk = observations[k : k + len(cells)]
            dm = ingest._haversine(
                np.array([o.lat for o in chunk])[:, None], np.array([o.lon for o in chunk])[:, None],
                src_lat, src_lon,
            )
            best = np.argmin(dm, axis=1)
            ids += [sources[i].id for i in best]
            dists += list(dm[np.arange(len(chunk)), best])

        calls = []
        unit_vectors = ingest._unit_vectors

        def spy(lat, lon):
            calls.append(len(lat))
            return unit_vectors(lat, lon)

        monkeypatch.setattr(ingest, "_unit_vectors", spy)
        matched = match_nearest_source(observations, sources)
        assert calls == [len(cells), len(sources)]
        assert [m.nearest_source_id for m in matched] == ids
        assert np.allclose([m.distance_km for m in matched], dists, rtol=1e-12, atol=0.0)
        assert [(m.lat, m.lon, m.period) for m in matched] == [
            (o.lat, o.lon, o.period) for o in observations
        ]


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
