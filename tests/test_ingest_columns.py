"""The columnar ingest behind `plumefront ingest` against the row API.

The command reads, checks, matches and filters observation columns; the row
functions (`load_observations`, `build_sample`) are adapters over the same
core.  These tests hold the two to the same table, the same JSON payload and
the same error rows.
"""

import csv
import json

import numpy as np
import pytest

from plumefront.cli import dispatch
from plumefront.errors import DataError
from plumefront.ingest import (
    build_sample,
    haversine_km,
    load_observations,
    load_sources,
    read_numeric_columns,
)

COLUMNS = ["lat", "lon", "period", "outcome", "nearest_source_id", "distance_km"]


def _write_inputs(tmp_path, seed=3, delimiter="\t"):
    """Sources and a messy observations file: missing, negative and nan
    outcomes, short cell-years, cells repeated over months and years, and a
    short row without an outcome field."""
    rng = np.random.default_rng(seed)
    src = tmp_path / "sources.tsv"
    src_rows = ["id", "lat", "lon", "capacity_mw"], *(
        [f"P{i}", f"{rng.uniform(30, 32):.4f}", f"{rng.uniform(-96, -94):.4f}",
         f"{rng.choice([50.0, 250.0, 900.0])}"] for i in range(12)
    )
    src.write_text("\n".join(delimiter.join(r) for r in src_rows) + "\n")
    rows = [["lat", "lon", "period", "outcome"]]
    for lat in np.round(np.linspace(29.0, 33.0, 7), 3):
        for lon in np.round(np.linspace(-97.0, -93.0, 6), 3):
            for year in (2019, 2020):
                months = range(1, rng.choice([13, 13, 11, 10, 9]))
                for month in months:
                    u = rng.random()
                    outcome = ("" if u < 0.05 else "-0.5" if u < 0.08 else "nan" if u < 0.1
                               else f"{rng.lognormal(0.0, 0.5):.6g}")
                    rows.append([f"{lat}", f"{lon}", f"{year}-{month:02d}", outcome])
    rows.insert(5, rows[5][:3])  # a short row: no outcome field, read as missing
    obs = tmp_path / "obs.tsv"
    obs.write_text("\n".join(delimiter.join(r) for r in rows) + "\n")
    return src, obs


def _reference_sample(src, obs):
    """The sample row by row: dict-of-sets month counts, exhaustive matching."""
    with open(src, newline="") as fh:
        sources = [(r["id"], float(r["lat"]), float(r["lon"]))
                   for r in csv.DictReader(fh, delimiter="\t") if float(r["capacity_mw"]) > 100]
    with open(obs, newline="") as fh:
        rows = [r for r in csv.DictReader(fh, delimiter="\t")
                if (r["outcome"] or "").strip() and float(r["outcome"]) >= 0]
    near = []
    for r in rows:
        lat, lon = float(r["lat"]), float(r["lon"])
        dist, sid = min((haversine_km((lat, lon), (a, b)), i) for i, a, b in sources)
        if dist <= 200.0:
            near.append((lat, lon, r["period"], float(r["outcome"]), sid, dist))
    months = {}
    for lat, lon, period, *_ in near:
        months.setdefault((lat, lon, period[:4]), set()).add(period)
    return [o for o in near if len(months[(o[0], o[1], o[2][:4])]) >= 10]


def _run(argv, capsys):
    code = dispatch(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _row_api_sample(src, obs):
    return build_sample(load_observations(obs), load_sources(src))


def test_cli_table_equals_row_api_sample(tmp_path, capsys):
    src, obs = _write_inputs(tmp_path)
    code, out, err = _run(["ingest", "--sources", str(src), "--observations", str(obs)], capsys)
    assert code == 0, err
    sample = _row_api_sample(src, obs)
    assert 0 < len(sample) < len(load_observations(obs))
    reference = _reference_sample(src, obs)
    assert [(o.lat, o.lon, o.period, o.outcome, o.nearest_source_id) for o in sample] == [
        r[:5] for r in reference
    ]
    np.testing.assert_allclose([o.distance_km for o in sample], [r[5] for r in reference],
                               rtol=1e-12)
    expected = ["\t".join(COLUMNS)] + [
        "\t".join([f"{o.lat:.10g}", f"{o.lon:.10g}", o.period, f"{o.outcome:.10g}",
                   o.nearest_source_id, f"{o.distance_km:.10g}"])
        for o in sample
    ]
    assert out.splitlines() == expected
    read = len(load_observations(obs))
    assert f"# ingested {len(sample)} observations ({read} read, " in err


def test_json_payload_has_numbers_and_equals_row_api(tmp_path, capsys):
    src, obs = _write_inputs(tmp_path, seed=4, delimiter=",")
    code, out, _ = _run(["ingest", "--sources", str(src), "--observations", str(obs),
                         "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload == [{c: getattr(o, c) for c in COLUMNS} for o in _row_api_sample(src, obs)]
    for record in payload:
        assert all(isinstance(record[c], float) for c in ("lat", "lon", "outcome", "distance_km"))


def test_csv_table_equals_row_api_byte_for_byte(tmp_path, capsys):
    # cells repeat over months, and two of them sit at lon -0.0000 and 0.0000:
    # each keeps its own text, "-0" and "0"
    src = tmp_path / "sources.tsv"
    src.write_text("id\tlat\tlon\tcapacity_mw\nW\t51.5\t-0.2\t500\nE\t51.4\t0.3\t800\n")
    rows = ["lat\tlon\tperiod\toutcome"]
    for lat, lon in [("51.5000", "-0.0000"), ("51.5000", "0.0000"), ("-0.0000", "0.1000"),
                     ("51.4500", "0.2500"), ("51.4500", "-0.1250")]:
        rows += [f"{lat}\t{lon}\t2020-{m:02d}\t{1.0 + 0.1 * m:.3f}" for m in range(1, 13)]
    obs = tmp_path / "obs.tsv"
    obs.write_text("\n".join(rows) + "\n")
    out = tmp_path / "sample.tsv"
    code, _, err = _run(["ingest", "--sources", str(src), "--observations", str(obs),
                         "--out", str(out)], capsys)
    assert code == 0, err
    sample = _row_api_sample(src, obs)
    assert len(sample) == 48  # the cell at the equator is over 200 km away
    expected = "".join(
        "\t".join([f"{o.lat:.10g}", f"{o.lon:.10g}", o.period, f"{o.outcome:.10g}",
                   o.nearest_source_id, f"{o.distance_km:.10g}"]) + "\n"
        for o in sample)
    assert out.read_bytes() == ("\t".join(COLUMNS) + "\n" + expected).encode()
    assert b"\t-0\t" in out.read_bytes() and b"\t0\t" in out.read_bytes()


def _bad_file(tmp_path, k, bad_row):
    """An observations file whose row k (the header is row 1) is bad_row."""
    good = [f"30.{i},-95,2019-{i % 12 + 1:02d},1.5" for i in range(10)]
    good[k - 2] = bad_row
    path = tmp_path / "obs.csv"
    path.write_text("lat,lon,period,outcome\n" + "\n".join(good) + "\n")
    return path


@pytest.mark.parametrize("k, bad_row, message", [
    (5, "north,-95,2019-03,1.0", "row 5: column 'lat' is not numeric: 'north'"),
    (7, "30.5,-181,2019-03,1.0", "row 7: longitude -181.0 outside [-180, 180]"),
    (9, "30.5,-95,03/2019,1.0", "row 9: period '03/2019' is not YYYY-MM"),
])
def test_bad_row_is_cited_by_row_api_and_cli(tmp_path, capsys, k, bad_row, message):
    obs = _bad_file(tmp_path, k, bad_row)
    with pytest.raises(DataError) as excinfo:
        load_observations(obs)
    assert str(excinfo.value) == message
    src = tmp_path / "sources.csv"
    src.write_text("id,lat,lon,capacity_mw\np,30,-95,500\n")
    code, out, err = _run(["ingest", "--sources", str(src), "--observations", str(obs)], capsys)
    assert code == 2
    assert out == ""
    assert f"error: {message}\n" in err


def test_first_bad_row_in_file_order_wins(tmp_path):
    # row 4 fails the range check, row 6 the parse: row 4 is reported, and a
    # row failing two checks reports the one a row meets first (the period)
    obs = _bad_file(tmp_path, 4, "95,-95,2019-03,1.0")
    lines = obs.read_text().splitlines()
    lines[5] = "x,-95,2019-3x,1.0"
    obs.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match=r"^row 4: latitude 95.0 outside \[-90, 90\]$"):
        load_observations(obs)
    lines[3] = lines[2]
    obs.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match=r"^row 6: period '2019-3x' is not YYYY-MM$"):
        load_observations(obs)


def test_row_number_counts_blank_lines_and_multiline_fields(tmp_path):
    # "row N" is the file line a row ends on: the blank line 3 and the quoted
    # field spanning lines 4-5 both count, and neither is a row of its own
    obs = tmp_path / "obs.csv"
    obs.write_text('lat,lon,period,outcome\n30.1,-95,2019-01,1.5\n\n'
                   '30.2,-95,2019-02,"1.5\n"\nnorth,-95,2019-03,1.0\n')
    with pytest.raises(DataError) as excinfo:
        load_observations(obs)
    assert str(excinfo.value) == "row 6: column 'lat' is not numeric: 'north'"
    table = tmp_path / "table.csv"
    table.write_text('distance_km,outcome\n1,2\n\n2,"3\n"\nx,4\n')
    with pytest.raises(DataError) as excinfo:
        read_numeric_columns(table, ["distance_km", "outcome"])
    assert str(excinfo.value) == f"{table} row 6: column 'distance_km' is not numeric: 'x'"
    table.write_text('distance_km,outcome\n1,2\n\n2,"3\n"\n5,4\n')
    d, y = read_numeric_columns(table, ["distance_km", "outcome"])
    assert d.tolist() == [1.0, 2.0, 5.0] and y.tolist() == [2.0, 3.0, 4.0]


def test_nan_coordinate_is_out_of_range(tmp_path):
    obs = _bad_file(tmp_path, 3, "nan,-95,2019-03,1.0")
    with pytest.raises(DataError, match=r"^row 3: latitude nan outside \[-90, 90\]$"):
        load_observations(obs)
