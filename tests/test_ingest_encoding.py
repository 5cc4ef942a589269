"""One encoding per observation field: integer month codes for periods, NaN
as the only unusable outcome, and a finite capacity >= 0 for sources.

Each bad value is a typed error that cites its row, or, for an outcome that
is not finite, a row dropped from the sample.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plumefront import ingest
from plumefront.cli import dispatch
from plumefront.errors import DataError, DomainError
from plumefront.ingest import (
    GridObservation,
    SourceSite,
    build_sample,
    load_observations,
    load_sources,
    period_text,
    read_observation_columns,
)

PERIOD_SPEC = re.compile(r"^[0-9]{4}-(0[1-9]|1[0-2])$")
SOURCES = "id,lat,lon,capacity_mw\np,30,-95,500\n"


def _files(tmp_path, obs_rows, sources=SOURCES):
    src, obs = tmp_path / "sources.csv", tmp_path / "obs.csv"
    src.write_text(sources)
    obs.write_text("lat,lon,period,outcome\n" + "".join(f"{row}\n" for row in obs_rows))
    return src, obs


def _ingest(src, obs, capsys):
    code = dispatch(["ingest", "--sources", str(src), "--observations", str(obs)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _nine_months_and(extra):
    """Two cells with months 2020-01..09 each, and `extra` as one more period
    of each: ten distinct periods per cell-year, if `extra` were a month."""
    rows = []
    for lat in ("30.1", "30.2"):
        rows += [f"{lat},-95,2020-{m:02d},1.0" for m in range(1, 10)]
        rows.append(f"{lat},-95,{extra},1.0")
    return rows


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.text(),
    st.from_regex(r"[0-9]{3,5}-[0-9]{1,3}", fullmatch=True),
    st.text(alphabet="0123456789-\n ١²", max_size=9),
))
def test_period_code_agrees_with_the_format(text):
    code = ingest._period_code(text)
    if PERIOD_SPEC.fullmatch(text):
        assert code == int(text[:4]) * 12 + int(text[5:]) - 1
    else:
        assert code == -1


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 9999 * 12 + 11), max_size=20))
def test_period_text_round_trips_every_code(codes):
    texts = period_text(codes)
    assert all(PERIOD_SPEC.fullmatch(text) for text in texts)
    assert [ingest._period_code(text) for text in texts] == codes


def test_columns_hold_month_codes_and_nan_outcomes(tmp_path):
    _, obs = _files(tmp_path, ["30.1,-95,2019-01,", "30.1,-95, 2019-12 ,nan",
                               "30.1,-95,2020-01,inf", "30.1,-95,0000-01,-1"])
    columns, delimiter = read_observation_columns(obs)
    assert sorted(columns) == ["lat", "lon", "outcome", "period"]
    assert delimiter == ","
    assert columns["period"].dtype == np.int64
    assert columns["period"].tolist() == [2019 * 12, 2019 * 12 + 11, 2020 * 12, 0]
    assert columns["outcome"].tolist()[2:] == [np.inf, -1.0]
    assert np.isnan(columns["outcome"][:2]).all()
    # the row API reads every NaN outcome, from an empty field or from nan, as None
    assert [o.outcome for o in load_observations(obs)] == [None, None, np.inf, -1.0]
    assert [o.period for o in load_observations(obs)] == ["2019-01", "2019-12", "2020-01",
                                                          "0000-01"]


@pytest.mark.parametrize("period", ["2020-13", "2020-00", "2020-1", "20201-01", "2020-01x"])
def test_period_outside_the_format_is_cited(tmp_path, capsys, period):
    # at 01-09 plus the bad period each cell-year would pass --min-months 10
    src, obs = _files(tmp_path, _nine_months_and(period))
    message = f"row 11: period {period!r} is not YYYY-MM"
    with pytest.raises(DataError) as excinfo:
        load_observations(obs)
    assert str(excinfo.value) == message
    code, out, err = _ingest(src, obs, capsys)
    assert (code, out) == (2, "")
    assert f"error: {message}\n" in err


def test_outcome_that_is_not_finite_is_dropped(tmp_path, capsys):
    # an inf outcome is unusable as nan is: it leaves the sample, and its month
    # does not count toward the cell-year's ten
    rows = [f"30.1,-95,2020-{m:02d},1.5" for m in range(1, 11)]
    rows += [f"30.2,-95,2020-{m:02d},{'inf' if m == 3 else '2.5'}" for m in range(1, 11)]
    rows.append("30.1,-95,2020-11,-inf")
    src, obs = _files(tmp_path, rows)
    code, out, err = _ingest(src, obs, capsys)
    assert code == 0
    assert "# ingested 10 observations (21 read, 1 sources kept)" in err
    table = out.splitlines()
    assert len(table) == 11 and not any("inf" in line for line in table)
    assert all(line.startswith("30.1,-95,2020-") for line in table[1:])
    sample = build_sample(load_observations(obs), load_sources(src))
    assert [(o.lat, o.period, o.outcome) for o in sample] == [
        (30.1, f"2020-{m:02d}", 1.5) for m in range(1, 11)
    ]


@pytest.mark.parametrize("capacity", ["nan", "inf", "-inf"])
def test_capacity_that_is_not_finite_is_cited(tmp_path, capsys, capacity):
    sources = f"id,lat,lon,capacity_mw\np,30,-95,500\nq,31,-95,{capacity}\n"
    src, obs = _files(tmp_path, [f"30.1,-95,2020-{m:02d},1.0" for m in range(1, 13)], sources)
    message = f"row 3: capacity must be a finite number >= 0, got {float(capacity)}"
    with pytest.raises(DataError) as excinfo:
        load_sources(src)
    assert str(excinfo.value) == message
    code, out, err = _ingest(src, obs, capsys)
    assert (code, out) == (2, "")
    assert f"error: {message}\n" in err
    with pytest.raises(DomainError, match="capacity must be a finite number >= 0"):
        SourceSite(id="q", lat=31.0, lon=-95.0, capacity_mw=float(capacity))


@pytest.mark.parametrize("period", ["Jan-2019", "2019-1", "2019-13", " 2019-01", 201901])
def test_grid_observation_checks_its_period(period):
    with pytest.raises(DomainError, match="is not YYYY-MM"):
        GridObservation(lat=30.1, lon=-95.0, period=period, outcome=1.0)
    assert GridObservation(lat=30.1, lon=-95.0, period="2019-02", outcome=1.0).year == 2019


def test_each_distinct_period_text_is_parsed_once(tmp_path, monkeypatch):
    # 24 months of 1,200 cells: 28,800 rows and 24 distinct period texts
    lines = ["lat,lon,period,outcome"]
    lines += [f"{30 + cell // 40 * 0.05:.2f},{-95 + cell % 40 * 0.05:.2f},"
              f"{2019 + m // 12}-{m % 12 + 1:02d},1.0"
              for m in range(24) for cell in range(1200)]
    path = tmp_path / "obs.csv"
    path.write_text("\n".join(lines) + "\n")
    calls = []
    real = ingest._period_code
    monkeypatch.setattr(ingest, "_period_code", lambda text: calls.append(text) or real(text))
    columns, _ = read_observation_columns(path)
    assert columns["period"].size == 28_800
    assert len(calls) == 24
