"""The delimited-file reader: numpy's C tokenizer against the csv row pass.

`_read_text_columns` parses the header with csv and the body with
`np.loadtxt`; where the tokenizer refuses a body, a csv pass over the rows
reads the file.  Each file here goes through a public reader twice, as it
runs and with the tokenizer refused, and both give the same columns, bit for
bit, or the same DataError text.
"""

import dataclasses
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plumefront import ingest
from plumefront.errors import DataError

READERS = {
    "numeric": lambda path: ingest.read_numeric_columns(path, ["d", "y"]),
    "observations": ingest.read_observation_columns,
    "sources": lambda path: ingest.load_sources(path, min_capacity=-1.0),
}


def _canonical(value):
    """A reader's result with every float as its bits: NaN and -0.0 compare as they are."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.tobytes()
    if isinstance(value, float):
        return value.hex()
    if dataclasses.is_dataclass(value):
        return _canonical(dataclasses.astuple(value))
    if isinstance(value, dict):
        return {k: _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


def _outcome(read, path):
    try:
        return _canonical(read(path))
    except DataError as exc:
        return f"DataError: {exc}"


def _refused(*args, **kwargs):
    raise ValueError("tokenizer refused")


def _both_passes(read, path):
    """(the outcome as the reader runs, with the tokenizer refused, whether
    the first run fell back to the row pass)."""
    with mock.patch.object(ingest, "_csv_columns", wraps=ingest._csv_columns) as row_pass:
        as_run = _outcome(read, path)
    with mock.patch.object(np, "loadtxt", _refused):
        by_rows = _outcome(read, path)
    return as_run, by_rows, row_pass.called


NUMERIC = "numeric"
CASES = [
    # (id, reader, file text, whether the tokenizer refuses the body)
    ("quoted-delimiter", NUMERIC, 'note,d,y\n"a,b",1,2\n"c",3,"4"\n', False),
    ("doubled-quotes", NUMERIC, 'd,y,note\n1,2,"say ""hi"""\n"1""",2,x\n', False),
    ("text-after-closing-quote", NUMERIC, 'd,y\n"1"5,2\n"2" ,3\n', False),
    ("quote-inside-text", NUMERIC, 'd,y\n1,2\na"b,3\n', False),
    ("quoted-newline-in-number", NUMERIC, 'd,y\n1,"2\n"\n"3\r\n\n",4\n', False),
    ("blank-lines", NUMERIC, "d,y\n\n1,2\n\n\n3,4\n\n", False),
    ("whitespace-only-line", NUMERIC, "d,y\n1,2\n   \n3,4\n", True),
    ("tab-only-line", NUMERIC, "d\ty\n1\t2\n\t\n", False),
    ("short-row", NUMERIC, "d,y\n1,2\n3\n", True),
    ("extra-fields", NUMERIC, "d,y\n1,2,3,4\n5,6,7\n", False),
    ("crlf", NUMERIC, "d,y\r\n1,2\r\n\r\n3,4\r\n", False),
    ("lone-cr", NUMERIC, "d,y\r1,2\r3,4\r", False),
    ("mixed-line-ends", NUMERIC, "d,y\n1,2\r\n3,4\r5,6", False),
    ("tab-delimiter", NUMERIC, "note\td\ty\na,b\t1\t2\n", False),
    ("bom-on-a-used-name", NUMERIC, "\ufeffd,y\n1,2\n", False),
    ("bom-on-another-name", NUMERIC, "\ufeffnote,d,y\nx,1,2\n", False),
    ("underscores-and-non-ascii-digits", NUMERIC,
     "d,y\n1_0,\u0663\n\u0661\u0662,2_5e-1\n", False),
    ("not-a-number", NUMERIC, "d,y\n1,2\n3,1__0\n", False),
    ("repeated-header-name", NUMERIC, "d,y,d\n1,2,3\n4,5,6\n", False),
    ("nan-and-signed-zero", NUMERIC, "d,y\n-0,nan\n-0.0,-nan\n1e400,-inf\n 7 , 8 \n", False),
    ("header-only", NUMERIC, "d,y\n", False),
    ("header-and-blank-lines", NUMERIC, "d,y\n\n\r\n", False),
    ("observation-quoted-coordinate", "observations",
     'lat,lon,period,outcome\n"30,1",-95,2019-01,1\n', False),
    ("observation-short-row", "observations",
     "lat,lon,period,outcome\n30,-95,2019-01\n30,-95,2019-02,2\n", True),
    ("observation-signed-zero-and-blank-outcome", "observations",
     "lat,lon,period,outcome\r\n-0.0000,0.0000,2019-01, \r\n0,-0,2019-02,\r\n", False),
    ("observation-header-only", "observations", "lat,lon,period,outcome\n", False),
    ("sources-quoted-id", "sources", 'id,lat,lon,capacity_mw\n"a,""b""",30,-95,500\n', False),
    ("sources-short-row", "sources", "id,lat,lon,capacity_mw\na,30,-95\n", True),
]


@pytest.mark.parametrize("reader, text, refused", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_tokenizer_reads_what_the_row_pass_reads(tmp_path, reader, text, refused):
    path = tmp_path / "table.txt"
    path.write_bytes(text.encode())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        as_run, by_rows, fell_back = _both_passes(READERS[reader], path)
    assert as_run == by_rows
    assert fell_back == refused


def test_each_case_reads_as_expected(tmp_path):
    # a few of the cases above, read to their values
    def read(text):
        path = tmp_path / "table.txt"
        path.write_bytes(text.encode())
        return _outcome(READERS[NUMERIC], path)

    assert read('d,y\n"1"5,2\n"2" ,3\n') == _canonical([np.array([15.0, 2.0]),
                                                         np.array([2.0, 3.0])])
    assert read("d,y\n1_0,\u0663\n") == _canonical([np.array([10.0]), np.array([3.0])])
    assert read("d,y,d\n1,2,3\n") == _canonical([np.array([3.0]), np.array([2.0])])
    assert read("d,y\n") == _canonical([np.array([]), np.array([])])
    assert read("d,y\n1,2\n3\n").endswith("row 3: column 'y' is not numeric: None")
    assert read("d,y\n1,2\n   \n").endswith("row 3: column 'd' is not numeric: '   '")
    assert read("\ufeffd,y\n1,2\n") == f"DataError: {tmp_path / 'table.txt'}: missing columns: d"


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet='1.,\t"\n\r -ax_', max_size=40))
def test_any_body_reads_as_the_row_pass_reads_it(tmp_path_factory, body):
    path = tmp_path_factory.mktemp("reader") / "table.txt"
    path.write_bytes(("d,y\n" + body).encode())
    as_run, by_rows, _ = _both_passes(READERS[NUMERIC], path)
    assert as_run == by_rows
