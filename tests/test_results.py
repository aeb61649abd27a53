"""lexgrade.results.read_results against the csv.reader oracle.

The oracle reads quoted fields as csv.reader does, so it is compared on
quote-free files only. A file holding a `"` must be refused, naming the
first line that holds one: the manifest admits no id that analyze would
quote.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexgrade.corpus import MANIFEST_FIELDS, load_manifest
from lexgrade.errors import ManifestError, ResultsFormatError
from lexgrade.results import ANALYZE_COLUMNS, read_results, table_text

sys.path.insert(0, str(Path(__file__).parent))
import results_reference as reference  # noqa: E402

_LIMIT = csv.field_size_limit()

# Plain ids (three in four) are written unquoted; a NUL is only a
# character. The others are mostly written quoted, so their files are
# refused.
_PLAIN_IDS = st.sampled_from(
    ["32016R0679", "doc1", "a b", "", "#1", "é", "x\x00y", "\x1c\x85\u2028"]
)
_IDS = st.one_of(
    _PLAIN_IDS, _PLAIN_IDS, _PLAIN_IDS,
    st.text(st.sampled_from('ab,"\n\r# \t'), max_size=6),
)
# Cells that are not one JSON number of an integer column, or that read
# though they are not plain digits: JSON whitespace (" 7", "\t7") and "-0"
# read, "1E3" and Python's "NaN" and "Infinity" read as floats, and "1,2"
# is written quoted, so its file is refused; the bracket cells fail, the
# "[" run by recursion depth; "[]", "{}" and "null" are one JSON value
# each, of no number type. The long digit runs read as integers past 2**53
# (the first just inside it); the last is also past the 4300-digit limit
# that Python 3.11 and later put on integer parsing.
_BAD_CELLS = [
    "", " ", "x", "1.5", "nan", "inf", "true", "-", "+3", " 7", "1_0", "٣",
    "1e3", "0x10", "007", "-0", "\t7", "\x0c7", "[1", "7]", "NaN", "Infinity",
    "1E3", "[" * 2000, "1,2", str(2**53), str(-(2**53) - 1), "9" * 401, "9" * 5000,
    "[]", "{}", "null",
]
# Spellings that int() or float() read and JSON does not.
_REFUSED = ["+3", "007", "1_0", "٣", "\x0c7", "nan", "inf", "+1.5", ".5"]
# Cells at and just over the csv field-size limit; the one with commas
# is written quoted, so its file is refused.
_LONG_CELLS = ["x" * _LIMIT, "x" * (_LIMIT + 1), "x," * (_LIMIT // 2 + 1)]
_HEADER = ",".join(ANALYZE_COLUMNS)
_ROW = "doc1,Regulation,2016,GeneralRules,4,60,90,10,300,290,50,10,7,8,9,10,11,8.0"
# _ROW's values in integer spellings that int() reads and JSON does not:
# refused.
_INT_ONLY_ROW = (
    "doc2,Regulation,+2016,GeneralRules,\x0c4,٦٠,90,1_0,0300,290,50,10,007,8,9,10,11,8.0"
)
# _ROW with a wrong derived column, with a year out of range, and with a
# grade past 2**53: rows are checked in file order, and a derived column
# wrong on an earlier row is named before a range error on a later one.
_WRONG_HARD_ROW = _ROW.replace(",50,10,7,", ",50,11,7,")
_YEAR_ROW = _ROW.replace(",2016,", ",999,")
_HUGE_GRADE_ROW = _ROW.replace(",10,11,8.0", "," + "9" * 401 + ",11,8.0")
# JSON values that span cells: g1 "[1" and g2 "7]" in one row; "[8.0" in
# sum_variable and "4]" in the next row's sentence_count; "[2016" and
# "2017]" in two rows' years. Read across the commas, each is one list.
_SPAN_ROW = _ROW.replace(",7,8,9,", ",[1,7],9,")
_SPAN_ROWS = _ROW.replace(",8.0", ",[8.0") + "\n" + _ROW.replace(",4,60,", ",4],60,")
_SPAN_YEARS = _ROW.replace(",2016,", ",[2016,") + "\n" + _ROW.replace(",2016,", ",2017],")
_EXTRA_LINES = ["", "", "#", "# lexgrade_version: 9", "#k:v:w", "#\t", "   "]


@st.composite
def _row(draw) -> list[str]:
    words, poly, g1, g2, g3 = (
        draw(st.integers(0, 10**6)), draw(st.integers(0, 10**6)),
        draw(st.integers(-20, 60)), draw(st.integers(-20, 60)), draw(st.integers(-20, 60)),
    )
    row = [
        draw(_IDS), "Directive",
        str(draw(st.integers(1985, 2022))),
        "GeneralRules", str(draw(st.integers(1, 10**4))), str(words),
        str(draw(st.integers(0, 10**6))), str(poly), "4700", "4650",
        str(words - poly), str(poly), str(g1), str(g2), str(g3),
        str(draw(st.integers(0, 40))), str(draw(st.integers(0, 40))),
        repr((g1 + g2 + g3) / 3),
    ]
    # Now and then a bad cell, a year out of range, a short or a long row.
    edit = draw(st.sampled_from(["none"] * 24 + ["cell", "year", "short", "long"]))
    position = draw(st.integers(0, len(row) - 1))
    if edit == "cell":
        row[position] = draw(st.sampled_from(_BAD_CELLS))
    elif edit == "year":
        row[2] = draw(st.sampled_from(["999", "10000", "-2016", "0"]))
    elif edit == "short":
        del row[position]
    elif edit == "long":
        row.insert(position, "0")
    return row


@st.composite
def _results_text(draw) -> str:
    header = draw(st.sampled_from(
        [_HEADER] * 6
        + ['"id"' + ",".join(("",) + ANALYZE_COLUMNS[1:]),
           ",".join(ANALYZE_COLUMNS[:-1]), _HEADER.replace("year", "yr")]
    ))
    rows = draw(st.lists(_row(), min_size=1, max_size=8))
    long_cell = draw(st.sampled_from([None] * 3 + _LONG_CELLS))
    if long_cell is not None:
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, len(row) - 1))] = long_cell
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    lines = ["# lexgrade_version: 0.1.0", "# linsear_mode: windowed", header]
    lines += buffer.getvalue().split("\n")[:-1]
    # Blank and comment lines anywhere, also inside a quoted id.
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(_EXTRA_LINES)))
    ends = draw(st.sampled_from(["\n", "\r\n", "\r", "mixed"]))
    if ends == "mixed":
        return "".join(line + draw(st.sampled_from(["\n", "\r\n", "\r"])) for line in lines)
    return ends.join(lines) + draw(st.sampled_from([ends, ""]))


def _outcome(read, path):
    try:
        return read(path)
    except ResultsFormatError as exc:
        return str(exc)


def _expected(path: Path):
    """The oracle's outcome, or the refusal of a file that holds a quote."""
    lines = path.read_text(encoding="utf-8").split("\n")
    quoted = [n for n, line in enumerate(lines, 1) if '"' in line]
    if not quoted:
        return _outcome(reference.read_results, str(path))
    return f"{path} line {quoted[0]}: a '\"' is not allowed (analyze writes no quoted fields)"


def _write(path: Path, text: str) -> None:
    # A new file each time: rewriting a file in place can wait on a disk
    # flush (ext4's auto_da_alloc).
    path.unlink(missing_ok=True)
    path.write_bytes(text.encode("utf-8"))


class TestReadResultsReference:
    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("results") / "results.csv"

    @settings(max_examples=1000, deadline=None)
    @given(text=_results_text())
    def test_matches_reference(self, path, text):
        _write(path, text)
        assert _outcome(read_results, str(path)) == _expected(path)

    @pytest.mark.parametrize("text, reads", [
        (_HEADER + "\n" + _ROW + "\n", True),
        ("# a: b\n\n" + _HEADER + "\r\n\r\n#x\r\n" + _ROW + "\r\n" + _ROW, True),
        (_HEADER + "\r" + '"a,""b"""' + _ROW[len("doc1"):] + "\r", False),
        (_HEADER + "\n" + '"a\n#b\n\nc"' + _ROW[len("doc1"):] + "\n", False),
        (_HEADER + "\n" + _ROW + ",0\n", False),
        (_HEADER + "\n" + _ROW.replace(",2016,", ",twenty,") + "\n", False),
        (_HEADER + "\n" + "x" * (_LIMIT + 1) + _ROW[len("doc1"):] + "\n", False),
        (_HEADER + "\n" + "x" * _LIMIT + _ROW[len("doc1"):] + "\n", True),
        ("# only: meta\n\n", False),
        (_HEADER + "\n", False),
        (_HEADER + "\n" + "a\0b" + _ROW[len("doc1"):] + "\n", True),
        (_HEADER + "\n" + _ROW + "\n" + _INT_ONLY_ROW + "\n", False),
        (_HEADER + "\n" + _ROW.replace(",8.0", ",8") + "\n", True),
        (_HEADER + "\n" + _WRONG_HARD_ROW + "\n" + _YEAR_ROW + "\n", False),
        (_HEADER + "\n" + _WRONG_HARD_ROW + "\n" + _HUGE_GRADE_ROW + "\n", False),
        (_HEADER + "\n" + _ROW + "\n" + _HUGE_GRADE_ROW + "\n", False),
        (_HEADER + "\n" + _ROW + "\n" + _SPAN_ROW + "\n", False),
        (_HEADER + "\n" + _SPAN_ROWS + "\n", False),
        (_HEADER + "\n" + _SPAN_YEARS + "\n" + _ROW + "\n", False),
    ], ids=[
        "plain", "comments-crlf", "quoted-cr", "quoted-newlines", "long-row",
        "non-numeric", "over-limit", "at-limit", "no-header", "no-rows", "nul",
        "int-only-spellings", "integer-sum-variable", "derived-then-year",
        "derived-then-huge-grade", "huge-grade", "span-in-row", "span-across-rows",
        "span-across-years",
    ])
    def test_pinned_cases(self, path, text, reads):
        _write(path, text)
        outcome = _outcome(read_results, str(path))
        assert outcome == _expected(path)
        assert isinstance(outcome, tuple) == reads

    @pytest.mark.parametrize("column", ["year", "g1_flesch_kincaid", "sum_variable"])
    @pytest.mark.parametrize("cell", _BAD_CELLS, ids=[
        f"{len(c)}-digits" if len(c) > 12 and c.isdigit() else repr(c)[:12] for c in _BAD_CELLS
    ])
    def test_bad_cell_in_integer_column(self, path, column, cell):
        # Every bad cell, once each, among cells that JSON reads.
        row = _ROW.split(",")
        row[ANALYZE_COLUMNS.index(column)] = cell
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerows([_ROW.split(","), row, _ROW.split(",")])
        _write(path, _HEADER + "\n" + buffer.getvalue())
        assert _outcome(read_results, str(path)) == _expected(path)

    @pytest.mark.parametrize("column", ["g1_flesch_kincaid", "sum_variable"])
    @pytest.mark.parametrize("cell", _REFUSED)
    def test_int_or_float_only_spelling_refused(self, path, column, cell):
        row = _ROW.split(",")
        row[ANALYZE_COLUMNS.index(column)] = cell
        _write(path, "\n".join([_HEADER, _ROW, ",".join(row), _ROW]) + "\n")
        assert _outcome(read_results, str(path)) == (
            f"{path} line 3: column '{column}' has non-numeric value {cell!r}"
        )
        assert _outcome(reference.read_results, str(path)) == _outcome(read_results, str(path))


@pytest.mark.parametrize("suffix", [".csv", ".json"])
@pytest.mark.parametrize("bad, named", [
    # A later column on an earlier row wins over an earlier column on a later row.
    ([(2, "g5_linsear"), (3, "year")], (2, "g5_linsear")),
    # Two bad cells in one row: the leftmost is named.
    ([(2, "g2_smog"), (2, "year")], (2, "year")),
], ids=["earlier-row", "leftmost"])
def test_first_bad_cell_in_file_order(tmp_path, suffix, bad, named):
    # Every bad cell is "x": text in a CSV file, a JSON string in a JSON file.
    rows = [_ROW.split(",") for _ in range(3)]
    for row, column in bad:
        rows[row - 1][ANALYZE_COLUMNS.index(column)] = "x"
    path = tmp_path / f"results{suffix}"
    if suffix == ".json":
        _write_json(path, rows)
        where = f"row {named[0]}"
    else:
        path.write_text("\n".join([_HEADER, *map(",".join, rows)]) + "\n", encoding="utf-8")
        where = f"line {named[0] + 1}"
    assert _outcome(read_results, str(path)) == (
        f"{path} {where}: column '{named[1]}' has non-numeric value 'x'"
    )


def _write_json(path: Path, rows) -> None:
    """A JSON results file of rows of _ROW's cells: text columns and "x"
    cells as they are, the other cells as the JSON numbers they spell."""
    records = [
        {c: v if c in ("id", "doc_type", "domain") or v == "x" else json.loads(v)
         for c, v in zip(ANALYZE_COLUMNS, row)}
        for row in rows
    ]
    path.write_text(json.dumps({"meta": {}, "rows": records}), encoding="utf-8")


@pytest.mark.parametrize("column", ["id", "doc_type", "domain"])
@pytest.mark.parametrize("value, shown", [
    (None, "None"), (7, "7"), ([1], "[1]"), ({"x": [1]}, "{'x': [1]}"),
], ids=["null", "number", "list", "object"])
def test_json_text_cell_must_be_a_string(tmp_path, column, value, shown):
    # A CSV cell is always text; a JSON text cell must be a JSON string.
    rows = [_ROW.split(",") for _ in range(3)]
    rows[1][ANALYZE_COLUMNS.index(column)] = value
    path = tmp_path / "results.json"
    _write_json(path, rows)
    assert _outcome(read_results, str(path)) == (
        f"{path} row 2: column '{column}' has value {shown}, expected a string"
    )


@pytest.mark.parametrize("bad, named", [
    # Text and numeric cells share one file order: an earlier row wins.
    ([(2, "domain", None), (3, "year", "x")], "column 'domain' has value None, expected a string"),
    ([(2, "g5_linsear", "x"), (3, "id", 7)], "column 'g5_linsear' has non-numeric value 'x'"),
    # Two bad cells in one row: the leftmost is named, text or numeric.
    ([(2, "domain", [1]), (2, "year", "x")], "column 'year' has non-numeric value 'x'"),
    ([(2, "id", {}), (2, "year", "x")], "column 'id' has value {}, expected a string"),
], ids=["text-then-number", "number-then-text", "leftmost-number", "leftmost-text"])
def test_json_text_and_number_cells_in_file_order(tmp_path, bad, named):
    # Only a JSON file holds a text cell that is not a string, so these
    # cases cannot ride in test_first_bad_cell_in_file_order's CSV half.
    rows = [_ROW.split(",") for _ in range(3)]
    for row, column, value in bad:
        rows[row - 1][ANALYZE_COLUMNS.index(column)] = value
    path = tmp_path / "results.json"
    _write_json(path, rows)
    assert _outcome(read_results, str(path)) == f"{path} row 2: {named}"


def test_csv_and_json_goldens_read_alike():
    # The two analyze goldens hold one run: equal meta, equal values, and
    # equal types per cell (str text, int counts, float sum_variable).
    data = Path(__file__).parent / "data" / "nonascii"
    (meta, columns), read_json = (read_results(str(data / f"results.{s}")) for s in ("csv", "json"))
    assert (meta, columns) == read_json
    types = {c: list(map(type, v)) for c, v in columns.items()}
    assert types == {c: list(map(type, v)) for c, v in read_json[1].items()}
    assert {t for c in ("id", "doc_type", "domain") for t in types[c]} == {str}


# Any text, and text over the characters a CSV writer or reader treats
# specially, stripped ones and line breaks that str.split("\n") keeps.
_MANIFEST_IDS = st.one_of(
    st.text(max_size=8),
    st.text(st.sampled_from('ab,"\r\n#\0 \t\x1c\x85\u2028é'), max_size=8),
)


@settings(max_examples=300, deadline=None)
@given(doc_id=_MANIFEST_IDS)
def test_manifest_ids_round_trip(tmp_path_factory, doc_id):
    # Every id the manifest admits is written unquoted, on a line that is
    # not a `#` metadata line, and is read back unchanged.
    base = tmp_path_factory.mktemp("ids")
    raw = dict(zip(MANIFEST_FIELDS, [doc_id, "COM", "2016", "T", "GeneralRules", "s"]))
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows([MANIFEST_FIELDS, raw.values()])
    (base / "m.csv").write_bytes(buffer.getvalue().encode("utf-8"))
    (base / "m.json").write_text(json.dumps([raw]), encoding="utf-8")
    for manifest in (base / "m.csv", base / "m.json"):
        try:
            (record,) = load_manifest(manifest)
        except ManifestError:
            continue
        # _ROW's values, typed as analyze writes them, under this id.
        row = (record.id, "Regulation", 2016, "GeneralRules",
               *map(json.loads, _ROW.split(",")[4:]))
        for out in (base / "results.csv", base / "results.json"):
            text = table_text(out.suffix[1:], {"linsear_mode": "windowed"}, ANALYZE_COLUMNS, [row])
            _write(out, text)
            if out.suffix == ".csv":
                assert '"' not in text
                assert not text.split("\n")[-2].startswith("#")
            assert read_results(str(out))[1]["id"] == [record.id]
