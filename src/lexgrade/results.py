"""The analyze results file: its columns, its reader and its table writer.

analyze writes one row per graded document, in ANALYZE_COLUMNS order
(analyze_row), as CSV or JSON (table_text); stats and report read it
back with read_results. A results file is self-describing: the tool
version and linsear mode ride along as `# key: value` comment lines
(CSV) or a meta object (JSON), so downstream statistics stay auditable.
"""

from __future__ import annotations

import csv
import io
import json
from itertools import repeat
from operator import methodcaller
from pathlib import Path

from .errors import ResultsFormatError
from .indices import GRADE_FIELDS, GradeVector
from .segmenter import TextMetrics

__all__ = ["ANALYZE_COLUMNS", "analyze_row", "read_results", "table_text"]

#: The columns of an analyze results file: the manifest's, the counts,
#: the two counts that split word_count, the grades.
ANALYZE_COLUMNS = (
    "id", "doc_type", "year", "domain", *TextMetrics._fields,
    "easy_word_count", "hard_word_count", *GradeVector._fields,
)
_WIDTH = len(ANALYZE_COLUMNS)
_HEADER = ",".join(ANALYZE_COLUMNS)
_COLUMN_SET = frozenset(ANALYZE_COLUMNS)
#: The numeric cells that follow id, doc_type, year and domain in a row.
_NUMERIC = _WIDTH - 4


#: Per ANALYZE_COLUMNS entry, the types its values may have: str for a
#: text column, int for an integer column, int or float for sum_variable
#: (a JSON true is a bool, so it never passes as 1).
_KINDS = tuple(
    {str} if column in ("id", "doc_type", "domain")
    else {int, float} if column == "sum_variable"
    else {int}
    for column in ANALYZE_COLUMNS
)
#: A CSV cell is always a str: the CSV reader checks no text cell.
_CSV_KINDS = tuple(None if kinds == {str} else kinds for kinds in _KINDS)

#: Per range-checked column: its bounds and what an error says is expected.
#: A float holds every integer up to 2**53 exactly: sum_variable is a float
#: that must equal (g1+g2+g3)/3, and stats and report print floats. A far
#: larger grade overflows that division.
_RANGES = (
    ("year", 1000, 9999, "a 4-digit year"),
    *((f, -2**53, 2**53, "a grade between -2**53 and 2**53") for f in GRADE_FIELDS),
)

_SOURCES = ("word_count", "polysyllable_count", *GRADE_FIELDS[:3])
_DERIVED = ("hard_word_count", "easy_word_count", "sum_variable")


def _derived(words, polysyllables, fk, smog, ari) -> tuple[list, list, list]:
    """The _DERIVED columns, from the _SOURCES columns, as analyze computes them."""
    return (
        polysyllables,
        [w - p for w, p in zip(words, polysyllables)],
        [(a + b + c) / 3 for a, b, c in zip(fk, smog, ari)],
    )


def _json_cells(cells) -> list:
    # The join puts in N-1 commas, and a list of N numbers holds exactly N-1
    # commas, none inside a number: so when _column finds N numbers, no cell
    # held a comma and each cell was one JSON number.
    return json.loads("[" + ",".join(cells) + "]")


def _column(cells, kinds, parse) -> list | None:
    """One column's values, or None when a cell is not one value of kinds."""
    if kinds is None:
        return list(cells)
    try:
        values = parse(cells)
    except (ValueError, RecursionError):
        return None
    if len(values) == len(cells) and set(map(type, values)) <= kinds:
        return values
    return None


def analyze_row(row) -> tuple:
    """One ANALYZE_COLUMNS row, from one corpus.ReportRow."""
    record, m = row.record, row.metrics
    return (
        record.id, record.doc_type.value, record.year, record.domain.value, *m,
        m.word_count - m.polysyllable_count, m.polysyllable_count, *row.grades,
    )


def table_text(fmt: str, meta: dict, columns, rows) -> str:
    """Rows, each a sequence of values in columns order, as CSV or JSON text."""
    if fmt == "json":
        rows = [dict(zip(columns, row)) for row in rows]
        return json.dumps({"meta": meta, "rows": rows}, indent=2) + "\n"
    buffer = io.StringIO()
    buffer.writelines(f"# {key}: {value}\n" for key, value in meta.items())
    csv.writer(buffer, lineterminator="\n").writerows([columns, *rows])
    return buffer.getvalue()


def _csv_rows(path: str, text: str) -> tuple[dict, list[str], list[int]]:
    """Meta, the data rows (each of _WIDTH cells) and each row's line number, from CSV text."""
    lines = text.split("\n")
    if '"' in text:
        number = next(n for n, line in enumerate(lines, 1) if '"' in line)
        raise ResultsFormatError(
            f"{path} line {number}: a '\"' is not allowed (analyze writes no quoted fields)"
        )
    meta = {}
    for line in filter(methodcaller("startswith", "#"), lines):
        key, colon, value = line.lstrip("#").strip().partition(":")
        if colon:
            meta[key.strip()] = value.strip()
    line_numbers = [n for n, line in enumerate(lines, 1) if line and line[0] != "#"]
    data = [lines[n - 1] for n in line_numbers]
    if not data:
        raise ResultsFormatError(f"{path}: no header row")

    limit = csv.field_size_limit()
    commas = list(map(str.count, data, repeat(",")))
    if (
        data[0] != _HEADER
        or commas.count(_WIDTH - 1) != len(commas)
        or max(map(len, data)) > limit
    ):
        # Name the first bad line; in a line, an over-long field comes first.
        for i, (number, line) in enumerate(zip(line_numbers, data)):
            fields = line.split(",")
            if max(map(len, fields)) > limit:
                raise ResultsFormatError(
                    f"{path} line {number}: field larger than field limit ({limit})"
                )
            if i == 0 and line != _HEADER:
                raise ResultsFormatError(
                    f"{path}: header does not match an analyze results file"
                )
            if len(fields) != _WIDTH:
                raise ResultsFormatError(
                    f"{path} line {number}: expected {_WIDTH} fields, got {len(fields)}"
                )
    return meta, data[1:], line_numbers[1:]


def _csv_values(rows: list[str]) -> list[list] | None:
    """Every column's values from rows of _WIDTH cells, or None when there is
    no row or a cell is not one value of its column's kinds."""
    if not rows:
        return None
    # id, doc_type, year, domain and the tail of numeric cells; read_results
    # says why one parse of the joined tails finds each cell's own value.
    ids, doc_types, years, domains, tails = zip(*map(str.split, rows, repeat(","), repeat(4)))
    try:
        years, numbers = _json_cells(years), _json_cells(tails)
    except (ValueError, RecursionError):
        return None
    if len(years) != len(rows) or len(numbers) != _NUMERIC * len(rows):
        return None
    cells = [ids, doc_types, years, domains, *(numbers[i::_NUMERIC] for i in range(_NUMERIC))]
    values = list(map(_column, cells, _CSV_KINDS, repeat(list)))
    return None if None in values else values


def read_results(path: str) -> tuple[dict, dict[str, list]]:
    """Read an analyze results file (CSV or JSON): meta and one typed list per column.

    Returns the meta dict and a dict from each ANALYZE_COLUMNS column to
    its list of values, one per row in file order: str in id, doc_type
    and domain, int in the other columns, int or float in sum_variable.

    CSV: `# key: value` lines anywhere are meta, blank lines are skipped,
    and every other line is the header or a row of comma-separated
    fields, each within csv.field_size_limit(). A file holding a `"` is
    refused: the manifest admits no id that analyze would quote. JSON: an
    object with a 'meta' object and a 'rows' list of objects keyed by
    ANALYZE_COLUMNS, whose id, doc_type and domain are strings.

    Numbers are JSON numbers in both formats: one JSON integer per cell of
    an integer column, one JSON integer or float (never a bool) per
    sum_variable cell. Each CSV row is split once, at its first four
    commas, and one json.loads reads the file's year cells, one its
    numeric tails, each joined by commas. N tails hold (_NUMERIC - 1) * N
    commas and the join adds N - 1, so _NUMERIC * N values mean every
    comma stood between two values: each cell was one JSON value. When a
    read fails, a count is off or a value is of the wrong kind, each
    column is read by its own json.loads and the first bad cell is named.

    Every row is checked: cell types, 4-digit years, grades within
    2**53, and the columns that analyze derives from others. Errors name
    the file and the line (CSV) or row (JSON) of the first bad cell.
    """
    p = Path(path)
    if not p.exists():
        raise ResultsFormatError(f"results file '{path}' does not exist")
    try:
        text = p.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ResultsFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if p.suffix.lower() == ".json":
        try:
            payload = json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise ResultsFormatError(f"{path}: invalid JSON ({exc})") from exc
        if not isinstance(payload, dict) or "rows" not in payload:
            raise ResultsFormatError(f"{path}: expected an object with 'rows'")
        meta = payload.get("meta", {})
        if not isinstance(meta, dict):
            raise ResultsFormatError(f"{path}: 'meta' must be an object")
        if not isinstance(payload["rows"], list):
            raise ResultsFormatError(f"{path}: 'rows' must be a list")
        rows = []
        for number, raw in enumerate(payload["rows"], start=1):
            if not isinstance(raw, dict) or raw.keys() != _COLUMN_SET:
                raise ResultsFormatError(f"{path} row {number}: wrong columns")
            rows.append([raw[column] for column in ANALYZE_COLUMNS])
        unit, parse, kinds = "row", list, _KINDS
        cells, numbers, values = list(zip(*rows)), range(1, len(rows) + 1), None
    else:
        meta, rows, numbers = _csv_rows(path, text)
        unit, parse, kinds, values = "line", _json_cells, _CSV_KINDS, _csv_values(rows)
        if values is None:
            # A bad cell: split every cell out, so the search below can name it.
            flat = ",".join(rows).split(",") if rows else []
            cells = [flat[i::_WIDTH] for i in range(_WIDTH)]

    if not numbers:
        raise ResultsFormatError(f"{path}: no result rows")
    if values is None:
        values = list(map(_column, cells, kinds, repeat(parse)))
    if None in values:
        # A column fails exactly when one of its cells does. Each failing
        # column is searched alone; the first bad cell in file order wins.
        row, i = min(
            (next(r for r, c in enumerate(cells[i]) if not _column([c], kind, parse)), i)
            for i, (kind, column) in enumerate(zip(kinds, values)) if column is None
        )
        problem = (
            f"has value {cells[i][row]}, expected a string" if kinds[i] == {str}
            else f"has non-numeric value {cells[i][row]!r}"
        )
        raise ResultsFormatError(
            f"{path} {unit} {numbers[row]}: column '{ANALYZE_COLUMNS[i]}' {problem}"
        )
    columns = dict(zip(ANALYZE_COLUMNS, values))

    # Years and grades must be in range before any arithmetic on them, and
    # the derived columns must agree with the columns they come from.
    sources = [columns[c] for c in _SOURCES]
    if not all(
        low <= min(columns[c]) and max(columns[c]) <= high for c, low, high, _ in _RANGES
    ) or any(columns[c] != e for c, e in zip(_DERIVED, _derived(*sources))):
        # Name the first bad row in file order.
        for r, number in enumerate(numbers):
            wrong = [(c, what) for c, low, high, what in _RANGES
                     if not low <= columns[c][r] <= high]
            if not wrong:
                derived = _derived(*(s[r:r + 1] for s in sources))
                wrong = [(c, e) for c, (e,) in zip(_DERIVED, derived) if columns[c][r] != e]
            if wrong:
                column, expected = wrong[0]
                raise ResultsFormatError(
                    f"{path} {unit} {number}: column '{column}' "
                    f"has value {columns[column][r]}, expected {expected}"
                )
    return meta, columns
