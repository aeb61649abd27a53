"""Test oracle: reading a CSV results file with csv.reader alone.

A second spelling of lexgrade.results.read_results for CSV files. It walks
the file line by line, hands every data line to one csv.reader and keeps
a list per row. Each numeric cell is read by its own json.loads and must
give one number of its column's type: an int, or an int or float in
sum_variable, never a bool. Every row is then checked in order for its
year, its grades within 2**53 and the columns that analyze derives from
others. Tests compare the two on generated files that hold no `"`, which
read_results refuses and csv.reader would unquote. csv.reader before
Python 3.11 refuses a NUL, so the comparison needs 3.11 or later.
Nothing in the package imports this module.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from lexgrade.results import ANALYZE_COLUMNS
from lexgrade.errors import ResultsFormatError
from lexgrade.indices import GRADE_FIELDS


_TEXT_COLUMNS = ("id", "doc_type", "domain")


def _number(cell: str, column: str):
    """The JSON number in one cell, or ValueError."""
    try:
        value = json.loads(cell)
    except RecursionError:
        raise ValueError("too deeply nested") from None
    if type(value) is int or (column == "sum_variable" and type(value) is float):
        return value
    raise ValueError(f"not a number of column {column!r}")


def read_results(path: str) -> tuple[dict, dict[str, list]]:
    meta = {}
    data_lines: list[str] = []
    line_numbers: list[int] = []
    try:
        # A leading byte-order mark is skipped.
        with open(Path(path), encoding="utf-8-sig") as fh:
            for lineno, line in enumerate(fh, start=1):
                stripped = line.rstrip("\n")
                if stripped.startswith("#"):
                    key, colon, value = stripped.lstrip("#").strip().partition(":")
                    if colon:
                        meta[key.strip()] = value.strip()
                elif stripped:
                    data_lines.append(stripped)
                    line_numbers.append(lineno)
    except UnicodeDecodeError as exc:
        raise ResultsFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    # One reader for all lines: a record starts where the last one ended.
    reader = csv.reader(data_lines)
    rows, numbers = [], []
    try:
        header = next(reader, None)
        if header is None:
            raise ResultsFormatError(f"{path}: no header row")
        if tuple(header) != ANALYZE_COLUMNS:
            raise ResultsFormatError(
                f"{path}: header does not match an analyze results file"
            )
        start = reader.line_num
        for fields in reader:
            if len(fields) != len(ANALYZE_COLUMNS):
                raise ResultsFormatError(
                    f"{path} line {line_numbers[start]}: expected "
                    f"{len(ANALYZE_COLUMNS)} fields, got {len(fields)}"
                )
            rows.append(fields)
            numbers.append(line_numbers[start])
            start = reader.line_num
    except csv.Error as exc:
        raise ResultsFormatError(
            f"{path} line {line_numbers[reader.line_num - 1]}: {exc}"
        ) from None

    if not rows:
        raise ResultsFormatError(f"{path}: no result rows")
    columns = {column: [] for column in ANALYZE_COLUMNS}
    for fields, number in zip(rows, numbers):
        for column, value in zip(ANALYZE_COLUMNS, fields):
            try:
                columns[column].append(
                    value if column in _TEXT_COLUMNS else _number(value, column)
                )
            except ValueError:
                raise ResultsFormatError(
                    f"{path} line {number}: column '{column}' "
                    f"has non-numeric value {value!r}"
                ) from None
    for i, number in enumerate(numbers):
        year = columns["year"][i]
        if not 1000 <= year <= 9999:
            raise ResultsFormatError(
                f"{path} line {number}: column 'year' has value {year}, "
                "expected a 4-digit year"
            )
        for field in GRADE_FIELDS:
            if abs(columns[field][i]) > 2**53:
                raise ResultsFormatError(
                    f"{path} line {number}: column '{field}' has value "
                    f"{columns[field][i]}, expected a grade between -2**53 and 2**53"
                )
        words, polysyllables = columns["word_count"][i], columns["polysyllable_count"][i]
        fk, smog, ari = (columns[field][i] for field in GRADE_FIELDS[:3])
        derived = {
            "hard_word_count": polysyllables,
            "easy_word_count": words - polysyllables,
            "sum_variable": (fk + smog + ari) / 3,
        }
        for column, expected in derived.items():
            if columns[column][i] != expected:
                raise ResultsFormatError(
                    f"{path} line {number}: column '{column}' "
                    f"has value {columns[column][i]}, expected {expected}"
                )
    return meta, columns
