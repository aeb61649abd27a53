"""Test oracle: reading a CSV results file with csv.reader alone.

A second spelling of lexgrade.cli._read_results for CSV files. It walks
the file line by line, hands every data line to one csv.reader and keeps
a list per row, whether or not the file holds a quote. Conversion and
the year and derived-column checks follow as they do in the program.
Tests compare the two on generated files. Nothing in the package
imports this module.
"""

from __future__ import annotations

import csv
from pathlib import Path

from lexgrade.cli import ANALYZE_COLUMNS
from lexgrade.errors import ResultsFormatError
from lexgrade.indices import GRADE_FIELDS


def _integers(cells) -> list[int]:
    return list(map(int, cells))


def _floats(cells) -> list[float]:
    return list(map(float, cells))


_CONVERTERS = tuple(
    list if column in ("id", "doc_type", "domain")
    else _floats if column == "sum_variable"
    else _integers
    for column in ANALYZE_COLUMNS
)


def read_results(path: str) -> tuple[dict, dict[str, list]]:
    meta = {}
    data_lines: list[str] = []
    line_numbers: list[int] = []
    try:
        with open(Path(path), encoding="utf-8") as fh:
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
    try:
        columns = {
            column: convert(cells)
            for column, convert, cells in zip(ANALYZE_COLUMNS, _CONVERTERS, zip(*rows))
        }
    except (TypeError, ValueError):
        for fields, number in zip(rows, numbers):
            for column, convert, value in zip(ANALYZE_COLUMNS, _CONVERTERS, fields):
                try:
                    convert([value])
                except (TypeError, ValueError):
                    raise ResultsFormatError(
                        f"{path} line {number}: column '{column}' "
                        f"has non-numeric value {value!r}"
                    ) from None
        raise
    years, words, polysyllables = (
        columns[c] for c in ("year", "word_count", "polysyllable_count")
    )
    fk, smog, ari = (columns[f] for f in GRADE_FIELDS[:3])
    derived = {
        "hard_word_count": polysyllables,
        "easy_word_count": [w - p for w, p in zip(words, polysyllables)],
        "sum_variable": [(a + b + c) / 3 for a, b, c in zip(fk, smog, ari)],
    }
    for i, (number, year) in enumerate(zip(numbers, years)):
        if not 1000 <= year <= 9999:
            raise ResultsFormatError(
                f"{path} line {number}: column 'year' has value {year}, "
                "expected a 4-digit year"
            )
        for column, expected in derived.items():
            if columns[column][i] != expected[i]:
                raise ResultsFormatError(
                    f"{path} line {number}: column '{column}' "
                    f"has value {columns[column][i]}, expected {expected[i]}"
                )
    return meta, columns
