"""Output checks that do not depend on how the program computes results.

Each check returns a list of problems; a problem that belongs to one row
or document names it, so the run can count and list it. Grades are
recomputed from each row's own counts in exact rational arithmetic, and
corpus statistics are recomputed with numpy and exact integer sums.
"""

from __future__ import annotations

import csv
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

GRADES = ("g1_flesch_kincaid", "g2_smog", "g3_ari", "g4_coleman_liau", "g5_linsear")
SUMMARY = {"flesch_kincaid": "g1_flesch_kincaid", "smog": "g2_smog",
           "ari": "g3_ari", "coleman_liau": "g4_coleman_liau",
           "linsear": "g5_linsear", "sum_variable": "sum_variable"}
INT_COLUMNS = ("year", "sentence_count", "word_count", "syllable_count",
               "polysyllable_count", "character_count", "letter_count",
               "easy_word_count", "hard_word_count") + GRADES


def read_table(path: Path) -> tuple[dict, list[dict]]:
    """Comment-line metadata and rows of a CSV file the CLI wrote."""
    meta: dict[str, str] = {}
    lines = []
    with open(path, encoding="utf-8", newline="") as fh:
        for line in fh:
            if line.startswith("#"):
                key, _, value = line[1:].partition(":")
                meta[key.strip()] = value.strip()
            else:
                lines.append(line)
    return meta, list(csv.DictReader(lines))


def typed_rows(rows: list[dict]) -> list[dict]:
    out = []
    for row in rows:
        typed = dict(row)
        for column in INT_COLUMNS:
            typed[column] = int(row[column])
        typed["sum_variable"] = float(row["sum_variable"])
        out.append(typed)
    return out


def _ceil(value: Fraction) -> int:
    return -((-value.numerator) // value.denominator)


def _smog_is_ceiling(grade: int, polysyllables: int, sentences: int) -> bool:
    # raw = 1.0430 * sqrt(30 p / s) + 3.1291 and raw <= grade < raw + 1,
    # decided on squares so no square root is taken.
    radicand = 30 * Fraction(polysyllables, sentences)
    scale, offset = Fraction("1.0430"), Fraction("3.1291")
    upper = (grade - offset) / scale
    lower = (grade - 1 - offset) / scale
    return upper >= 0 and radicand <= upper * upper and (
        lower < 0 or radicand > lower * lower)


def row_problems(row: dict) -> list[str]:
    """Invariants of one analyze result row."""
    problems = []
    s, w = row["sentence_count"], row["word_count"]
    if row["easy_word_count"] + row["hard_word_count"] != w:
        problems.append("easy_word_count + hard_word_count != word_count")
    if row["letter_count"] > row["character_count"]:
        problems.append("letter_count > character_count")
    if s < 1 or w < 1:
        return problems + ["a graded row has no sentence or no word"]
    expected = {
        "g1_flesch_kincaid": _ceil(Fraction("0.39") * Fraction(w, s)
                                   + Fraction("11.8") * Fraction(row["syllable_count"], w)
                                   - Fraction("15.59")),
        "g3_ari": _ceil(Fraction("4.71") * Fraction(row["character_count"], w)
                        + Fraction("0.5") * Fraction(w, s) - Fraction("21.43")),
        "g4_coleman_liau": _ceil(Fraction("0.0588") * 100 * Fraction(row["letter_count"], w)
                                 - Fraction("0.296") * 100 * Fraction(s, w)
                                 - Fraction("15.8")),
    }
    for column, grade in expected.items():
        if row[column] != grade:
            problems.append(f"{column} = {row[column]}, exact ceiling is {grade}")
    if not _smog_is_ceiling(row["g2_smog"], row["polysyllable_count"], s):
        problems.append(f"g2_smog = {row['g2_smog']} is not the ceiling of SMOG")
    mean3 = (row["g1_flesch_kincaid"] + row["g2_smog"] + row["g3_ari"]) / 3
    if row["sum_variable"] != mean3:
        problems.append(f"sum_variable = {row['sum_variable']}, expected {mean3}")
    return problems


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def _exact_alpha(columns: list[list[int]]) -> Fraction:
    n, k = len(columns[0]), len(columns)

    def variance(values) -> Fraction:
        total = sum(values)
        return Fraction(n * sum(v * v for v in values) - total * total, n * (n - 1))

    totals = [sum(row) for row in zip(*columns)]
    return Fraction(k, k - 1) * (1 - sum(variance(c) for c in columns) / variance(totals))


def stats_problems(stats_path: Path, rows: list[dict]) -> list[str]:
    """The stats file against numpy statistics and an exact alpha."""
    problems = []
    cells: dict[tuple[str, str, str], str] = {}
    with open(stats_path, encoding="utf-8", newline="") as fh:
        for record in csv.DictReader(fh):
            cells[(record["section"], record["name"], record["field"])] = record["value"]
    if cells.get(("meta", "n_documents", "")) != str(len(rows)):
        problems.append("stats: n_documents differs from the number of rows")
    for name, column in SUMMARY.items():
        values = np.array([r[column] for r in rows], dtype=float)
        expected = {
            "n": len(values), "mean": values.mean(), "min": values.min(),
            "max": values.max(), "standard_deviation": values.std(ddof=1),
            "median": np.percentile(values, 50), "q1": np.percentile(values, 25),
            "q3": np.percentile(values, 75),
        }
        for field, value in expected.items():
            got = cells.get(("summary", name, field))
            if got is None or not _close(float(got), float(value)):
                problems.append(f"stats: summary {name}.{field} = {got}, numpy gives {value}")
    matrix = np.corrcoef(np.array([[r[c] for c in GRADES] for r in rows], dtype=float).T)
    labels = list(SUMMARY)[:5]
    for i, a in enumerate(labels):
        for j, b in enumerate(labels):
            got = cells.get(("correlations", a, b))
            if got is None or not _close(float(got), float(matrix[i, j])):
                problems.append(f"stats: r({a}, {b}) = {got}, numpy gives {matrix[i, j]}")
    alpha = float(_exact_alpha([[r[c] for r in rows] for c in GRADES[:3]]))
    got = cells.get(("alpha", "fk_smog_ari", ""))
    if got is None or not math.isclose(float(got), alpha, rel_tol=1e-12):
        problems.append(f"stats: alpha = {got}, exact value is {alpha}")
    return problems


def report_problems(report_path: Path, rows: list[dict]) -> list[str]:
    """Per-year counts sum to the rows; means and medians match numpy."""
    _, years = read_table(report_path)
    problems = []
    if sum(int(y["count"]) for y in years) != len(rows):
        problems.append("report: per-year counts do not sum to the number of rows")
    by_year: dict[int, list[float]] = {}
    for row in rows:
        by_year.setdefault(row["year"], []).append(row["sum_variable"])
    if [int(y["year"]) for y in years] != sorted(by_year):
        problems.append("report: years differ from the years of the rows")
        return problems
    for y in years:
        values = np.array(by_year[int(y["year"])])
        if (int(y["count"]) != len(values) or not _close(float(y["mean"]), values.mean())
                or not _close(float(y["median"]), float(np.median(values)))):
            problems.append(f"report: year {y['year']} differs from numpy")
    return problems
