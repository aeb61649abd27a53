"""Corpus-level statistics: correlations, internal consistency, summaries.

Every input is an integer: grades are truncated integers, and the sum
variable is g1+g2+g3 with divisor 3 (3*sum_variable = g1+g2+g3). Other
values raise StatisticsError. One exact integer moment table (each
column's sum and S[i][j] = n*sum(x_i*x_j) - sum(x_i)*sum(x_j)) gives
every mean, sample (n-1) standard deviation, Pearson correlation and
Cronbach's alpha as one correctly rounded int/int division or square
root of one. So correlations lie in [-1, 1] and identical columns give
exactly 1.0. Correlations are computed on the truncated grades, not the
raw formula values. Quantiles use linear interpolation between order
statistics (type 7), each one int/int division too; both conventions
are named in report output so published numbers are auditable.
per_year_aggregate summarises each year's g1+g2+g3 with describe.

Grades come in as columns, one value per document: corpus_statistics
takes a mapping from each of GRADE_FIELDS to its column, and
correlation_matrix the five grade columns in GRADE_FIELDS order. A
results file read by the CLI is already in that shape; per-document
GradeVectors are transposed once, e.g. dict(zip(GRADE_FIELDS, zip(*grades))).
"""

from __future__ import annotations

import math
from operator import mul
from typing import Mapping, NamedTuple, Sequence

from .errors import ConstantInputError, DegenerateVarianceError, StatisticsError
from .indices import GRADE_FIELDS

__all__ = [
    "INDEX_LABELS",
    "QUANTILE_CONVENTION",
    "CorpusStatistics",
    "CorrelationMatrix",
    "SummaryStats",
    "YearAggregate",
    "correlation_matrix",
    "cronbach_alpha",
    "describe",
    "corpus_statistics",
    "per_year_aggregate",
]

#: Fixed column order for grade matrices and reports: GRADE_FIELDS
#: without the "gN_" prefix.
INDEX_LABELS = tuple(field.split("_", 1)[1] for field in GRADE_FIELDS)

QUANTILE_CONVENTION = "linear interpolation between order statistics (type 7)"


class CorrelationMatrix(NamedTuple):
    """Symmetric Pearson matrix over the five grade columns."""

    labels: tuple[str, ...]
    values: tuple[tuple[float, ...], ...]


class SummaryStats(NamedTuple):
    n: int
    mean: float
    standard_deviation: float
    median: float
    q1: float
    q3: float
    min: float
    max: float


class CorpusStatistics(NamedTuple):
    """The corpus-level statistics block over the grades of every document.

    summary has one entry per index label plus "sum_variable".
    correlations and alpha are None when they cannot be computed; the
    matching *_note fields say why (e.g. "n < 2").
    """

    summary: dict[str, SummaryStats]
    correlations: CorrelationMatrix | None
    correlations_note: str | None
    alpha: float | None
    alpha_note: str | None


class YearAggregate(NamedTuple):
    year: int
    count: int
    mean: float
    median: float


def _moments(columns: Sequence[Sequence[int]]) -> tuple[list[int], list[list[int]]]:
    """Each column's sum and S[i][j] = n*sum(x_i*x_j) - sum(x_i)*sum(x_j), as ints.

    S[i][j] is n(n-1) times the sample covariance of columns i and j.
    Raises StatisticsError if any value is not an integer.
    """
    try:
        exact = [list(map(int, column)) for column in columns]
    except (TypeError, ValueError, OverflowError):
        exact = None
    if exact != [list(column) for column in columns]:
        raise StatisticsError("statistics need integer values")
    n, sums = len(exact[0]), list(map(sum, exact))
    table = [[0] * len(exact) for _ in exact]
    for i, (x, sx) in enumerate(zip(exact, sums)):
        for j in range(i, len(exact)):
            table[i][j] = table[j][i] = n * sum(map(mul, x, exact[j])) - sx * sums[j]
    return sums, table


def _sqrt(p: int, q: int) -> float:
    """The square root of p/q (p >= 0, q > 0), correctly rounded."""
    # Scale p/q by 4**s so its integer root has 56 bits or more, and set the
    # root's last bit when it is inexact: its one rounding to float is exact.
    s = max(0, (112 - p.bit_length() + q.bit_length()) // 2)
    root = math.isqrt((p << 2 * s) // q)
    return (root | (root * root * q != p << 2 * s)) / (1 << s)


def correlation_matrix(columns: Sequence[Sequence[int]]) -> CorrelationMatrix:
    """Pairwise Pearson matrix over the five integer grade columns.

    columns are in GRADE_FIELDS order; the matrix is in INDEX_LABELS
    order. Each r is sign(S_ij) * sqrt(S_ij^2 / (S_ii * S_jj)). Raises
    ConstantInputError naming the offending column when any index is
    constant across documents.
    """
    if len(columns) != len(INDEX_LABELS):
        raise StatisticsError(f"need 5 grade columns, got {len(columns)}")
    n = len(columns[0])
    if any(len(c) != n for c in columns):
        raise StatisticsError("columns have unequal lengths")
    if n < 2:
        raise StatisticsError("need at least 2 documents")
    _, table = _moments(columns)
    variances = [row[i] for i, row in enumerate(table)]
    for label, variance in zip(INDEX_LABELS, variances):
        if variance == 0:
            raise ConstantInputError(f"column '{label}' is constant; correlation undefined")
    cells = tuple(
        tuple(math.copysign(_sqrt(s * s, vi * vj), s) for s, vj in zip(row, variances))
        for row, vi in zip(table, variances)
    )
    return CorrelationMatrix(labels=INDEX_LABELS, values=cells)


def cronbach_alpha(columns: Sequence[Sequence[int]]) -> float:
    """Cronbach's alpha over k integer measurement columns.

    alpha = (k/(k-1)) * (1 - sum(item variances) / variance(row sums))
    with sample variances: n(n-1) times them are sum(S_ii) and the sum of
    every S_ij. So alpha is one int/int division and identical columns
    give exactly 1.0.
    """
    k = len(columns)
    if k < 2:
        raise StatisticsError("need at least 2 columns")
    n = len(columns[0])
    if n < 2:
        raise StatisticsError("need at least 2 rows")
    if any(len(c) != n for c in columns):
        raise StatisticsError("columns have unequal lengths")
    _, table = _moments(columns)
    item_var = sum(row[i] for i, row in enumerate(table))
    total_var = sum(map(sum, table))
    if total_var == 0:
        raise DegenerateVarianceError("total-score variance is zero; alpha undefined")
    return k * (total_var - item_var) / ((k - 1) * total_var)


def _quantile(ordered: Sequence[int], quarters: int, divisor: int) -> float:
    # Type 7 at p = quarters/4 over ordered[k] / divisor: (n - 1) p is
    # lo + f/4, and ordered[lo] and ordered[lo + 1] weigh 4 - f and f.
    lo, f = divmod((len(ordered) - 1) * quarters, 4)
    return (ordered[lo] * (4 - f) + ordered[lo + (f > 0)] * f) / (4 * divisor)


def describe(values: Sequence[int], divisor: int = 1) -> SummaryStats:
    """Summary of the integer values, each divided by divisor (n >= 1)."""
    n = len(values)
    if n == 0:
        raise StatisticsError("cannot summarize an empty vector")
    (total,), ((squares,),) = _moments([values])
    ordered = sorted(values)
    return SummaryStats(
        n=n,
        mean=total / (n * divisor),
        standard_deviation=_sqrt(squares, n * (n - 1) * divisor**2) if n > 1 else 0.0,
        median=_quantile(ordered, 2, divisor),
        q1=_quantile(ordered, 1, divisor),
        q3=_quantile(ordered, 3, divisor),
        min=ordered[0] / divisor,
        max=ordered[-1] / divisor,
    )


def _sum_column(columns: Mapping[str, Sequence[int]]) -> list[int]:
    """g1+g2+g3 (FK, SMOG and ARI) per document: 3 times its sum variable."""
    return [a + b + c for a, b, c in zip(*(columns[f] for f in GRADE_FIELDS[:3]))]


def corpus_statistics(columns: Mapping[str, Sequence[int]]) -> CorpusStatistics:
    """Summaries, Pearson correlations and FK/SMOG/ARI Cronbach alpha (n >= 1).

    columns maps each of GRADE_FIELDS to one integer grade per document;
    other keys are ignored. The sum variable is g1+g2+g3 over 3.
    """
    grades = [columns[field] for field in GRADE_FIELDS]
    n = len(grades[0])
    if any(len(column) != n for column in grades):
        raise StatisticsError("columns have unequal lengths")
    if n == 0:
        raise StatisticsError("cannot summarize an empty vector")
    summary = {label: describe(column) for label, column in zip(INDEX_LABELS, grades)}
    summary["sum_variable"] = describe(_sum_column(columns), divisor=3)
    if n < 2:
        return CorpusStatistics(summary, None, "n < 2", None, "n < 2")

    correlations = correlations_note = alpha = alpha_note = None
    try:
        correlations = correlation_matrix(grades)
    except StatisticsError as exc:
        correlations_note = str(exc)
    try:
        alpha = cronbach_alpha(grades[:3])
    except StatisticsError as exc:
        alpha_note = str(exc)
    return CorpusStatistics(summary, correlations, correlations_note, alpha, alpha_note)


def per_year_aggregate(columns: Mapping[str, Sequence[int]]) -> list[YearAggregate]:
    """Per-year count, mean and median of the sum variable, years ascending.

    columns maps "year" and the first three of GRADE_FIELDS to one
    integer per document, as for corpus_statistics; each year's
    g1+g2+g3 is summarised by describe with divisor 3.
    """
    years = columns["year"]
    if any(len(columns[field]) != len(years) for field in GRADE_FIELDS[:3]):
        raise StatisticsError("columns have unequal lengths")
    buckets: dict[int, list[int]] = {}
    for year, total in zip(years, _sum_column(columns)):
        if not isinstance(year, int) or isinstance(year, bool) or not 1000 <= year <= 9999:
            raise StatisticsError(f"invalid year {year!r}: expected a 4-digit integer")
        buckets.setdefault(year, []).append(total)
    summaries = {year: describe(buckets[year], divisor=3) for year in sorted(buckets)}
    return [YearAggregate(year, s.n, s.mean, s.median) for year, s in summaries.items()]
