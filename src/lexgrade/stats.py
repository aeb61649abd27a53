"""Corpus-level statistics: correlations, internal consistency, summaries.

Sample (n-1) variances are used throughout, including inside Cronbach's
alpha, and quantiles use linear interpolation between order statistics
(the "type 7" convention); both choices are named in report output so
published numbers are auditable. Correlations are computed on the
truncated integer grades, not the raw formula values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import ConstantInputError, DegenerateVarianceError, StatisticsError
from .indices import GRADE_FIELDS, GradeVector

__all__ = [
    "INDEX_LABELS",
    "QUANTILE_CONVENTION",
    "CorpusStatistics",
    "CorrelationMatrix",
    "SummaryStats",
    "YearAggregate",
    "pearson",
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


@dataclass(frozen=True)
class CorrelationMatrix:
    """Symmetric Pearson matrix over the five grade columns."""

    labels: tuple[str, ...]
    values: tuple[tuple[float, ...], ...]


@dataclass(frozen=True)
class SummaryStats:
    n: int
    mean: float
    standard_deviation: float
    median: float
    q1: float
    q3: float
    min: float
    max: float


@dataclass(frozen=True)
class CorpusStatistics:
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


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Sample Pearson correlation coefficient of two equal-length vectors."""
    if len(x) != len(y):
        raise StatisticsError(f"length mismatch: {len(x)} vs {len(y)}")
    n = len(x)
    if n < 2:
        raise StatisticsError("need at least 2 observations")
    mean_x = math.fsum(x) / n
    mean_y = math.fsum(y) / n
    sxx = math.fsum((xi - mean_x) ** 2 for xi in x)
    syy = math.fsum((yi - mean_y) ** 2 for yi in y)
    if sxx == 0:
        raise ConstantInputError("first vector is constant; correlation undefined")
    if syy == 0:
        raise ConstantInputError("second vector is constant; correlation undefined")
    sxy = math.fsum((xi - mean_x) * (yi - mean_y) for xi, yi in zip(x, y))
    r = sxy / math.sqrt(sxx * syy)
    return max(-1.0, min(1.0, r))


def correlation_matrix(grades: Sequence[GradeVector]) -> CorrelationMatrix:
    """Pairwise Pearson matrix over the five grade columns.

    Columns are in INDEX_LABELS order. Raises ConstantInputError naming
    the offending column when any index is constant across documents.
    """
    if len(grades) < 2:
        raise StatisticsError("need at least 2 documents")
    columns = [[getattr(g, field) for g in grades] for field in GRADE_FIELDS]
    for label, column in zip(INDEX_LABELS, columns):
        if min(column) == max(column):
            raise ConstantInputError(
                f"column '{label}' is constant; correlation undefined"
            )

    size = len(INDEX_LABELS)
    cells = [[1.0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            try:
                r = pearson(columns[i], columns[j])
            except StatisticsError as exc:
                raise StatisticsError(
                    f"correlation ({INDEX_LABELS[i]}, {INDEX_LABELS[j]}): {exc}"
                ) from exc
            cells[i][j] = r
            cells[j][i] = r
    return CorrelationMatrix(
        labels=INDEX_LABELS,
        values=tuple(tuple(row) for row in cells),
    )


def _exact_variance(column: Sequence[Fraction]) -> Fraction:
    n = len(column)
    total = sum(column)
    total_sq = sum(v * v for v in column)
    return (n * total_sq - total * total) / Fraction(n * (n - 1))


def cronbach_alpha(columns: Sequence[Sequence[float]]) -> float:
    """Cronbach's alpha over k measurement columns.

    alpha = (k/(k-1)) * (1 - sum(item variances) / variance(row sums))
    with sample variances. Computed in exact rational arithmetic so that
    identical columns give exactly 1.0.
    """
    k = len(columns)
    if k < 2:
        raise StatisticsError("need at least 2 columns")
    n = len(columns[0])
    if n < 2:
        raise StatisticsError("need at least 2 rows")
    if any(len(c) != n for c in columns):
        raise StatisticsError("columns have unequal lengths")

    exact = [[Fraction(v) for v in column] for column in columns]
    item_var = sum(_exact_variance(column) for column in exact)
    totals = [sum(column[i] for column in exact) for i in range(n)]
    total_var = _exact_variance(totals)
    if total_var == 0:
        raise DegenerateVarianceError(
            "total-score variance is zero; alpha undefined"
        )
    alpha = Fraction(k, k - 1) * (1 - item_var / total_var)
    return float(alpha)


def _quantile(ordered: Sequence[float], p: float) -> float:
    # Type 7: h = (n - 1) p, linear interpolation between floor/ceil ranks.
    h = (len(ordered) - 1) * p
    lo = math.floor(h)
    hi = math.ceil(h)
    if lo == hi:
        return float(ordered[lo])
    return ordered[lo] + (h - lo) * (ordered[hi] - ordered[lo])


def describe(values: Sequence[float]) -> SummaryStats:
    """Descriptive summary of a numeric vector (n >= 1)."""
    n = len(values)
    if n == 0:
        raise StatisticsError("cannot summarize an empty vector")
    ordered = sorted(values)
    mean = math.fsum(values) / n
    if n == 1:
        sd = 0.0
    else:
        sd = math.sqrt(math.fsum((v - mean) ** 2 for v in values) / (n - 1))
    return SummaryStats(
        n=n,
        mean=mean,
        standard_deviation=sd,
        median=_quantile(ordered, 0.5),
        q1=_quantile(ordered, 0.25),
        q3=_quantile(ordered, 0.75),
        min=float(ordered[0]),
        max=float(ordered[-1]),
    )


def corpus_statistics(grades: Sequence[GradeVector]) -> CorpusStatistics:
    """Summaries, Pearson correlations and FK/SMOG/ARI Cronbach alpha (n >= 1)."""
    columns = [[getattr(g, field) for g in grades] for field in GRADE_FIELDS]
    summary = {label: describe(column) for label, column in zip(INDEX_LABELS, columns)}
    summary["sum_variable"] = describe([g.sum_variable for g in grades])
    if len(grades) < 2:
        return CorpusStatistics(summary, None, "n < 2", None, "n < 2")

    correlations = correlations_note = alpha = alpha_note = None
    try:
        correlations = correlation_matrix(grades)
    except StatisticsError as exc:
        correlations_note = str(exc)
    try:
        # Flesch-Kincaid, SMOG and ARI: the indices of the sum variable.
        alpha = cronbach_alpha(columns[:3])
    except StatisticsError as exc:
        alpha_note = str(exc)
    return CorpusStatistics(summary, correlations, correlations_note, alpha, alpha_note)


def per_year_aggregate(
    records: Sequence[tuple[int, float]],
) -> list[YearAggregate]:
    """Per-year count/mean/median of a value, one row per year, ascending."""
    buckets: dict[int, list[float]] = {}
    for year, value in records:
        if not isinstance(year, int) or isinstance(year, bool) or not 1000 <= year <= 9999:
            raise StatisticsError(f"invalid year {year!r}: expected a 4-digit integer")
        buckets.setdefault(year, []).append(value)
    rows = []
    for year in sorted(buckets):
        values = buckets[year]
        ordered = sorted(values)
        rows.append(
            YearAggregate(
                year=year,
                count=len(values),
                mean=math.fsum(values) / len(values),
                median=_quantile(ordered, 0.5),
            )
        )
    return rows
