"""Corpus-level statistics: correlations, internal consistency, summaries.

Sample (n-1) variances are used throughout, including inside Cronbach's
alpha, and quantiles use linear interpolation between order statistics
(the "type 7" convention); both choices are named in report output so
published numbers are auditable. Correlations are computed on the
truncated integer grades, not the raw formula values. Cronbach's alpha
takes integer columns only and is exact: it uses integer sums.

Grades come in as columns, one value per document: corpus_statistics
takes a mapping from each of GRADE_FIELDS and "sum_variable" to its
column, correlation_matrix the five grade columns in GRADE_FIELDS order.
A results file read by the CLI is already in that shape; per-document
GradeVectors are transposed once, e.g.
dict(zip((*GRADE_FIELDS, "sum_variable"), zip(*map(astuple, grades)))).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from operator import mul, sub
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


def _centred(column: Sequence[float]) -> tuple[float, list[float], float]:
    """Mean, deviations from it and their sum of squares (fsum: exactly rounded)."""
    mean = math.fsum(column) / len(column)
    deviations = list(map(sub, column, repeat(mean)))
    return mean, deviations, math.fsum(map(pow, deviations, repeat(2)))


def _correlation(dx: list[float], sxx: float, dy: list[float], syy: float) -> float:
    r = math.fsum(map(mul, dx, dy)) / math.sqrt(sxx * syy)
    return max(-1.0, min(1.0, r))


def correlation_matrix(
    columns: Sequence[Sequence[float]], *, _centring=None
) -> CorrelationMatrix:
    """Pairwise Pearson matrix over the five grade columns.

    columns are in GRADE_FIELDS order; the matrix is in INDEX_LABELS
    order. Each column is centred once and shared by its four pairs.
    Raises ConstantInputError naming the offending column when any index
    is constant across documents.
    """
    if len(columns) != len(INDEX_LABELS):
        raise StatisticsError(f"need 5 grade columns, got {len(columns)}")
    n = len(columns[0])
    if any(len(c) != n for c in columns):
        raise StatisticsError("columns have unequal lengths")
    if n < 2:
        raise StatisticsError("need at least 2 documents")
    centred = []
    for label, (_, deviations, squares) in zip(
        INDEX_LABELS, _centring or map(_centred, columns)
    ):
        if squares == 0:
            raise ConstantInputError(
                f"column '{label}' is constant; correlation undefined"
            )
        centred.append((deviations, squares))

    size = len(INDEX_LABELS)
    cells = [[1.0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            cells[i][j] = cells[j][i] = _correlation(*centred[i], *centred[j])
    return CorrelationMatrix(
        labels=INDEX_LABELS,
        values=tuple(tuple(row) for row in cells),
    )


def _scaled_variance(column: Sequence[int]) -> int:
    # n * sum(x^2) - (sum x)^2, which is n(n-1) times the sample variance.
    return len(column) * sum(map(mul, column, column)) - sum(column) ** 2


def cronbach_alpha(columns: Sequence[Sequence[int]]) -> float:
    """Cronbach's alpha over k integer measurement columns.

    alpha = (k/(k-1)) * (1 - sum(item variances) / variance(row sums))
    with sample variances, each taken as the exact integer n*sum(x^2) -
    (sum x)^2, so alpha is one correctly rounded int/int division and
    identical columns give exactly 1.0. Values must be integral (grades
    are truncated integers); any other value raises StatisticsError.
    """
    k = len(columns)
    if k < 2:
        raise StatisticsError("need at least 2 columns")
    n = len(columns[0])
    if n < 2:
        raise StatisticsError("need at least 2 rows")
    if any(len(c) != n for c in columns):
        raise StatisticsError("columns have unequal lengths")

    try:
        exact = [list(map(int, column)) for column in columns]
    except (TypeError, ValueError, OverflowError):
        exact = None
    if exact != [list(column) for column in columns]:
        raise StatisticsError("alpha needs integer values")
    item_var = sum(map(_scaled_variance, exact))
    total_var = _scaled_variance(list(map(sum, zip(*exact))))
    if total_var == 0:
        raise DegenerateVarianceError(
            "total-score variance is zero; alpha undefined"
        )
    return k * (total_var - item_var) / ((k - 1) * total_var)


def _quantile(ordered: Sequence[float], p: float) -> float:
    # Type 7: h = (n - 1) p, linear interpolation between floor/ceil ranks.
    h = (len(ordered) - 1) * p
    lo = math.floor(h)
    hi = math.ceil(h)
    if lo == hi:
        return float(ordered[lo])
    return ordered[lo] + (h - lo) * (ordered[hi] - ordered[lo])


def describe(values: Sequence[float], *, _centring=None) -> SummaryStats:
    """Descriptive summary of a numeric vector (n >= 1)."""
    n = len(values)
    if n == 0:
        raise StatisticsError("cannot summarize an empty vector")
    ordered = sorted(values)
    mean, _, squares = _centring or _centred(values)
    return SummaryStats(
        n=n,
        mean=mean,
        standard_deviation=math.sqrt(squares / (n - 1)) if n > 1 else 0.0,
        median=_quantile(ordered, 0.5),
        q1=_quantile(ordered, 0.25),
        q3=_quantile(ordered, 0.75),
        min=float(ordered[0]),
        max=float(ordered[-1]),
    )


def corpus_statistics(columns: Mapping[str, Sequence[float]]) -> CorpusStatistics:
    """Summaries, Pearson correlations and FK/SMOG/ARI Cronbach alpha (n >= 1).

    columns maps each of GRADE_FIELDS and "sum_variable" to one value per
    document. Each grade column is centred once, for its summary and for
    the correlations.
    """
    grades = [columns[field] for field in GRADE_FIELDS]
    n = len(columns["sum_variable"])
    if any(len(column) != n for column in grades):
        raise StatisticsError("columns have unequal lengths")
    if n == 0:
        raise StatisticsError("cannot summarize an empty vector")
    centring = list(map(_centred, grades))
    summary = {
        label: describe(column, _centring=centred)
        for label, column, centred in zip(INDEX_LABELS, grades, centring)
    }
    summary["sum_variable"] = describe(columns["sum_variable"])
    if n < 2:
        return CorpusStatistics(summary, None, "n < 2", None, "n < 2")

    correlations = correlations_note = alpha = alpha_note = None
    try:
        correlations = correlation_matrix(grades, _centring=centring)
    except StatisticsError as exc:
        correlations_note = str(exc)
    try:
        # Flesch-Kincaid, SMOG and ARI: the indices of the sum variable.
        alpha = cronbach_alpha(grades[:3])
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
