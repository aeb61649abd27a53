"""Corpus-level statistics: correlations, internal consistency, summaries.

Every input is an integer: grades are truncated integers, and the sum
variable is g1+g2+g3 with divisor 3. Other values raise StatisticsError.
One exact integer moment table, each column's sum and S[i][j] =
n*sum(x_i*x_j) - sum(x_i)*sum(x_j), gives every mean, sample (n-1)
standard deviation, Pearson correlation and Cronbach's alpha as one
correctly rounded int/int division or square root of one: correlations
lie in [-1, 1] and identical columns give exactly 1.0. Correlations use
the truncated grades, not the raw formula values. Quantiles are type 7
(linear interpolation between order statistics), one int/int division
each, with the order statistics read from one count of each distinct
value (a bisect on the running counts), not from a sort. Both
conventions are named in report output so published numbers are
auditable. corpus_statistics reads every figure from one table over the
five grade columns; per_year_aggregate groups g1+g2+g3 by year in one
pass.

Grades come in as columns, one value per document, as
results.read_results returns them; per-document GradeVectors are
transposed once, e.g. dict(zip(GRADE_FIELDS, zip(*grades)))."""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from itertools import accumulate
from operator import add, mul
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import ConstantInputError, DegenerateVarianceError, StatisticsError
from .indices import GRADE_FIELDS

__all__ = [
    "INDEX_LABELS", "QUANTILE_CONVENTION", "CorpusStatistics", "CorrelationMatrix",
    "SummaryStats", "YearAggregate", "correlation_matrix", "cronbach_alpha", "describe",
    "corpus_statistics", "per_year_aggregate",
]

#: Column order of grade matrices and reports: GRADE_FIELDS without "gN_".
INDEX_LABELS = tuple(field.split("_", 1)[1] for field in GRADE_FIELDS)

QUANTILE_CONVENTION = "linear interpolation between order statistics (type 7)"

#: A column's distinct values ascending, and how many values are at most each.
_Order = tuple[list[int], list[int]]


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

    summary has one entry per index label plus "sum_variable". correlations
    and alpha are None when they cannot be computed; *_note says why (e.g. "n < 2").
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


def _integers(columns: Sequence[Sequence[int]]) -> Sequence[Sequence[int]]:
    """The columns with every value an int; StatisticsError if one is not an integer."""
    if all({int}.issuperset(map(type, column)) for column in columns):
        return columns
    try:
        exact = [list(map(int, column)) for column in columns]
    except (TypeError, ValueError, OverflowError):
        exact = None
    if exact != [list(column) for column in columns]:
        raise StatisticsError("statistics need integer values")
    return exact


def _moments(
    columns: Sequence[Sequence[int]],
) -> tuple[Sequence[Sequence[int]], list[int], list[list[int]]]:
    """The columns as ints, each one's sum and S[i][j] = n*sum(x_i*x_j) - sum(x_i)*sum(x_j).

    S[i][j] is n(n-1) times the sample covariance of columns i and j.
    """
    exact = _integers(columns)
    n, sums = len(exact[0]), list(map(sum, exact))
    table = [[0] * len(exact) for _ in exact]
    for i, (x, sx) in enumerate(zip(exact, sums)):
        for j in range(i, len(exact)):
            table[i][j] = table[j][i] = n * sum(map(mul, x, exact[j])) - sx * sums[j]
    return exact, sums, table


def _sqrt(p: int, q: int) -> float:
    """The square root of p/q (p >= 0, q > 0), correctly rounded."""
    # Scale p/q by 4**s so its integer root has 56 bits or more, and set the
    # root's last bit when it is inexact: its one rounding to float is exact.
    s = max(0, (112 - p.bit_length() + q.bit_length()) // 2)
    root = math.isqrt((p << 2 * s) // q)
    return (root | (root * root * q != p << 2 * s)) / (1 << s)


def _correlations(table: list[list[int]]) -> CorrelationMatrix:
    variances = [row[i] for i, row in enumerate(table)]
    for label, variance in zip(INDEX_LABELS, variances):
        if variance == 0:
            raise ConstantInputError(f"column '{label}' is constant; correlation undefined")
    return CorrelationMatrix(INDEX_LABELS, tuple(
        tuple(math.copysign(_sqrt(s * s, vi * vj), s) for s, vj in zip(row, variances))
        for row, vi in zip(table, variances)
    ))


def _alpha(table: list[list[int]]) -> float:
    k, total_var = len(table), sum(map(sum, table))
    item_var = sum(row[i] for i, row in enumerate(table))
    if total_var == 0:
        raise DegenerateVarianceError("total-score variance is zero; alpha undefined")
    return k * (total_var - item_var) / ((k - 1) * total_var)


def correlation_matrix(columns: Sequence[Sequence[int]]) -> CorrelationMatrix:
    """Pairwise Pearson matrix over the five integer grade columns.

    columns are in GRADE_FIELDS order; the matrix is in INDEX_LABELS
    order, each r = sign(S_ij) * sqrt(S_ij^2 / (S_ii * S_jj)). Raises
    ConstantInputError naming the first constant column.
    """
    if len(columns) != len(INDEX_LABELS):
        raise StatisticsError(f"need 5 grade columns, got {len(columns)}")
    n = len(columns[0])
    if any(len(c) != n for c in columns):
        raise StatisticsError("columns have unequal lengths")
    if n < 2:
        raise StatisticsError("need at least 2 documents")
    return _correlations(_moments(columns)[2])


def cronbach_alpha(columns: Sequence[Sequence[int]]) -> float:
    """Cronbach's alpha over k integer measurement columns.

    alpha = (k/(k-1)) * (1 - sum(item variances) / variance(row sums))
    with sample variances: n(n-1) times them are sum(S_ii) and the sum of
    every S_ij, so alpha is one int/int division (1.0 for identical columns).
    """
    if len(columns) < 2:
        raise StatisticsError("need at least 2 columns")
    n = len(columns[0])
    if n < 2:
        raise StatisticsError("need at least 2 rows")
    if any(len(c) != n for c in columns):
        raise StatisticsError("columns have unequal lengths")
    return _alpha(_moments(columns)[2])


def _order(values: Iterable[int]) -> _Order:
    """The _Order of values: one Counter, one sort of its distinct keys."""
    counts = Counter(values)
    distinct = sorted(counts)
    return distinct, list(accumulate(map(counts.__getitem__, distinct)))


def _quantile(order: _Order, quarters: int, divisor: int) -> float:
    # Type 7 at p = quarters/4 over the k-th smallest value / divisor: (n - 1) p
    # is lo + f/4, and the values at lo and lo + 1 weigh 4 - f and f. The k-th
    # smallest (k from 0) is the first distinct value with more than k values at most it.
    distinct, at_most = order
    lo, f = divmod((at_most[-1] - 1) * quarters, 4)
    low, high = (distinct[bisect_right(at_most, k)] for k in (lo, lo + (f > 0)))
    return (low * (4 - f) + high * f) / (4 * divisor)


def _summary(total: int, square: int, order: _Order, divisor: int) -> SummaryStats:
    # From the values' order, their sum and S_ii. Min and max are type 7 at p = 0 and 1.
    n = order[1][-1]
    sd = _sqrt(square, n * (n - 1) * divisor**2) if n > 1 else 0.0
    quantiles = (_quantile(order, quarters, divisor) for quarters in (2, 1, 3, 0, 4))
    return SummaryStats(n, total / (n * divisor), sd, *quantiles)


def describe(values: Sequence[int], divisor: int = 1) -> SummaryStats:
    """Summary of the integer values, each divided by divisor (n >= 1)."""
    if type(divisor) is not int or divisor < 1:
        raise StatisticsError(f"divisor must be an int >= 1, got {divisor!r}")
    if len(values) == 0:
        raise StatisticsError("cannot summarize an empty vector")
    (exact,), (total,), ((square,),) = _moments([values])
    return _summary(total, square, _order(exact), divisor)


def corpus_statistics(columns: Mapping[str, Sequence[int]]) -> CorpusStatistics:
    """Summaries, Pearson correlations and FK/SMOG/ARI Cronbach alpha (n >= 1).

    columns maps each of GRADE_FIELDS to one integer grade per document;
    other keys are ignored. The sum variable is g1+g2+g3 over 3: its sum
    is s1+s2+s3 and its S the sum of the FK/SMOG/ARI block of the table.
    """
    grades = [columns[field] for field in GRADE_FIELDS]
    n = len(grades[0])
    if any(len(column) != n for column in grades):
        raise StatisticsError("columns have unequal lengths")
    if n == 0:
        raise StatisticsError("cannot summarize an empty vector")
    grades, sums, table = _moments(grades)
    block = [row[:3] for row in table[:3]]
    summary = {
        label: _summary(total, table[i][i], _order(column), 1)
        for i, (label, column, total) in enumerate(zip(INDEX_LABELS, grades, sums))
    }
    order = _order(map(add, map(add, grades[0], grades[1]), grades[2]))
    summary["sum_variable"] = _summary(sum(sums[:3]), sum(map(sum, block)), order, 3)
    if n < 2:
        return CorpusStatistics(summary, None, "n < 2", None, "n < 2")
    correlations = correlations_note = alpha = alpha_note = None
    try:
        correlations = _correlations(table)
    except StatisticsError as exc:
        correlations_note = str(exc)
    try:
        alpha = _alpha(block)
    except StatisticsError as exc:
        alpha_note = str(exc)
    return CorpusStatistics(summary, correlations, correlations_note, alpha, alpha_note)


def per_year_aggregate(columns: Mapping[str, Sequence[int]]) -> list[YearAggregate]:
    """Per-year count, mean and median of the sum variable, years ascending.

    columns maps "year" and the first three of GRADE_FIELDS to one integer
    per document. One pass groups g1+g2+g3 by year; a mean is one int/int division.
    """
    years, fk, smog, ari = (columns[key] for key in ("year", *GRADE_FIELDS[:3]))
    if any(len(column) != len(years) for column in (fk, smog, ari)):
        raise StatisticsError("columns have unequal lengths")
    plain = {int}.issuperset(map(type, years))
    if not plain or years and not 1000 <= min(years) <= max(years) <= 9999:
        bad = next(y for y in years if type(y) is not int or not 1000 <= y <= 9999)
        raise StatisticsError(f"invalid year {bad!r}: expected a 4-digit integer")
    fk, smog, ari = _integers([fk, smog, ari])
    totals = list(map(add, map(add, fk, smog), ari))
    buckets: dict[int, list[int]] = {}
    for year, total in zip(years, totals):
        buckets.setdefault(year, []).append(total)
    return [
        YearAggregate(year, len(b), sum(b) / (3 * len(b)), _quantile(_order(b), 2, 3))
        for year, b in sorted(buckets.items())
    ]
