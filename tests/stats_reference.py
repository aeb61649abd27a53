"""Test oracle: Cronbach's alpha per cell in Fraction, Pearson pair by pair.

A second spelling of lexgrade.stats.cronbach_alpha and
correlation_matrix for tests to compare against bit for bit. Alpha turns
every cell into a Fraction and takes each sample variance as an exact
rational; each correlation is one pearson call that centres both of its
columns afresh. Tests compare pearson with one entry of
correlation_matrix. Nothing in the package imports this module.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from lexgrade.errors import ConstantInputError, DegenerateVarianceError, StatisticsError


def _exact_variance(column: Sequence[Fraction]) -> Fraction:
    n = len(column)
    total = sum(column)
    total_sq = sum(v * v for v in column)
    return (n * total_sq - total * total) / Fraction(n * (n - 1))


def cronbach_alpha(columns: Sequence[Sequence[float]]) -> float:
    """alpha = (k/(k-1)) * (1 - sum(item variances) / variance(row sums))."""
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
        raise DegenerateVarianceError("total-score variance is zero; alpha undefined")
    return float(Fraction(k, k - 1) * (1 - item_var / total_var))


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Sample Pearson correlation, three fsum passes over the pair."""
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


def correlation_values(columns: Sequence[Sequence[float]]) -> tuple[tuple[float, ...], ...]:
    """Pearson matrix of non-constant columns, each pair computed on its own."""
    size = len(columns)
    cells = [[1.0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            cells[i][j] = cells[j][i] = pearson(columns[i], columns[j])
    return tuple(tuple(row) for row in cells)
