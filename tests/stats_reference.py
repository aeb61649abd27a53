"""Test oracle: alpha, Pearson, describe and the per-year summary in Fractions.

A second spelling of lexgrade.stats.cronbach_alpha, correlation_matrix,
describe's mean, standard deviation and quantiles, and
per_year_aggregate, for tests to compare against bit for bit. Every
cell becomes a Fraction; variances and covariances come from
deviations about the exact mean, not from the package's integer moment
table. Each correlation is one pearson call on its own pair, and each
square root is rounded by comparing Fraction midpoints between
neighbouring floats, not by math.isqrt. Tests compare pearson with one
entry of correlation_matrix. Nothing in the package imports this
module.
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


def rounded_sqrt(value: Fraction) -> float:
    """The float nearest the square root of value >= 0, ties to even.

    Starts from math.sqrt and steps to a neighbour (math.nextafter) until
    value lies between the squares of the Fraction midpoints on either
    side. No integer square root is taken.
    """
    root = math.sqrt(value)
    while True:
        below, above = math.nextafter(root, 0), math.nextafter(root, math.inf)
        low = ((Fraction(below) + Fraction(root)) / 2) ** 2
        high = ((Fraction(root) + Fraction(above)) / 2) ** 2
        odd = root > 0 and int(root / math.ulp(root)) % 2 == 1
        if value < low or (value == low and odd):
            root = below
        elif value > high or (value == high and odd):
            root = above
        else:
            return root


def mean_and_sd(values: Sequence[Fraction]) -> tuple[float, float]:
    """Mean and sample standard deviation (0.0 for one value), each from exact Fractions."""
    exact = [Fraction(v) for v in values]
    n = len(exact)
    mean = sum(exact) / n
    if n == 1:
        return float(mean), 0.0
    return float(mean), rounded_sqrt(sum((v - mean) ** 2 for v in exact) / (n - 1))


def pearson(x: Sequence[int], y: Sequence[int]) -> float:
    """Sample Pearson correlation of one pair: r**2 in Fractions, its root rounded once."""
    if len(x) != len(y):
        raise StatisticsError(f"length mismatch: {len(x)} vs {len(y)}")
    n = len(x)
    if n < 2:
        raise StatisticsError("need at least 2 observations")
    x, y = [Fraction(v) for v in x], [Fraction(v) for v in y]
    mean_x, mean_y = sum(x) / n, sum(y) / n
    sxx = sum((xi - mean_x) ** 2 for xi in x)
    syy = sum((yi - mean_y) ** 2 for yi in y)
    if sxx == 0:
        raise ConstantInputError("first vector is constant; correlation undefined")
    if syy == 0:
        raise ConstantInputError("second vector is constant; correlation undefined")
    sxy = sum((xi - mean_x) * (yi - mean_y) for xi, yi in zip(x, y))
    return math.copysign(rounded_sqrt(sxy * sxy / (sxx * syy)), sxy)


def correlation_values(columns: Sequence[Sequence[int]]) -> tuple[tuple[float, ...], ...]:
    """Pearson matrix of non-constant columns, each pair computed on its own."""
    size = len(columns)
    cells = [[1.0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            cells[i][j] = cells[j][i] = pearson(columns[i], columns[j])
    return tuple(tuple(row) for row in cells)


def quantile(values: Sequence[Fraction], p: Fraction) -> float:
    """Type-7 quantile: h = (n - 1) p, linear between the order statistics
    at floor(h) and ceil(h), in Fractions and rounded once."""
    ordered = sorted(map(Fraction, values))
    h = (len(ordered) - 1) * p
    lo, hi = math.floor(h), math.ceil(h)
    return float(ordered[lo] + (h - lo) * (ordered[hi] - ordered[lo]))


def per_year(years, g1, g2, g3) -> list[tuple[int, int, float, float]]:
    """(year, count, mean, median) of Fraction(g1+g2+g3, 3), years ascending."""
    buckets: dict[int, list[Fraction]] = {}
    for year, a, b, c in zip(years, g1, g2, g3):
        buckets.setdefault(year, []).append(Fraction(a + b + c, 3))
    return [
        (year, len(v), float(sum(v) / len(v)), quantile(v, Fraction(1, 2)))
        for year, v in sorted(buckets.items())
    ]
