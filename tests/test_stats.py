from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lexgrade.errors import (
    ConstantInputError,
    DegenerateVarianceError,
    StatisticsError,
)
from lexgrade.indices import GRADE_FIELDS
from lexgrade.stats import (
    INDEX_LABELS,
    corpus_statistics,
    correlation_matrix,
    cronbach_alpha,
    describe,
    per_year_aggregate,
)

sys.path.insert(0, str(Path(__file__).parent))
import stats_reference as reference  # noqa: E402


def grade_columns(*rows: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The five grade columns of per-document rows of five grades."""
    return list(zip(*rows))


def pair_correlation(x, y) -> float:
    """The x-y entry of correlation_matrix, beside three fixed non-constant columns."""
    n = len(x)
    fillers = [list(range(n)), [i * i for i in range(n)], [i % 2 for i in range(n)]]
    return correlation_matrix([x, y, *fillers]).values[0][1]


class TestPearson:
    def test_identity(self):
        x = [1.0, 2.0, 5.0]
        assert pair_correlation(x, x) == 1.0

    def test_sign_flip(self):
        x = [1.0, 2.0, 5.0]
        assert pair_correlation(x, [-v for v in x]) == -1.0

    def test_hand_value(self):
        assert pair_correlation([1, 2, 3], [1, 2, 4]) == pytest.approx(0.9820, abs=1e-4)

    def test_length_mismatch(self):
        with pytest.raises(StatisticsError, match="unequal lengths"):
            pair_correlation([1, 2], [1, 2, 3])

    def test_constant_vector(self):
        with pytest.raises(ConstantInputError, match="flesch_kincaid"):
            pair_correlation([1, 1, 1], [1, 2, 3])

    @given(
        st.lists(st.integers(-100, 100), min_size=3, max_size=30),
        st.lists(st.integers(-100, 100), min_size=3, max_size=30),
        st.integers(1, 50),
        st.integers(-100, 100),
        st.integers(1, 50),
        st.integers(-100, 100),
    )
    def test_positive_affine_invariance(self, x, y, a, b, c, d):
        n = min(len(x), len(y))
        x, y = x[:n], y[:n]
        assume(min(x) != max(x) and min(y) != max(y))
        base = pair_correlation(x, y)
        assert pair_correlation([a * v + b for v in x], [c * v + d for v in y]) == base
        assert pair_correlation([-a * v + b for v in x], [c * v + d for v in y]) == -base


class TestCorrelationMatrix:
    def test_collinear_columns_all_one(self):
        grades = grade_columns((1, 2, 3, 4, 5), (2, 3, 4, 5, 6), (3, 4, 5, 6, 7))
        matrix = correlation_matrix(grades)
        assert matrix.labels == INDEX_LABELS
        for row in matrix.values:
            assert all(v == 1.0 for v in row)

    def test_constant_column_named(self):
        grades = grade_columns((1, 2, 3, 9, 5), (2, 3, 4, 9, 6), (3, 4, 5, 9, 7))
        with pytest.raises(ConstantInputError, match="coleman_liau"):
            correlation_matrix(grades)

    def test_symmetric_and_unit_diagonal(self):
        grades = grade_columns((1, 5, 2, 8, 3), (4, 1, 9, 2, 6), (2, 7, 3, 1, 9),
                               (8, 2, 5, 4, 1))
        matrix = correlation_matrix(grades)
        for i in range(5):
            assert matrix.values[i][i] == 1.0
            for j in range(5):
                assert matrix.values[i][j] == matrix.values[j][i]
                assert -1.0 <= matrix.values[i][j] <= 1.0

    def test_needs_two_documents(self):
        with pytest.raises(StatisticsError):
            correlation_matrix(grade_columns((1, 2, 3, 4, 5)))


class TestCronbachAlpha:
    def test_identical_columns_exactly_one(self):
        column = [1.0, 2.0, 3.0]
        assert cronbach_alpha([column, column, column]) == 1.0

    def test_anticorrelated_degenerate(self):
        with pytest.raises(DegenerateVarianceError):
            cronbach_alpha([[1, 2, 3], [3, 2, 1]])

    def test_hand_value(self):
        # item variances 1, 7/3, 1/3; totals (4, 6, 10) variance 28/3
        expected = float(Fraction(3, 2) * (1 - Fraction(11, 3) / Fraction(28, 3)))
        assert cronbach_alpha([[1, 2, 3], [1, 2, 4], [2, 2, 3]]) == expected
        assert expected == pytest.approx(51 / 56)

    def test_unequal_lengths(self):
        with pytest.raises(StatisticsError):
            cronbach_alpha([[1, 2, 3], [1, 2]])

    @pytest.mark.parametrize(
        "bad", [2.5, Fraction(1, 3), float("nan"), float("inf"), "2", None]
    )
    def test_non_integral_value_raises(self, bad):
        with pytest.raises(StatisticsError, match="integer"):
            cronbach_alpha([[1, 2, 3], [1, bad, 4], [2, 2, 3]])
        with pytest.raises(StatisticsError, match="integer"):
            correlation_matrix(
                grade_columns((1, 2, 3, 4, 5), (2, bad, 1, 5, 3), (3, 1, 2, 6, 4))
            )
        with pytest.raises(StatisticsError, match="integer"):
            describe([1, bad, 4])

    @given(
        st.lists(
            st.lists(st.integers(-50, 50), min_size=4, max_size=4),
            min_size=2,
            max_size=6,
        )
    )
    def test_never_exceeds_one(self, columns):
        try:
            alpha = cronbach_alpha(columns)
        except DegenerateVarianceError:
            assume(False)
        assert alpha <= 1.0


class TestDescribe:
    def test_type7_quartiles(self):
        s = describe([1, 2, 3, 4])
        assert (s.median, s.q1, s.q3) == (2.5, 1.75, 3.25)

    def test_single_value(self):
        s = describe([5])
        assert (s.n, s.median, s.standard_deviation) == (1, 5, 0.0)

    def test_constant(self):
        s = describe([2, 2, 2, 2])
        assert (s.mean, s.standard_deviation, s.q1, s.q3) == (2.0, 0.0, 2.0, 2.0)

    def test_empty_raises(self):
        with pytest.raises(StatisticsError):
            describe([])

    @pytest.mark.parametrize("divisor", [0, -1, 2.5, 3.0])
    def test_bad_divisor_raises(self, divisor):
        # Unchecked, 0 divides by zero, a float has no bit_length in _sqrt,
        # and -1 flips the order statistics (q1 > q3, min > max).
        with pytest.raises(StatisticsError, match="divisor"):
            describe([1, 2, 3, 10], divisor=divisor)

    def test_order_statistics_sane(self):
        s = describe([9, 1, 4, 4, 7, 2])
        assert s.min <= s.q1 <= s.median <= s.q3 <= s.max

    @given(st.lists(st.integers(-1000, 1000), min_size=1, max_size=40),
           st.randoms())
    def test_permutation_invariant(self, values, rng):
        shuffled = list(values)
        rng.shuffle(shuffled)
        assert describe(shuffled) == describe(values)


def year_columns(*records: tuple[int, int, int, int]) -> dict[str, list[int]]:
    """per_year_aggregate's columns from (year, g1, g2, g3) rows."""
    keys = ("year", *GRADE_FIELDS[:3])
    return {key: [record[i] for record in records] for i, key in enumerate(keys)}


class TestPerYearAggregate:
    def test_example(self):
        # Sum variables 30, 32 and 28.
        rows = per_year_aggregate(
            year_columns((1990, 29, 30, 31), (1990, 33, 31, 32), (2000, 20, 30, 34))
        )
        assert [tuple(r) for r in rows] == [
            (1990, 2, 31.0, 31.0),
            (2000, 1, 28.0, 28.0),
        ]

    def test_empty(self):
        assert per_year_aggregate(year_columns()) == []

    def test_order_independent(self):
        records = [(2001, 5, 5, 5), (1999, 1, 1, 1), (2001, 7, 6, 8), (1999, 3, 2, 4)]
        assert per_year_aggregate(year_columns(*records)) == per_year_aggregate(
            year_columns(*records[::-1])
        )

    def test_invalid_year(self):
        with pytest.raises(StatisticsError):
            per_year_aggregate(year_columns((99, 1, 1, 1)))
        with pytest.raises(StatisticsError):
            per_year_aggregate(year_columns((12345, 1, 1, 1)))

    @pytest.mark.parametrize("bad", [999, 10000, True, 1990.0, "1990", None])
    def test_invalid_year_named_first(self, bad):
        columns = year_columns((1990, 1, 1, 1), (2001, 2, 2, 2), (1991, 3, 3, 3))
        columns["year"][1:] = [bad, 12345]
        with pytest.raises(StatisticsError) as raised:
            per_year_aggregate(columns)
        assert str(raised.value) == f"invalid year {bad!r}: expected a 4-digit integer"

    @pytest.mark.parametrize("key", GRADE_FIELDS[:3])
    @pytest.mark.parametrize("bad", [2.5, "2", None])
    def test_non_integer_grade(self, key, bad):
        columns = year_columns((1990, 1, 1, 1), (1990, 2, 2, 2))
        columns[key][0] = bad
        with pytest.raises(StatisticsError) as raised:
            per_year_aggregate(columns)
        assert str(raised.value) == "statistics need integer values"

    def test_non_integer_grades_with_integer_sum(self):
        with pytest.raises(StatisticsError, match="^statistics need integer values$"):
            per_year_aggregate(year_columns((1990, 0.5, 0.5, 2)))

    def test_counts_sum_to_input_length(self):
        records = [(1990 + (i % 7), i, i, i) for i in range(23)]
        rows = per_year_aggregate(year_columns(*records))
        assert sum(r.count for r in rows) == len(records)
        assert [r.year for r in rows] == sorted({y for y, *_ in records})

    def test_unequal_lengths(self):
        columns = year_columns((1990, 1, 2, 3), (1991, 4, 5, 6))
        columns["g2_smog"].pop()
        with pytest.raises(StatisticsError, match="unequal lengths"):
            per_year_aggregate(columns)


# Integer grade columns, from small grades to values far past any grade.
_grade = st.one_of(st.integers(-3, 30), st.integers(-10**9, 10**9))


def _columns(k_min: int, k_max: int):
    return st.integers(2, 25).flatmap(
        lambda n: st.lists(
            st.lists(_grade, min_size=n, max_size=n), min_size=k_min, max_size=k_max
        )
    )


QUARTERS = (Fraction(1, 2), Fraction(1, 4), Fraction(3, 4))


def exact_quantiles(values, divisor=1) -> tuple[float, ...]:
    """The oracle's median, q1 and q3 of values over divisor."""
    exact = [Fraction(v, divisor) for v in values]
    return tuple(reference.quantile(exact, p) for p in QUARTERS)


def _outcome(function, *args):
    try:
        return function(*args)
    except StatisticsError as exc:
        return type(exc), str(exc)


# Columns at the ends of the square root's scaling: two rows, whose
# moments are small, and grades near +-10**9, whose moments are large.
EDGE_COLUMNS = [
    [[1, 2], [3, 5], [0, 7], [-4, 4], [9, 8]],
    [[0, 1], [1, 0], [-1, 1], [5, 6], [2, 3]],
    [
        [10**9, -10**9, 10**9 - 1, -7],
        [-10**9, 10**9 - 3, 1, 10**9],
        [10**9, 10**9 - 1, -10**9, 10**9 - 2],
        [3, -10**9 + 1, 10**9, -10**9],
        [10**9 - 5, -10**9 + 5, 0, 10**9],
    ],
]


# Order statistics are read from counts of tied values. In the ten-value
# column, the type-7 positions of q1 (2 and 3), the median (4 and 5) and
# q3 (6 and 7) each fall on two different runs of ties.
TIED_RUNS = [8, -4, 6, 1, 8, -4, 1, 6, -4, 8]
QUANTILE_COLUMNS = {
    "tied-runs": TIED_RUNS,
    "one-value": [7] * 5,
    "one-negative-value": [-3] * 4,
    "n1": [5],
    "n1-negative": [-2],
    "n2": [8, 3],
    "n2-tied": [-1, -1],
    "negative": [-9, -1, -5, -5, -9, -20],
}


class TestAgainstReference:
    """Bit equality (==) with the Fraction oracle: alpha, Pearson, summaries, years."""

    @pytest.mark.parametrize("columns", EDGE_COLUMNS)
    def test_edge_columns(self, columns):
        assert correlation_matrix(columns).values == reference.correlation_values(columns)
        assert _outcome(cronbach_alpha, columns[:3]) == _outcome(
            reference.cronbach_alpha, columns[:3]
        )
        for column in columns:
            summary = describe(column)
            assert (summary.mean, summary.standard_deviation) == reference.mean_and_sd(column)

    @pytest.mark.parametrize("values", [[-10**20, 10**20, 3], [10**30, 1]])
    def test_describe_past_grade_range(self, values):
        # Variances of 2**110 and more: the square root needs no scaling.
        summary = describe(values)
        assert (summary.mean, summary.standard_deviation) == reference.mean_and_sd(values)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(_grade, min_size=1, max_size=25), st.sampled_from([1, 3]))
    def test_describe(self, values, divisor):
        summary = describe(values, divisor)
        expected = reference.mean_and_sd([Fraction(v, divisor) for v in values])
        assert (summary.mean, summary.standard_deviation) == expected
        assert (summary.median, summary.q1, summary.q3) == exact_quantiles(values, divisor)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 25).flatmap(lambda n: st.tuples(
        st.lists(st.integers(1990, 1994), min_size=n, max_size=n),
        st.lists(st.lists(_grade, min_size=n, max_size=n), min_size=3, max_size=3),
    )))
    def test_per_year_aggregate(self, data):
        years, grades = data
        rows = per_year_aggregate(dict(zip(("year", *GRADE_FIELDS[:3]), (years, *grades))))
        assert [tuple(row) for row in rows] == reference.per_year(years, *grades)

    @settings(max_examples=150, deadline=None)
    @given(_columns(2, 6))
    def test_alpha(self, columns):
        assert _outcome(cronbach_alpha, columns) == _outcome(
            reference.cronbach_alpha, columns
        )

    @settings(max_examples=150, deadline=None)
    @given(_columns(2, 2))
    def test_pearson(self, columns):
        try:
            expected = reference.pearson(*columns)
        except ConstantInputError:
            with pytest.raises(ConstantInputError):
                pair_correlation(*columns)
            return
        assert pair_correlation(*columns) == expected

    @settings(max_examples=100, deadline=None)
    @given(_columns(5, 5))
    def test_correlation_matrix(self, columns):
        try:
            expected = reference.correlation_values(columns)
        except ConstantInputError:
            with pytest.raises(ConstantInputError):
                correlation_matrix(columns)
            return
        assert correlation_matrix(columns).values == expected

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 25).flatmap(
        lambda n: st.lists(st.lists(_grade, min_size=n, max_size=n), min_size=5, max_size=5)
    ))
    # A constant Coleman-Liau column; a constant ARI column and FK/SMOG/ARI sums.
    @example([[1, 2, 3], [2, 1, 3], [3, 3, 1], [4, 4, 4], [1, 5, 2]])
    @example([[1, 2, 3], [3, 2, 1], [2, 2, 2], [1, 4, 9], [5, 1, 2]])
    # Runs of ties in every column and in the sums; one value; n = 1 and 2;
    # negative grades.
    @example([TIED_RUNS, [-v for v in TIED_RUNS], TIED_RUNS[::-1],
              [v % 5 for v in TIED_RUNS], [v // 3 for v in TIED_RUNS]])
    @example([[7] * 5, [-3] * 5, [7] * 5, [0] * 5, [-3] * 5])
    @example([[5], [-2], [4], [9], [-7]])
    @example([[8, 3], [-1, -1], [3, 8], [2, -6], [0, 1]])
    @example([[-9, -1, -5, -5, -9, -20]] * 5)
    def test_corpus_statistics(self, grades):
        # The sum variable is g1+g2+g3 over 3. Its mean, sd and quantiles
        # equal the oracle's, and its min and max those of the float
        # column (a+b+c)/3 that analyze writes.
        statistics = corpus_statistics(dict(zip(GRADE_FIELDS, grades)))
        sums = [a + b + c for a, b, c in zip(*grades[:3])]
        assert statistics.summary == {
            **{label: describe(column) for label, column in zip(INDEX_LABELS, grades)},
            "sum_variable": describe(sums, divisor=3),
        }
        for label, column in zip(INDEX_LABELS, grades):
            summary = statistics.summary[label]
            assert (summary.median, summary.q1, summary.q3) == exact_quantiles(column)
        summary = statistics.summary["sum_variable"]
        thirds = sorted(s / 3 for s in sums)
        assert (summary.mean, summary.standard_deviation) == reference.mean_and_sd(
            [Fraction(s, 3) for s in sums]
        )
        assert (summary.median, summary.q1, summary.q3) == exact_quantiles(sums, 3)
        assert (summary.min, summary.max) == (thirds[0], thirds[-1])
        if len(sums) < 2:
            assert (statistics.correlations, statistics.correlations_note) == (None, "n < 2")
            assert (statistics.alpha, statistics.alpha_note) == (None, "n < 2")
            return
        try:
            expected = reference.correlation_values(grades)
        except ConstantInputError:
            # The note is the message correlation_matrix raises, naming the column.
            assert statistics.correlations is None
            with pytest.raises(ConstantInputError) as raised:
                correlation_matrix(grades)
            assert statistics.correlations_note == str(raised.value)
        else:
            assert statistics.correlations.labels == INDEX_LABELS
            assert statistics.correlations.values == expected
            assert statistics.correlations_note is None
        alpha = _outcome(cronbach_alpha, grades[:3])
        assert alpha == _outcome(reference.cronbach_alpha, grades[:3])
        if isinstance(alpha, float):
            assert (statistics.alpha, statistics.alpha_note) == (alpha, None)
        else:
            assert (statistics.alpha, statistics.alpha_note) == (None, alpha[1])

    @pytest.mark.parametrize("column", range(5))
    @pytest.mark.parametrize("bad", [2.5, "2", None])
    def test_corpus_statistics_non_integer(self, column, bad):
        grades = [[3, 5, 7, 9] for _ in GRADE_FIELDS]
        grades[column][2] = bad
        with pytest.raises(StatisticsError) as raised:
            corpus_statistics(dict(zip(GRADE_FIELDS, grades)))
        assert str(raised.value) == "statistics need integer values"


def reference_quantiles(values, divisor) -> tuple[float, ...]:
    """The oracle's median, q1, q3, min and max of values over divisor."""
    exact = [Fraction(v, divisor) for v in values]
    return tuple(reference.quantile(exact, p) for p in (*QUARTERS, 0, 1))


def _quantiles(summary) -> tuple[float, ...]:
    return summary.median, summary.q1, summary.q3, summary.min, summary.max


class TestQuantilesFromCounts:
    @pytest.mark.parametrize("divisor", [1, 3])
    @pytest.mark.parametrize("values", QUANTILE_COLUMNS.values(), ids=QUANTILE_COLUMNS.keys())
    def test_describe(self, values, divisor):
        summary = describe(values, divisor)
        assert summary.n == len(values)
        assert _quantiles(summary) == reference_quantiles(values, divisor)

    def test_tied_runs_hand_values(self):
        # Sorted: -4 -4 -4 1 1 6 6 8 8 8.
        assert _quantiles(describe(TIED_RUNS)) == (3.5, -2.75, 7.5, -4.0, 8.0)
