"""The five readability grades and their common truncation rule.

Four indices are plain ratio formulas over TextMetrics; Linsear Write
scores 100-word samples of the per-word table that segmenter.scan builds
in the same pass. Every raw value is truncated UP to the nearest integer
(negative grades are possible and preserved). Raw values are evaluated
exactly, as fractions of the decimal constants, so the grade is the
true ceiling for any document size: a raw value that is an integer gains
no spurious +1 from binary rounding, and one a hair above an integer
still rounds up. SMOG's ceiling is decided on squares, so no square root
enters the comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenerateTextError
from .segmenter import TextMetrics, scan

__all__ = [
    "GRADE_FIELDS",
    "GradeVector",
    "LINSEAR_MODES",
    "flesch_kincaid",
    "smog",
    "ari",
    "coleman_liau",
    "linsear_write",
    "grade_all",
    "grade_metrics",
]

#: windowed  - average the scaled score of consecutive 100-word windows
#: compat    - score only the first 100 words (first-sample behaviour)
LINSEAR_MODES = ("windowed", "compat")


#: The five grade fields of GradeVector, in index order; the only place
#: the index names are spelled out.
GRADE_FIELDS = (
    "g1_flesch_kincaid",
    "g2_smog",
    "g3_ari",
    "g4_coleman_liau",
    "g5_linsear",
)


@dataclass(frozen=True)
class GradeVector:
    """The five truncated grades plus the three-index sum variable.

    sum_variable is the arithmetic mean of the Flesch-Kincaid, SMOG and
    ARI grades; the other two indices never contribute to it.
    """

    g1_flesch_kincaid: int
    g2_smog: int
    g3_ari: int
    g4_coleman_liau: int
    g5_linsear: int
    sum_variable: float


def _require(condition: bool, what: str) -> None:
    if not condition:
        raise DegenerateTextError(f"text has no measurable prose: {what}")


def flesch_kincaid(m: TextMetrics) -> int:
    _require(m.sentence_count >= 1, "sentence count is zero")
    _require(m.word_count >= 1, "word count is zero")
    raw = (
        Fraction("0.39") * Fraction(m.word_count, m.sentence_count)
        + Fraction("11.8") * Fraction(m.syllable_count, m.word_count)
        - Fraction("15.59")
    )
    return math.ceil(raw)


def smog(m: TextMetrics) -> int:
    _require(m.sentence_count >= 1, "sentence count is zero")
    # raw = 1.0430 * sqrt(radicand) + 3.1291, and raw <= g exactly when
    # (g - 3.1291) / 1.0430 is non-negative and its square >= radicand.
    radicand = Fraction(30 * m.polysyllable_count, m.sentence_count)
    scale, offset = Fraction("1.0430"), Fraction("3.1291")

    def at_most(grade: int) -> bool:
        bound = (grade - offset) / scale
        return bound >= 0 and radicand <= bound * bound

    # The float estimate is off by at most one either way.
    grade = math.ceil(float(scale) * math.sqrt(radicand) + float(offset))
    while not at_most(grade):
        grade += 1
    while at_most(grade - 1):
        grade -= 1
    return grade


def ari(m: TextMetrics) -> int:
    _require(m.sentence_count >= 1, "sentence count is zero")
    _require(m.word_count >= 1, "word count is zero")
    raw = (
        Fraction("4.71") * Fraction(m.character_count, m.word_count)
        + Fraction("0.5") * Fraction(m.word_count, m.sentence_count)
        - Fraction("21.43")
    )
    return math.ceil(raw)


def coleman_liau(m: TextMetrics) -> int:
    _require(m.word_count >= 1, "word count is zero")
    letters_per_100 = Fraction(100 * m.letter_count, m.word_count)
    sentences_per_100 = Fraction(100 * m.sentence_count, m.word_count)
    raw = (
        Fraction("0.0588") * letters_per_100
        - Fraction("0.296") * sentences_per_100
        - Fraction("15.8")
    )
    return math.ceil(raw)


def _check_mode(mode: str) -> None:
    if mode not in LINSEAR_MODES:
        raise ValueError(f"unknown linsear mode {mode!r}; expected one of {LINSEAR_MODES}")


def _sample_score(window: list[tuple[int, bool]]) -> Fraction:
    """Scaled Linsear score of one window of (syllables, ends_sentence) words."""
    hard = sum(syllables >= 3 for syllables, _ in window)
    easy = len(window) - hard
    # The window's sentences end at its own words; an unterminated tail
    # (or a heading-only window) counts as one more.
    sentences = sum(ends for _, ends in window) + (not window[-1][1])
    score = Fraction(easy * 1 + hard * 3, sentences)
    if score > 20:
        return score / 2
    return (score - 2) / 2


def _windows(words: list) -> list[list]:
    if len(words) <= 100:
        return [words]
    chunks = [words[i : i + 100] for i in range(0, len(words), 100)]
    # A short trailing window (< 50 words) merges into the previous one.
    if len(chunks) > 1 and len(chunks[-1]) < 50:
        tail = chunks.pop()
        chunks[-1] = chunks[-1] + tail
    return chunks


def linsear_write(words: list[tuple[int, bool]], mode: str = "windowed") -> int:
    """Linsear Write grade of a text's scanned words (segmenter.scan).

    Each 100-word sample scores one point per easy word (two syllables
    or less) and three per hard word (three or more), divided by the
    sentences in the sample; the quotient r is rescaled to r/2 when
    r > 20 and (r - 2)/2 otherwise. A sample's sentences are those ended
    by its own words: a terminator that stands alone as a token ends a
    sentence in TextMetrics but not in any sample. Windowed mode
    averages the scaled scores over consecutive non-overlapping 100-word
    windows; compat mode scores only the first 100 words. The result is
    truncated up.
    """
    _check_mode(mode)
    if not words:
        raise DegenerateTextError("text has no measurable prose: no word tokens")
    if mode == "compat":
        return math.ceil(_sample_score(words[:100]))
    scores = [_sample_score(window) for window in _windows(words)]
    return math.ceil(sum(scores) / len(scores))


def grade_metrics(text: str, mode: str = "windowed") -> tuple[TextMetrics, GradeVector]:
    """Count one text in a single scan and compute all five grades."""
    _check_mode(mode)
    m, words = scan(text)
    g1 = flesch_kincaid(m)
    g2 = smog(m)
    g3 = ari(m)
    g4 = coleman_liau(m)
    g5 = linsear_write(words, mode)
    return m, GradeVector(
        g1_flesch_kincaid=g1,
        g2_smog=g2,
        g3_ari=g3,
        g4_coleman_liau=g4,
        g5_linsear=g5,
        sum_variable=(g1 + g2 + g3) / 3,
    )


def grade_all(text: str, mode: str = "windowed") -> GradeVector:
    """Compute all five grades and the sum variable for one text."""
    return grade_metrics(text, mode)[1]
