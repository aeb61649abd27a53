"""The five readability grades and their common truncation rule.

Four indices are plain ratio formulas over TextMetrics; Linsear Write
scores 100-word samples of the word codes that segmenter.scan returns
with them: one character per word, "a" easy, "b" easy and ending a
sentence, "c" hard, "d" hard and ending a sentence. Every raw value is
truncated UP to the nearest integer (negative grades are possible and
preserved), and every ceiling is exact for any document size.
Flesch-Kincaid, ARI and Coleman-Liau are each one integer ceiling
division: their decimal constants are scaled to integers over a common
denominator of the counts. SMOG's square root is decided by an integer
square root, and Linsear's mean window score is one integer ceiling over
the windows' common denominator. No binary rounding enters: an integer
raw value gains no spurious +1, and one a hair above an integer still
rounds up.
"""

from __future__ import annotations

import math
from typing import NamedTuple

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
    "grade_metrics",
]

#: windowed  - average the scaled score of consecutive 100-word windows
#: compat    - score only the first 100 words (first-sample behaviour)
LINSEAR_MODES = ("windowed", "compat")


class GradeVector(NamedTuple):
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


#: The five grade fields of GradeVector, in index order. GradeVector is
#: the only place the index names are spelled out.
GRADE_FIELDS = GradeVector._fields[:5]


def _require(condition: bool, what: str) -> None:
    if not condition:
        raise DegenerateTextError(f"text has no measurable prose: {what}")


def flesch_kincaid(m: TextMetrics) -> int:
    _require(m.sentence_count >= 1, "sentence count is zero")
    _require(m.word_count >= 1, "word count is zero")
    # 0.39 W/S + 11.8 Syl/W - 15.59, over the denominator 100 S W.
    s, w = m.sentence_count, m.word_count
    num = 39 * w * w + 1180 * m.syllable_count * s - 1559 * s * w
    return -(-num // (100 * s * w))


def smog(m: TextMetrics) -> int:
    _require(m.sentence_count >= 1, "sentence count is zero")
    # raw = (x + 31291) / 10^4 with x = sqrt(30 P 10430^2 / S), and for an
    # integer divisor the ceiling of raw is that of (ceil(x) + 31291) / 10^4.
    # ceil(x) is the least t >= 0 with t^2 >= r, r the ceiling of x^2.
    r = -(-30 * m.polysyllable_count * 10430**2 // m.sentence_count)
    t = math.isqrt(r - 1) + 1 if r else 0
    return -(-(t + 31291) // 10**4)


def ari(m: TextMetrics) -> int:
    _require(m.sentence_count >= 1, "sentence count is zero")
    _require(m.word_count >= 1, "word count is zero")
    # 4.71 C/W + 0.5 W/S - 21.43, over the denominator 100 S W.
    s, w = m.sentence_count, m.word_count
    num = 471 * m.character_count * s + 50 * w * w - 2143 * s * w
    return -(-num // (100 * s * w))


def coleman_liau(m: TextMetrics) -> int:
    _require(m.word_count >= 1, "word count is zero")
    # 0.0588 (100 L/W) - 0.296 (100 S/W) - 15.8, over the denominator 100 W.
    num = 588 * m.letter_count - 2960 * m.sentence_count - 1580 * m.word_count
    return -(-num // (100 * m.word_count))


def _check_mode(mode: str) -> None:
    if mode not in LINSEAR_MODES:
        raise ValueError(f"unknown linsear mode {mode!r}; expected one of {LINSEAR_MODES}")


def _sample_score(window: str) -> tuple[int, int]:
    """Scaled Linsear score, as (num, den), of a window of word codes (a-d)."""
    # One point per word, two more per hard word ("c", "d"); points/s is
    # halved when above 20 and has 2 taken off first otherwise, so den is 2s.
    points = len(window) + 2 * (window.count("c") + window.count("d"))
    # The window's sentences end at its own words ("b", "d"); an
    # unterminated tail (or a heading-only window) counts as one more.
    s = window.count("b") + window.count("d") + (window[-1] in "ac")
    return points - 2 * s * (points <= 20 * s), 2 * s


def _windows(words: str) -> list[str]:
    if len(words) <= 100:
        return [words]
    chunks = [words[i : i + 100] for i in range(0, len(words), 100)]
    # A short trailing window (< 50 words) merges into the previous one;
    # past 100 words there are always two chunks.
    if len(chunks[-1]) < 50:
        tail = chunks.pop()
        chunks[-1] = chunks[-1] + tail
    return chunks


def linsear_write(words: str, mode: str = "windowed") -> int:
    """Linsear Write grade of a text's word codes (segmenter.scan).

    A code is one character per word: "a" easy, "b" easy and ending a
    sentence, "c" hard, "d" hard and ending a sentence. Each 100-word
    sample scores one point per easy word (two syllables or less) and
    three per hard word (three or more), divided by the sentences in the
    sample; the quotient r is rescaled to r/2 when r > 20 and (r - 2)/2
    otherwise. A sample's sentences are those ended by its own words: a
    terminator that stands alone as a token ends a sentence in
    TextMetrics but not in any sample. Windowed mode averages the scaled
    scores over consecutive non-overlapping 100-word windows; compat
    mode scores only the first 100 words. The result is truncated up.
    """
    _check_mode(mode)
    if not words:
        raise DegenerateTextError("text has no measurable prose: no word tokens")
    windows = [words[:100]] if mode == "compat" else _windows(words)
    scores = [_sample_score(window) for window in windows]
    # The ceiling of the mean score, over the scores' least common denominator.
    common = math.lcm(*(den for _, den in scores))
    return -(-sum(num * (common // den) for num, den in scores) // (len(scores) * common))


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

