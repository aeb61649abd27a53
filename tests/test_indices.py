from __future__ import annotations

import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lexgrade.errors import DegenerateTextError
from lexgrade.indices import (
    LINSEAR_MODES,
    GradeVector,
    ari,
    coleman_liau,
    flesch_kincaid,
    grade_metrics,
    linsear_write,
    smog,
)
from lexgrade.segmenter import TextMetrics, scan

sys.path.insert(0, str(Path(__file__).parent))
import segmenter_reference as reference  # noqa: E402


def metrics(
    sentences=1,
    words=1,
    syllables=1,
    polysyllables=0,
    characters=1,
    letters=1,
) -> TextMetrics:
    return TextMetrics(
        sentence_count=sentences,
        word_count=words,
        syllable_count=syllables,
        polysyllable_count=polysyllables,
        character_count=characters,
        letter_count=letters,
    )


def one_sample_text(easy: int, hard: int, sentences: int) -> str:
    """Build a <=100-word text with known easy/hard/sentence counts."""
    words = ["sun"] * easy + ["remember"] * hard
    assert len(words) <= 100
    per = len(words) // sentences
    chunks = [words[i * per : (i + 1) * per] for i in range(sentences - 1)]
    chunks.append(words[(sentences - 1) * per :])
    return " ".join(" ".join(chunk) + "." for chunk in chunks)


class TestFleschKincaid:
    def test_tiny(self):
        assert flesch_kincaid(metrics(sentences=1, words=3, syllables=3)) == -2

    def test_mid(self):
        assert flesch_kincaid(metrics(sentences=5, words=100, syllables=150)) == 10

    def test_zero_sentences(self):
        with pytest.raises(DegenerateTextError):
            flesch_kincaid(metrics(sentences=0, words=3, syllables=3))


class TestSmog:
    def test_zero_polysyllables(self):
        assert smog(metrics(sentences=1, polysyllables=0)) == 4

    def test_equal(self):
        assert smog(metrics(sentences=30, words=30, polysyllables=30)) == 9

    def test_three_per_sentence(self):
        assert smog(metrics(sentences=30, words=90, polysyllables=90)) == 14

    def test_raw_exactly_four(self):
        # 30 P / S = (8709 / 10430)^2, so raw = 0.8709 + 3.1291 = 4.
        assert smog(metrics(sentences=30 * 10430**2, polysyllables=8709**2)) == 4

    def test_raw_just_above_four(self):
        assert smog(metrics(sentences=30 * 10430**2, polysyllables=8709**2 + 1)) == 5
        # A radicand of 8709^2 + 1/2, between two integers.
        assert smog(metrics(sentences=60 * 10430**2, polysyllables=2 * 8709**2 + 1)) == 5


class TestAri:
    def test_tiny(self):
        assert ari(metrics(sentences=1, words=3, characters=9)) == -5

    def test_mid(self):
        assert ari(metrics(sentences=5, words=100, characters=500)) == 13

    def test_zero_words(self):
        with pytest.raises(DegenerateTextError):
            ari(metrics(sentences=1, words=0))


class TestColemanLiau:
    def test_mid(self):
        assert coleman_liau(metrics(sentences=5, words=100, letters=450)) == 10

    def test_tiny(self):
        assert coleman_liau(metrics(sentences=1, words=3, letters=9)) == -8

    def test_zero_words(self):
        with pytest.raises(DegenerateTextError):
            coleman_liau(metrics(sentences=1, words=0))


class TestLinsearWrite:
    def test_easy_sample(self):
        # 100 words, 80 easy / 20 hard, 10 sentences -> r=14 -> (14-2)/2=6
        text = one_sample_text(easy=80, hard=20, sentences=10)
        assert linsear_write(scan(text)[1], "windowed") == 6
        assert linsear_write(scan(text)[1], "compat") == 6

    def test_hard_sample(self):
        # 100 words, 50/50 over 5 sentences -> r=40 -> 40/2=20
        text = one_sample_text(easy=50, hard=50, sentences=5)
        assert linsear_write(scan(text)[1], "windowed") == 20

    def test_modes_diverge_on_fixture(self, data_dir):
        golden = json.loads((data_dir / "fixture_golden.json").read_text())
        text = (data_dir / "linsear_divergence.txt").read_text()
        assert linsear_write(scan(text)[1], "windowed") == golden["linsear_divergence"]["windowed"]
        assert linsear_write(scan(text)[1], "compat") == golden["linsear_divergence"]["compat"]

    def test_short_tail_merges_into_previous_window(self):
        # 149 words: the 49-word tail merges, so both modes see the text
        # differently (compat: first 100 only).
        text = one_sample_text(easy=80, hard=20, sentences=10)
        tail = " " + " ".join(["remember"] * 48) + " sun."
        merged = linsear_write(scan(text + tail)[1], "windowed")
        # one window of 149 words: easy=81, hard=68, 11 sentences
        r = (81 + 3 * 68) / 11
        expected = math.ceil(r / 2 if r > 20 else (r - 2) / 2)
        assert merged == expected

    def test_detached_terminators_end_no_window_sentence(self):
        # A terminator standing alone as a token ends a document sentence
        # but is not a word, so the sample sees one unterminated sentence.
        detached = "Member States shall comply . The Commission shall report ."
        m, words = scan(detached)
        assert m.sentence_count == 2
        assert linsear_write(words, "windowed") == 4
        assert linsear_write(words, "compat") == 4
        attached = "Member States shall comply. The Commission shall report."
        m, words = scan(attached)
        assert m.sentence_count == 2
        assert linsear_write(words, "windowed") == 2
        assert linsear_write(words, "compat") == 2

    def test_no_terminator_counts_one_sentence(self):
        assert linsear_write(scan("sun sun sun sun")[1], "windowed") == 1

    def test_empty_text_raises(self):
        with pytest.raises(DegenerateTextError):
            linsear_write(scan("")[1], "windowed")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            linsear_write(scan("sun.")[1], "both")


@st.composite
def scanned_words(draw) -> list[tuple[int, bool]]:
    """1-1,200 (syllables, ends_sentence) words, often at a window-merge edge."""
    n = draw(st.integers(1, 1200) | st.sampled_from([100, 101, 149, 150, 151, 1149, 1150]))
    # From one unterminated sentence per window (r > 20) to one per
    # three words (r <= 20).
    share = draw(st.sampled_from([0, 0.01, 0.04, 0.1, 0.35]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return [(rng.choice((1, 1, 2, 3, 4)), rng.random() < share) for _ in range(n)]


class TestLinsearAgainstWordOracle:
    """linsear_write equals the Fraction scorer over the same scanned words."""

    @settings(max_examples=300, deadline=None)
    @given(scanned_words(), st.sampled_from(LINSEAR_MODES))
    # 100 one-syllable words in 5 sentences: r = 20 exactly, so (r - 2)/2.
    @example([(1, i % 20 == 19) for i in range(100)], "windowed")
    @example([(1, i % 20 == 19) for i in range(100)], "compat")
    def test_matches_oracle(self, words, mode):
        assert linsear_write(words, mode) == reference.linsear_words(words, mode)


class TestGradeAll:
    def test_cat(self):
        gv = grade_metrics("The cat sat.")[1]
        assert gv == GradeVector(
            g1_flesch_kincaid=-2,
            g2_smog=4,
            g3_ari=-5,
            g4_coleman_liau=-8,
            g5_linsear=1,
            sum_variable=-1.0,
        )

    def test_empty_raises(self):
        with pytest.raises(DegenerateTextError):
            grade_metrics("")[1]

    def test_golden_paragraph(self, data_dir):
        golden = json.loads((data_dir / "fixture_golden.json").read_text())
        text = (data_dir / "fixture_paragraph.txt").read_text()
        assert grade_metrics(text)[1]._asdict() == golden["grades"]

    def test_sum_variable_ignores_g4_g5(self):
        gv = grade_metrics("The cat sat.")[1]
        assert gv.sum_variable == (gv.g1_flesch_kincaid + gv.g2_smog + gv.g3_ari) / 3


_random_metrics = st.builds(
    metrics,
    sentences=st.integers(1, 60),
    words=st.integers(1, 3000),
    syllables=st.integers(0, 9000),
    polysyllables=st.integers(0, 3000),
    characters=st.integers(0, 30000),
    letters=st.integers(0, 30000),
)

# Regulation-sized counts, past where float ceilings broke.
_regulation_metrics = st.builds(
    metrics,
    sentences=st.integers(1, 10**5),
    words=st.integers(1, 10**7),
    syllables=st.integers(0, 3 * 10**7),
    polysyllables=st.integers(0, 10**7),
    characters=st.integers(0, 10**8),
    letters=st.integers(0, 10**8),
)


# Exact raw formula values: the constants are decimal, so everything
# except SMOG's square root is a Fraction; the SMOG bounds are compared
# with the radicand squared instead.
def exact_fk(m):
    return (
        Fraction(39, 100) * Fraction(m.word_count, m.sentence_count)
        + Fraction(59, 5) * Fraction(m.syllable_count, m.word_count)
        - Fraction(1559, 100)
    )


def exact_ari(m):
    return (
        Fraction(471, 100) * Fraction(m.character_count, m.word_count)
        + Fraction(1, 2) * Fraction(m.word_count, m.sentence_count)
        - Fraction(2143, 100)
    )


def exact_cl(m):
    return (
        Fraction(588, 10000) * 100 * Fraction(m.letter_count, m.word_count)
        - Fraction(296, 1000) * 100 * Fraction(m.sentence_count, m.word_count)
        - Fraction(158, 10)
    )


def assert_ceiling_contract(grade: int, raw: Fraction) -> None:
    assert 0 <= grade - raw < 1


def assert_smog_ceiling_contract(grade: int, m) -> None:
    # raw = 1.0430 * sqrt(radicand) + 3.1291; check raw <= g < raw + 1
    # squared, to stay in exact arithmetic.
    radicand = 30 * Fraction(m.polysyllable_count, m.sentence_count)
    scale = Fraction(10430, 10000)
    offset = Fraction(31291, 10000)
    upper = (grade - offset) / scale
    assert upper >= 0 and radicand <= upper * upper  # raw <= grade
    lower = (grade - 1 - offset) / scale
    assert lower < 0 or radicand > lower * lower  # raw > grade - 1


class TestCeilingContract:
    @given(st.one_of(_random_metrics, _regulation_metrics))
    def test_all_formula_indices(self, m):
        assert_ceiling_contract(flesch_kincaid(m), exact_fk(m))
        assert_ceiling_contract(ari(m), exact_ari(m))
        assert_ceiling_contract(coleman_liau(m), exact_cl(m))
        assert_smog_ceiling_contract(smog(m), m)

    @given(
        easy=st.integers(0, 60),
        hard=st.integers(0, 40),
        sentences=st.integers(1, 10),
    )
    def test_linsear(self, easy, hard, sentences):
        if easy + hard < sentences or easy + hard == 0:
            return
        text = one_sample_text(easy, hard, sentences)
        r = Fraction(easy + 3 * hard, sentences)
        raw = r / 2 if r > 20 else (r - 2) / 2
        assert_ceiling_contract(linsear_write(scan(text)[1], "windowed"), raw)


class TestFormulaProperties:
    @given(_random_metrics, st.integers(1, 500))
    def test_more_syllables_never_lower_fk(self, m, extra):
        bumped = metrics(
            sentences=m.sentence_count,
            words=m.word_count,
            syllables=m.syllable_count + extra,
            polysyllables=m.polysyllable_count,
            characters=m.character_count,
            letters=m.letter_count,
        )
        assert flesch_kincaid(bumped) >= flesch_kincaid(m)

    @given(_random_metrics, st.integers(1, 500))
    def test_more_polysyllables_never_lower_smog(self, m, extra):
        bumped = metrics(
            sentences=m.sentence_count,
            words=m.word_count + extra,
            syllables=m.syllable_count,
            polysyllables=m.polysyllable_count + extra,
            characters=m.character_count,
            letters=m.letter_count,
        )
        assert smog(bumped) >= smog(m)

    @given(_random_metrics, st.integers(2, 7))
    def test_scaling_all_counts_leaves_ratio_indices_unchanged(self, m, k):
        scaled = metrics(
            sentences=m.sentence_count * k,
            words=m.word_count * k,
            syllables=m.syllable_count * k,
            polysyllables=m.polysyllable_count * k,
            characters=m.character_count * k,
            letters=m.letter_count * k,
        )
        assert flesch_kincaid(scaled) == flesch_kincaid(m)
        assert smog(scaled) == smog(m)
        assert ari(scaled) == ari(m)
        assert coleman_liau(scaled) == coleman_liau(m)
