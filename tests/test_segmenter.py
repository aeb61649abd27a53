from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexgrade import segmenter
from lexgrade.cli import main
from lexgrade.segmenter import (
    TextMetrics,
    compute_metrics,
    count_syllables,
    scan,
    segment_sentences,
    tokenize_words,
)

sys.path.insert(0, str(Path(__file__).parent))
import segmenter_reference as reference  # noqa: E402
from synthetic import build_corpus  # noqa: E402

# words safe for sentence-building strategies: no abbreviation-list
# tokens, no decimals
_WORDS = ["law", "data", "court", "member", "state", "rule", "act",
          "market", "public", "order", "text", "case"]

_sentences = st.lists(st.sampled_from(_WORDS), min_size=1, max_size=8).map(
    lambda ws: " ".join(ws).capitalize() + "."
)
_texts = st.lists(_sentences, min_size=1, max_size=4).map(" ".join)


class TestSegmentSentences:
    def test_single_terminator(self):
        assert segment_sentences("The cat sat.") == ["The cat sat."]

    def test_empty(self):
        assert segment_sentences("") == []
        assert segment_sentences("   \n\t ") == []

    def test_abbreviation_does_not_split(self):
        assert segment_sentences("See Art. 5. It applies.") == [
            "See Art. 5.",
            "It applies.",
        ]

    def test_more_abbreviations(self):
        got = segment_sentences("Dr. Smith spoke. No. 7 applies, e.g. here.")
        assert got == ["Dr. Smith spoke.", "No. 7 applies, e.g. here."]

    def test_decimal_point_does_not_split(self):
        assert segment_sentences("The rate is 1.5 percent. Next rule.") == [
            "The rate is 1.5 percent.",
            "Next rule.",
        ]

    def test_no_terminator_is_one_sentence(self):
        assert segment_sentences("a heading without punctuation") == [
            "a heading without punctuation"
        ]

    def test_closing_quote_after_terminator(self):
        got = segment_sentences('He said "stop." Then he left.')
        assert got == ['He said "stop."', "Then he left."]

    def test_punctuation_fragment_merges(self):
        got = segment_sentences("Hello. !!!")
        assert got == ["Hello. !!!"]
        got = segment_sentences("!!! Hello.")
        assert got == ["!!! Hello."]

    def test_every_sentence_has_a_word(self):
        for text in ("One. Two. --- Three.", "?? Start. End."):
            for sentence in segment_sentences(text):
                assert any(ch.isalnum() for ch in sentence)

    @given(_texts)
    def test_non_whitespace_preserved(self, text):
        joined = "".join(segment_sentences(text))
        assert [c for c in joined if not c.isspace()] == [
            c for c in text if not c.isspace()
        ]


class TestTokenizeWords:
    def test_mixed_tokens(self):
        assert tokenize_words("data-driven law (EU) 2016/679") == [
            "data-driven",
            "law",
            "(EU)",
            "2016/679",
        ]

    def test_pure_punctuation_dropped(self):
        assert tokenize_words("—") == []
        assert tokenize_words("--- ***") == []

    def test_trailing_punctuation_kept_in_token(self):
        assert tokenize_words("The cat sat.") == ["The", "cat", "sat."]


class TestCountSyllables:
    @pytest.mark.parametrize(
        "word,expected",
        [
            ("cat", 1),
            ("gobbledygook", 4),
            ("table", 2),
            ("rule", 1),
            ("apple", 2),
            ("ale", 1),
            ("make", 1),
            ("data-driven", 4),
            ("2016/679", 1),
            ("(EU)", 1),
            ("x-ray", 2),
        ],
    )
    def test_examples(self, word, expected):
        assert count_syllables(word) == expected

    @given(st.text(min_size=1, max_size=20))
    def test_always_at_least_one(self, token):
        assert count_syllables(token) >= 1


class TestComputeMetrics:
    def test_cat(self):
        m = compute_metrics("The cat sat.")
        assert m == TextMetrics(
            sentence_count=1,
            word_count=3,
            syllable_count=3,
            polysyllable_count=0,
            character_count=9,
            letter_count=9,
        )

    def test_empty_is_all_zero(self):
        m = compute_metrics("")
        assert all(value == 0 for value in m._asdict().values())

    def test_metrics_are_immutable(self):
        m = compute_metrics("The cat sat.")
        # Not even object.__setattr__ gets past a field.
        for assign in (setattr, object.__setattr__):
            with pytest.raises(AttributeError):
                assign(m, "word_count", 99)
        assert m.word_count == 3

    def test_golden_paragraph(self, data_dir):
        golden = json.loads((data_dir / "fixture_golden.json").read_text())
        text = (data_dir / "fixture_paragraph.txt").read_text()
        m = compute_metrics(text)
        expected = golden["metrics"]
        assert m._asdict() == {field: expected[field] for field in m._asdict()}
        # the results columns derived from the metrics
        assert expected["easy_word_count"] == m.word_count - m.polysyllable_count
        assert expected["hard_word_count"] == m.polysyllable_count

    def test_unicode_letters_counted(self):
        m = compute_metrics("Café owners agreed.")
        assert m.letter_count == 16
        assert m.character_count == 16

    @given(_texts)
    def test_deterministic(self, text):
        assert compute_metrics(text) == compute_metrics(text)

    @given(_texts, _texts)
    def test_concatenation_additivity(self, a, b):
        combined = compute_metrics(a + " " + b)
        ma, mb = compute_metrics(a), compute_metrics(b)
        for field in combined._asdict():
            assert getattr(combined, field) == getattr(ma, field) + getattr(mb, field)

    @given(_texts)
    def test_case_invariance(self, text):
        assert compute_metrics(text.upper()) == compute_metrics(text)

    @given(_texts)
    @settings(max_examples=30)
    def test_invariants(self, text):
        m = compute_metrics(text)
        assert m.polysyllable_count <= m.word_count
        assert m.syllable_count >= m.word_count
        assert m.letter_count <= m.character_count


def _distinct_tokens(n: int) -> list[str]:
    """n pairwise distinct word tokens: letters, then the token's own number."""
    stems = ["ba", "ke", "lin", "mo", "nu", "rate", "se", "ti", "vo", "zy",
             "ple", "tre", "ax", "ion", "ue", "sk", "ee", "ly", "cae", "dre"]
    endings = ["", "", ".", "", "?", ".)", ",", "", "!\u201d", ""]
    tokens = []
    for i in range(n):
        stem = stems[i % 20] + stems[i // 20 % 20] + stems[i // 400 % 20]
        joiner = "-" if i % 3 == 0 else ""
        tokens.append(f"{stem}{joiner}{i}{endings[i % 10]}")
    return tokens


class TestClassifierCache:
    def test_bound_is_fixed(self):
        assert segmenter._classify.cache_info().maxsize == 1 << 16

    def test_eviction_changes_no_count(self, tmp_path):
        segmenter._classify.cache_clear()
        maxsize = segmenter._classify.cache_info().maxsize
        tokens = _distinct_tokens(maxsize + 4_000)
        for i in range(0, len(tokens), 11):
            tokens.insert(i, ["Art.", ".", "(No.", "law."][i % 4])
        # The first tokens come back after the table has evicted them.
        text = " ".join(tokens + tokens[:6_000])
        m, words = scan(text)
        info = segmenter._classify.cache_info()
        assert info.currsize == maxsize and info.misses > maxsize
        assert m._asdict() == reference.metrics(text)
        assert words == reference.words(text)

        # A full table of unrelated types leaves the pinned corpus bytes alone.
        manifest = build_corpus(tmp_path, n=55)
        results = tmp_path / "results.csv"
        assert main([
            "analyze", "--manifest", str(manifest),
            "--texts", str(tmp_path / "texts"), "--out", str(results),
        ]) == 0
        pinned = Path(__file__).parent / "data" / "synthetic55_results.csv"
        assert results.read_bytes() == pinned.read_bytes()

    def test_syllables_counted_once_per_type(self, monkeypatch):
        counted = []

        def counting(token):
            counted.append(token)
            return count_syllables(token)

        segmenter._classify.cache_clear()
        monkeypatch.setattr(segmenter, "count_syllables", counting)
        text = "The law applies. Member States (Art. 5) shall apply the law! " * 40
        text += "The data , 2016/679 ... apply."
        m, words = scan(text)
        types = set(tokenize_words(text))
        assert m.word_count == len(words) > 10 * len(types)
        assert sorted(counted) == sorted(types)
