from __future__ import annotations

import json
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lexgrade import segmenter
from lexgrade.cli import main
from lexgrade.segmenter import (
    TextMetrics,
    count_syllables,
    scan,
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


def _boundaries(text: str) -> tuple[int, str]:
    """scan's sentence count and word codes; "b" or "d" marks the word
    that ends a sentence."""
    m, words = scan(text)
    return m.sentence_count, words


class TestSegmentSentences:
    """Sentence boundaries as scan counts them."""

    def test_single_terminator(self):
        assert _boundaries("The cat sat.") == (1, "aab")

    def test_empty(self):
        assert _boundaries("") == (0, "")
        assert _boundaries("   \n\t ") == (0, "")

    def test_abbreviation_does_not_split(self):
        assert _boundaries("See Art. 5. It applies.") == (2, "aabab")

    def test_more_abbreviations(self):
        got = _boundaries("Dr. Smith spoke. No. 7 applies, e.g. here.")
        assert got == (2, "aabaaaab")

    def test_decimal_point_does_not_split(self):
        assert _boundaries("The rate is 1.5 percent. Next rule.") == (2, "aaaabab")

    def test_no_terminator_is_one_sentence(self):
        assert _boundaries("a heading without punctuation") == (1, "aaac")

    def test_closing_quote_after_terminator(self):
        assert _boundaries('He said "stop." Then he left.') == (2, "aabaab")

    def test_punctuation_fragment_merges(self):
        assert _boundaries("Hello. !!!") == (1, "b")
        assert _boundaries("!!! Hello.") == (1, "b")

    @pytest.mark.parametrize(
        "text,sentences,codes",
        [
            ("comply . The law", 2, "aaa"),
            ("implementation ! law", 2, "ca"),
            ("law . . next", 2, "aa"),
            (". Leading words", 1, "aa"),
            ("end. .", 1, "b"),
            ("see Art. 5 .", 1, "aaa"),
            ("a heading without punctuation", 1, "aaac"),
            ("... ! ?", 0, ""),
        ],
    )
    def test_terminator_tokens_that_are_not_words(self, text, sentences, codes):
        m, words = scan(text)
        assert m.sentence_count == sentences == len(reference.segment_sentences(text))
        assert m._asdict() == reference.metrics(text)
        assert words == codes == reference.codes(reference.words(text))

    def test_every_sentence_has_a_word(self):
        # "---" and "??" hold no word, so each sentence ends at a word.
        assert _boundaries("One. Two. --- Three.") == (3, "bbb")
        assert _boundaries("?? Start. End.") == (2, "bb")


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
    """The TextMetrics half of scan."""

    def test_cat(self):
        m = scan("The cat sat.")[0]
        assert m == TextMetrics(
            sentence_count=1,
            word_count=3,
            syllable_count=3,
            polysyllable_count=0,
            character_count=9,
            letter_count=9,
        )

    def test_empty_is_all_zero(self):
        m = scan("")[0]
        assert all(value == 0 for value in m._asdict().values())

    def test_metrics_are_immutable(self):
        m = scan("The cat sat.")[0]
        # Not even object.__setattr__ gets past a field.
        for assign in (setattr, object.__setattr__):
            with pytest.raises(AttributeError):
                assign(m, "word_count", 99)
        assert m.word_count == 3

    def test_golden_paragraph(self, data_dir):
        golden = json.loads((data_dir / "fixture_golden.json").read_text())
        text = (data_dir / "fixture_paragraph.txt").read_text()
        m = scan(text)[0]
        expected = golden["metrics"]
        assert m._asdict() == {field: expected[field] for field in m._asdict()}
        # the results columns derived from the metrics
        assert expected["easy_word_count"] == m.word_count - m.polysyllable_count
        assert expected["hard_word_count"] == m.polysyllable_count

    def test_unicode_letters_counted(self):
        m = scan("Café owners agreed.")[0]
        assert m.letter_count == 16
        assert m.character_count == 16

    @given(_texts)
    def test_deterministic(self, text):
        assert scan(text)[0] == scan(text)[0]

    @given(_texts, _texts)
    def test_concatenation_additivity(self, a, b):
        combined = scan(a + " " + b)[0]
        ma, mb = scan(a)[0], scan(b)[0]
        for field in combined._asdict():
            assert getattr(combined, field) == getattr(ma, field) + getattr(mb, field)

    @given(_texts)
    def test_case_invariance(self, text):
        assert scan(text.upper())[0] == scan(text)[0]

    @given(_texts)
    @settings(max_examples=30)
    def test_invariants(self, text):
        m = scan(text)[0]
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
    """The per-process type table: bounded, and invisible in every result."""

    def test_bound_is_fixed(self):
        assert segmenter._MAX_TYPES == 1 << 16

    def test_eviction_changes_no_count(self, tmp_path):
        segmenter._TYPES.clear()
        bound = segmenter._MAX_TYPES
        tokens = _distinct_tokens(bound + 4_000)
        for i in range(0, len(tokens), 11):
            tokens.insert(i, ["Art.", ".", "(No.", "law."][i % 4])
        types = list(dict.fromkeys(tokens))
        texts = [
            # more types than the bound in one text; the first come back
            " ".join(tokens + tokens[:6_000]),
            # fills the table to just under the bound
            " ".join(types[:bound - 100]),
            # old and new types: the table starts over with this text's
            " ".join(types[bound - 3_000:bound + 3_000] + types[:50]),
        ]
        for text in texts:
            m, words = scan(text)
            assert len(segmenter._TYPES) <= bound
            assert m._asdict() == reference.metrics(text)
            assert words == reference.codes(reference.words(text))
        assert len(segmenter._TYPES) == len(set(texts[-1].split()))

        # A full table of unrelated types leaves the pinned corpus bytes alone.
        scan(" ".join(_distinct_tokens(bound)))
        assert len(segmenter._TYPES) == bound
        manifest = build_corpus(tmp_path, n=55)
        results = tmp_path / "results.csv"
        assert main([
            "analyze", "--manifest", str(manifest),
            "--texts", str(tmp_path / "texts"), "--out", str(results),
        ]) == 0
        pinned = Path(__file__).parent / "data" / "synthetic55_results.csv"
        assert results.read_bytes() == pinned.read_bytes()

    def test_classified_once_per_type_per_text(self, monkeypatch):
        batches = []
        classify = segmenter._classify

        def recording(types):
            batches.append(list(types))
            return classify(types)

        monkeypatch.setattr(segmenter, "_classify", recording)
        text = "The law applies. Member States (Art. 5) shall apply the law ! " * 40
        text += "Geschäftsführer für « naïve-façade » "
        segmenter._TYPES.clear()
        scan(text)  # a cold table: every type, once, in one batch
        assert len(batches) == 1
        assert sorted(batches[0]) == sorted(set(text.split()))
        scan(text)  # a warm one: none
        assert len(batches) == 1
        scan(text + "Directive apply.")  # only the types the table lacks
        assert batches[1] == ["Directive", "apply."]

    def test_threads_share_the_table(self, monkeypatch):
        # A small bound makes every scan replace the table while the
        # others read theirs; each must still count its text exactly.
        monkeypatch.setattr(segmenter, "_MAX_TYPES", 60)
        tokens = _distinct_tokens(400)
        texts = [" ".join(tokens[i:i + 50] * 3) for i in range(0, 400, 25)]
        expected = [scan(text) for text in texts]
        errors = []

        def work():
            try:
                for _ in range(30):
                    for text, want in zip(texts, expected):
                        assert scan(text) == want
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []

    def test_syllables_counted_once_per_type(self, monkeypatch):
        counted = []

        def counting(token):
            counted.append(token)
            return count_syllables(token)

        segmenter._TYPES.clear()
        monkeypatch.setattr(segmenter, "count_syllables", counting)
        text = "The law applies. Member States (Art. 5) shall apply the law! " * 40
        text += "The data , 2016/679 ... apply. Geschäftsführer für « naïve-façade » für"
        m, words = scan(text)
        types = set(tokenize_words(text))
        assert m.word_count == len(words) > 10 * len(types)
        # The ASCII types are counted in one batch, never one by one.
        assert sorted(counted) == sorted(t for t in types if not t.isascii())
        assert counted == ["Geschäftsführer", "für", "naïve-façade"]


def _defined_facts(token: str) -> tuple[str, int, int, int]:
    """A token's (code, syllables, alnum, letters) from the definitions."""
    alnum = sum(map(str.isalnum, token))
    ends = segmenter._ends_sentence(token)
    if not alnum:
        return "p" if ends else "", 0, 0, 0
    n = count_syllables(token)
    return "abcd"[2 * (n >= 3) + ends], n, alnum, sum(map(str.isalpha, token))


# Rich in what the syllable rules turn on (e, l, y, vowel runs, hyphens),
# in what ends a sentence (terminators, closers, abbreviations) and in
# what the batch must delete or send down the per-token path.
_TYPE_PIECES = list("eeeEllLyYaiouAtbrcmsx--'0129.!?)]\"»’”éÉßöŁ²/(,\x00\x7f") + [
    "le", "lle", "ble", "ee", "ue", "ye", "Art.", "(No.", "e.g."]
_TOKEN_TYPES = st.lists(
    st.lists(st.sampled_from(_TYPE_PIECES), min_size=1, max_size=8).map("".join),
    unique=True, max_size=40,
)
_PINNED = ["agree", "iitee", "table", "ale", "le", "lle", "belle", "the", "e",
           "e-mail", "-e-", "--", "2016/679", "A?cIee?", "TFEU"]


class TestBatchClassifier:
    """_classify's batch against the per-token definitions."""

    @given(_TOKEN_TYPES)
    @example(_PINNED)
    @example(["lle"])
    @example([])
    def test_matches_definitions(self, types):
        facts = list(segmenter._classify(types))
        assert sorted(token for token, _ in facts) == sorted(types)
        assert dict(facts) == {token: _defined_facts(token) for token in types}

    @pytest.mark.parametrize("token,syllables", [
        ("agree", 1), ("iitee", 1), ("table", 2), ("ale", 1), ("le", 1),
        ("lle", 1), ("belle", 2), ("the", 1), ("e", 1), ("e-mail", 2),
        ("-e-", 1), ("--", 0), ("2016/679", 1), ("A?cIee?", 1), ("TFEU", 1),
    ])
    def test_pinned_syllables(self, token, syllables):
        assert dict(segmenter._classify([token]))[token][1] == syllables

    def test_every_ascii_character(self):
        # Each byte a token can hold, alone and inside the contexts the
        # syllable rules read: a final e, "le", a hyphen part.
        chars = [chr(c) for c in range(128) if not chr(c).isspace()]
        contexts = ["{}", "a{}e", "b{}le", "{}-e", "ta{}", "e{}-y"]
        types = list(dict.fromkeys(c.format(ch) for ch in chars for c in contexts))
        facts = dict(segmenter._classify(types))
        assert [facts[token] for token in types] == list(map(_defined_facts, types))
