"""Deterministic text segmentation and counting.

Everything the grade formulas consume comes from here: sentence and word
counts, syllable estimates, and per-token character/letter counts. All
functions are pure and rule-based; no language models, no randomness, so
the same text always yields the same numbers.

One rule, _ends_sentence, decides from a whitespace-delimited token alone
whether a sentence ends after it. Legal texts are dense with "Art. 5"
style citations, so it skips a small abbreviation list; "1.5" never
splits, as a terminator must end its token. scan reads a text once into
the counts and, per word, (syllables, ends_sentence). A terminator that
stands alone as a token ("comply . The") ends a document sentence but is
not a word, so a Linsear window counts only terminators on its own words.

scan takes every per-token fact from one per-type table, _classify,
bounded at 2**16 token types. An evicted type is classified again by
the same pure functions, so results never depend on what it holds.
"""

from __future__ import annotations

import re
import unicodedata
from functools import lru_cache
from typing import NamedTuple

__all__ = [
    "TextMetrics",
    "segment_sentences",
    "tokenize_words",
    "count_syllables",
    "compute_metrics",
    "scan",
]

# Tokens that end with '.' without ending a sentence (compared lowercase).
ABBREVIATIONS = frozenset(
    {"art.", "no.", "e.g.", "i.e.", "cf.", "p.", "mr.", "mrs.", "dr."}
)

_TOKEN = re.compile(r"\S+")

# Closing quotes/brackets that may follow a sentence terminator.
_CLOSERS = "\"'’”)]»"

_VOWELS = frozenset("aeiouy")

# Opening punctuation stripped before abbreviation comparison.
_OPENERS = "\"'([{‘“«"


class TextMetrics(NamedTuple):
    """Raw counts for one text.

    characters are alphanumeric characters inside word tokens (what ARI
    calls characters); letters are the alphabetic subset (what
    Coleman-Liau counts). Punctuation and whitespace belong to neither.
    """

    sentence_count: int
    word_count: int
    syllable_count: int
    polysyllable_count: int
    character_count: int
    letter_count: int


def _normalize(text: str) -> str:
    return unicodedata.normalize("NFC", text)


def _has_word(fragment: str) -> bool:
    return any(ch.isalnum() for ch in fragment)


def _ends_sentence(token: str) -> bool:
    """Whether a sentence ends after this whitespace-delimited token.

    It does when the token ends in '.', '!' or '?' plus any closing
    quotes/brackets, unless the terminator is the '.' of a known
    abbreviation (compared without opening punctuation).
    """
    body = token.rstrip(_CLOSERS)
    if not body or body[-1] not in ".!?":
        return False
    return body[-1] != "." or body.lstrip(_OPENERS).lower() not in ABBREVIATIONS


def segment_sentences(text: str) -> list[str]:
    """Split text into sentences.

    A sentence ends after each token for which _ends_sentence holds, and
    at the end of text. Fragments without a single word token are merged
    into the neighbouring sentence, so every returned sentence contains
    at least one word. Text without a terminator is one sentence.
    """
    text = _normalize(text)
    tokens = list(_TOKEN.finditer(text))
    spans: list[list[int]] = []
    start, has_word = None, False
    for i, token in enumerate(tokens):
        if start is None:
            start = token.start()
        has_word = has_word or _has_word(token.group())
        if not (_ends_sentence(token.group()) or i == len(tokens) - 1):
            continue
        if has_word:
            spans.append([start, token.end()])
        elif spans:
            spans[-1][1] = token.end()
        else:
            continue  # a leading word-less fragment opens the first sentence
        start, has_word = None, False
    return [text[s:e] for s, e in spans]


def tokenize_words(text: str) -> list[str]:
    """Split text into word tokens.

    A word token is a maximal run of non-whitespace characters containing
    at least one alphanumeric character; pure-punctuation runs are
    dropped. Hyphenated forms stay one token.
    """
    return [tok for tok in _normalize(text).split() if _has_word(tok)]


def count_syllables(word: str) -> int:
    """Estimate syllables in one word token; always at least 1.

    Counts maximal vowel-group runs (a, e, i, o, u, y) over the
    lowercased alphabetic content, subtracting one for a silent final
    "e" unless the word ends in "le" after a consonant. Hyphen-separated
    parts are counted separately and summed. Tokens without alphabetic
    content (numbers, "2016/679") count as one syllable.
    """
    total = 0
    for part in word.split("-"):
        content = "".join(filter(str.isalpha, part.lower()))
        if not content:
            continue
        runs = 0
        in_run = False
        for ch in content:
            is_vowel = ch in _VOWELS
            if is_vowel and not in_run:
                runs += 1
            in_run = is_vowel
        if (
            content.endswith("e")
            and runs > 1
            and not (
                content.endswith("le")
                and len(content) >= 3
                and content[-3] not in _VOWELS
            )
        ):
            runs -= 1
        total += max(1, runs)
    return max(1, total)


@lru_cache(maxsize=1 << 16)
def _classify(token: str) -> tuple[bool, int, int, int]:
    """(ends_sentence, alnum, letters, syllables) of a token; 0 syllables if not a word."""
    alnum = sum(map(str.isalnum, token))
    letters = sum(map(str.isalpha, token))
    return _ends_sentence(token), alnum, letters, alnum and count_syllables(token)


def scan(text: str) -> tuple[TextMetrics, list[tuple[int, bool]]]:
    """Count one text in a single pass over its tokens.

    Returns the TextMetrics and, for each word token in order, its
    syllable count and whether a sentence ends after it. Sentences are
    counted as segment_sentences splits them; a punctuation-only token
    can end a sentence but is not a word, so it has no entry. Per-token
    facts come from the bounded per-type table _classify; the result does
    not depend on what the table holds.
    """
    words: list[tuple[int, bool]] = []
    sentences = syllables = polysyllables = characters = letters = 0
    open_sentence = False
    for token in _normalize(text).split():
        ends, alnum, token_letters, n = _classify(token)
        if alnum:
            words.append((n, ends))
            syllables += n
            polysyllables += n >= 3
            characters += alnum
            letters += token_letters
            open_sentence = True
        if ends and open_sentence:
            sentences += 1
            open_sentence = False

    return TextMetrics(
        sentence_count=sentences + open_sentence,
        word_count=len(words),
        syllable_count=syllables,
        polysyllable_count=polysyllables,
        character_count=characters,
        letter_count=letters,
    ), words


def compute_metrics(text: str) -> TextMetrics:
    """Count sentences, words, syllables and characters for one text.

    Degenerate text (no word tokens) yields all-zero metrics; rejecting
    it is the grade layer's job.
    """
    return scan(text)[0]
