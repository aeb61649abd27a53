"""Test oracle: a sentence splitter and Linsear scorer that re-segment text.

A second, independent spelling of the counts that lexgrade.segmenter.scan
and lexgrade.indices.linsear_write compute in one pass, for tests to
compare against. Sentence boundaries come from a regex over the whole
text with a backward scan for abbreviations; each Linsear window is
joined back into a string and segmented again. linsear_words scores
(syllables, ends_sentence) words instead, with each window's score an
exact Fraction, and codes maps such words to scan's code string. Words
come from this module's own tokenize_words; only ABBREVIATIONS and
count_syllables are shared with the package. Nothing in the package
imports this module.
"""

from __future__ import annotations

import math
import re
import unicodedata
from fractions import Fraction

from lexgrade.errors import DegenerateTextError
from lexgrade.segmenter import ABBREVIATIONS, count_syllables

# Terminator, optionally followed by closing quotes/brackets, then
# whitespace or end of text.
_BOUNDARY = re.compile(r"[.!?][\"'’”)\]»]*(?=\s|$)")

# Opening punctuation stripped before abbreviation comparison.
_OPENERS = "\"'([{‘“«"


def _has_word(fragment: str) -> bool:
    return any(ch.isalnum() for ch in fragment)


def tokenize_words(text: str) -> list[str]:
    """Whitespace-delimited runs of the NFC text that hold an alphanumeric character."""
    return [token for token in unicodedata.normalize("NFC", text).split() if _has_word(token)]


def _is_abbreviation(text: str, dot_index: int) -> bool:
    start = dot_index
    while start > 0 and not text[start - 1].isspace():
        start -= 1
    token = text[start : dot_index + 1].lstrip(_OPENERS)
    return token.lower() in ABBREVIATIONS


def segment_sentences(text: str) -> list[str]:
    text = unicodedata.normalize("NFC", text)
    if not _has_word(text):
        return []

    cuts = []
    for match in _BOUNDARY.finditer(text):
        if text[match.start()] == "." and _is_abbreviation(text, match.start()):
            continue
        cuts.append(match.end())

    spans = []
    prev = 0
    for cut in cuts:
        spans.append((prev, cut))
        prev = cut
    if text[prev:].strip():
        spans.append((prev, len(text)))

    merged: list[list[int]] = []
    carry_start: int | None = None
    for start, end in spans:
        if not _has_word(text[start:end]):
            if merged:
                merged[-1][1] = end
            elif carry_start is None:
                carry_start = start
            continue
        if carry_start is not None:
            start = carry_start
            carry_start = None
        merged.append([start, end])

    return [text[s:e].strip() for s, e in merged]


def metrics(text: str) -> dict:
    """The counts of the text, keyed as TextMetrics fields."""
    words = tokenize_words(text)
    syllables = [count_syllables(token) for token in words]
    return {
        "sentence_count": len(segment_sentences(text)),
        "word_count": len(words),
        "syllable_count": sum(syllables),
        "polysyllable_count": sum(n >= 3 for n in syllables),
        "character_count": sum(ch.isalnum() for token in words for ch in token),
        "letter_count": sum(ch.isalpha() for token in words for ch in token),
    }


def words(text: str) -> list[tuple[int, bool]]:
    """Per word token: its syllables and whether a sentence ends after it."""
    out = []
    for token in tokenize_words(text):
        match = _BOUNDARY.search(token)
        ends = match is not None and not (
            token[match.start()] == "." and _is_abbreviation(token, match.start())
        )
        out.append((count_syllables(token), ends))
    return out


def codes(words: list[tuple[int, bool]]) -> str:
    """segmenter.scan's word codes of (syllables, ends_sentence) words."""
    table = {(False, False): "a", (False, True): "b", (True, False): "c", (True, True): "d"}
    return "".join(table[syllables >= 3, bool(ends)] for syllables, ends in words)


def _sample_score(window: list[str]) -> Fraction:
    hard = sum(count_syllables(token) >= 3 for token in window)
    easy = len(window) - hard
    sentences = max(1, len(segment_sentences(" ".join(window))))
    score = Fraction(easy * 1 + hard * 3, sentences)
    if score > 20:
        return score / 2
    return (score - 2) / 2


def _windows(tokens: list[str]) -> list[list[str]]:
    if len(tokens) <= 100:
        return [tokens]
    chunks = [tokens[i : i + 100] for i in range(0, len(tokens), 100)]
    if len(chunks) > 1 and len(chunks[-1]) < 50:
        tail = chunks.pop()
        chunks[-1] = chunks[-1] + tail
    return chunks


def linsear_write(text: str, mode: str = "windowed") -> int:
    tokens = tokenize_words(text)
    if not tokens:
        raise DegenerateTextError("text has no measurable prose: no word tokens")
    if mode == "compat":
        return math.ceil(_sample_score(tokens[:100]))
    scores = [_sample_score(window) for window in _windows(tokens)]
    return math.ceil(sum(scores) / len(scores))


def _word_score(window: list[tuple[int, bool]]) -> Fraction:
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


def linsear_words(words: list[tuple[int, bool]], mode: str = "windowed") -> int:
    """Linsear Write of segmenter.scan's words: the ceiling of the Fraction mean score."""
    if mode == "compat":
        return math.ceil(_word_score(words[:100]))
    scores = [_word_score(window) for window in _windows(words)]
    return math.ceil(sum(scores) / len(scores))
