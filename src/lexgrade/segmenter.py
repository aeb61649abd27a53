"""Deterministic text segmentation and counting.

Everything the grade formulas consume comes from here: sentence and word
counts, syllable estimates, and per-token character/letter counts. All
functions are pure and rule-based; no language models, no randomness, so
the same text always yields the same numbers.

scan is the one sentence and word counter. One rule, _ends_sentence,
decides from a whitespace-delimited token alone whether a sentence ends
after it. Legal texts are dense with "Art. 5" style citations, so it
skips a small abbreviation list; "1.5" never splits, as a terminator
must end its token. Every sentence holds a word: a word-less fragment
("!!!") merges into the sentence next to it, text with no terminator is
one sentence, and word-less text has none. scan reads a text into the
counts and one code character per word: easy or hard (three syllables
or more), ending a sentence or not. A terminator that stands alone as a
token ("comply . The") ends a document sentence but is not a word, so a
Linsear window counts only terminators on its own words.

scan looks each distinct token up once per text in one per-process type
table, _TYPES, and runs no Python code per token. The types a text adds
to it are classified together by _classify: the ASCII ones in one batch
of whole-buffer bytes operations over the types joined by "\n" (no
token holds whitespace, so none holds the separator), the others one by
one through count_syllables, which stays the definition. The table
starts empty again when a text's new types would take it past 2**16
entries; an evicted type is classified again by the same rules, so
results never depend on what it holds.
"""

from __future__ import annotations

import unicodedata
from collections import Counter
from itertools import filterfalse, repeat
from typing import Iterator, NamedTuple

__all__ = [
    "TextMetrics",
    "tokenize_words",
    "count_syllables",
    "scan",
]

# Tokens that end with '.' without ending a sentence (compared lowercase).
ABBREVIATIONS = frozenset(
    {"art.", "no.", "e.g.", "i.e.", "cf.", "p.", "mr.", "mrs.", "dr."}
)

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


# Facts (code, syllables, alnum, letters) per token type; see scan. It
# holds at most _MAX_TYPES types between two scans.
_TYPES: dict[str, tuple[str, int, int, int]] = {}
_MAX_TYPES = 1 << 16

# A type's code by (syllables capped at 3, ends a sentence); a token with
# no alphanumeric character counts 0 syllables.
_CODES = {
    (0, False): "", (0, True): "p",
    (1, False): "a", (1, True): "b",
    (2, False): "a", (2, True): "b",
    (3, False): "c", (3, True): "d",
}

# The ASCII bytes a token can hold besides letters, digits and "-":
# controls that are not whitespace, and punctuation.
_SYMBOLS = (
    b"\x00\x01\x02\x03\x04\x05\x06\x07\x08\x0e\x0f\x10\x11\x12\x13"
    b"\x14\x15\x16\x17\x18\x19\x1a\x1b\x7f!\"#$%&'()*+,./:;<=>?@[\\]^_`{|}~"
)
_NOT_ALNUM = _SYMBOLS + b"-"
_NOT_LETTER = _SYMBOLS + b"0123456789"
_NOT_ALPHA = _NOT_LETTER + b"-"

# Letters to syllable marks: v a vowel, e, l, and c any other consonant.
_MARKS = bytes.maketrans(
    b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ",
    b"vcccecccvcclccvcccccvcccvc" * 2,
)
_E_AND_L = bytes.maketrans(b"el", b"vc")


def _ascii_syllables(buffer: bytes) -> Iterator[int]:
    """count_syllables' sum over hyphen parts, per line of buffer.

    buffer holds ASCII tokens one per line, with every hyphen part
    ending in "-". A part with letters counts max(1, vowel runs), one
    without counts 0. Each step is one translate or replace over the
    whole buffer.
    """
    marks = buffer.translate(_MARKS, _NOT_LETTER)
    # A part-final e is silent (s), unless it ends "le" after a consonant.
    marks = marks.replace(b"e-", b"s-").replace(b"cls", b"clv").replace(b"lls", b"llv")
    marks = marks.translate(_E_AND_L)
    # R ends each vowel run that counts: one followed by a consonant or by
    # the part's end. A silent final run ends in s, so is not counted.
    marks = marks.replace(b"vc", b"Rc").replace(b"v-", b"R-")
    # "+" ends the other parts with letters, which may hold no R.
    marks = marks.replace(b"c-", b"c+").replace(b"s-", b"s+")
    # Each part is left as its R's and its end; a "+" after an R is dropped.
    marks = marks.translate(None, b"vcs").replace(b"R+", b"R-").translate(None, b"-")
    return map(len, marks.split(b"\n"))


def _classify_token(token: str) -> tuple[str, int, int, int]:
    """(code, syllables, alnum, letters) of one token; see scan for the codes."""
    alnum = sum(map(str.isalnum, token))
    n = count_syllables(token) if alnum else 0
    return _CODES[min(n, 3), _ends_sentence(token)], n, alnum, sum(map(str.isalpha, token))


def _classify(types: list[str]) -> Iterator[tuple[str, tuple[str, int, int, int]]]:
    """(type, facts) for each type, as _classify_token gives them.

    The ASCII types are counted in one batch with no Python code per
    type: one line each in one buffer, which bytes.translate, replace
    and split work on whole. The rest go one by one.
    """
    ascii_types = list(filter(str.isascii, types))
    others = list(filterfalse(str.isascii, types))
    buffer = "-\n".join(ascii_types).encode("ascii") + b"-"
    alnum = list(map(len, buffer.translate(None, _NOT_ALNUM).split(b"\n")))
    letters = map(len, buffer.translate(None, _NOT_ALPHA).split(b"\n"))
    # A word counts max(1, its parts' sum); a token with no alphanumeric
    # counts 0. min gives both, as no word has more syllables than alnum.
    syllables = list(map(min, alnum, map(max, _ascii_syllables(buffer), repeat(1))))
    ends = map(_ends_sentence, ascii_types)
    codes = map(_CODES.__getitem__, zip(map(min, syllables, repeat(3)), ends))
    yield from zip(ascii_types, zip(codes, syllables, alnum, letters))
    yield from zip(others, map(_classify_token, others))


def scan(text: str) -> tuple[TextMetrics, str]:
    """Count one text from its token types, with no Python loop per token.

    Returns the TextMetrics and one code per word token, in order: "a"
    easy (at most two syllables), "b" easy and ending a sentence, "c"
    hard, "d" hard and ending a sentence. A sentence ends after each
    token for which _ends_sentence holds and at the end of the text; a
    word-less fragment merges into the sentence next to it. So text with
    no terminator is one sentence, word-less text has none (and all-zero
    counts), and sentences are: a word that ends one, a terminator token
    ("p", not a word) after a word that does not, and an open one at the
    end. Each distinct token is looked up once in the table _TYPES, which
    _classify fills with the text's new types in one call; the result
    does not depend on what the table holds.
    """
    global _TYPES
    tokens = _normalize(text).split()
    counts = Counter(tokens)
    # A full table is replaced, not cleared, so a scan running in another
    # thread keeps the table it is reading.
    table = _TYPES
    new = list(filterfalse(table.__contains__, counts))
    if len(table) + len(new) > _MAX_TYPES:
        table = _TYPES = {}
        new = list(counts)
    if new:
        table.update(_classify(new))
    code: dict[str, str] = {}
    syllables = characters = letters = 0
    for token, k in counts.items():
        code[token], n, alnum, token_letters = table[token]
        syllables += k * n
        characters += k * alnum
        letters += k * token_letters
    if len(table) > _MAX_TYPES:  # one text had more types than the bound
        _TYPES = {}
    codes = "".join(map(code.__getitem__, tokens))
    words = codes.replace("p", "")
    sentences = sum(map(codes.count, ("b", "d", "ap", "cp"))) + (codes[-1:] in ("a", "c"))
    return TextMetrics(
        sentence_count=sentences,
        word_count=len(words),
        syllable_count=syllables,
        polysyllable_count=words.count("c") + words.count("d"),
        character_count=characters,
        letter_count=letters,
    ), words
