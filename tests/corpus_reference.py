"""Test oracle: clean_text with its control map as a per-character dict.

A second spelling of lexgrade.corpus.clean_text that maps control
characters with str.translate over a dict of code points instead of a
byte table over the UTF-8 encoding. Tests compare the two on arbitrary
Unicode. Nothing in the package imports this module.
"""

from __future__ import annotations

import re
import unicodedata

_BOILERPLATE = tuple(map(re.compile, (
    r"Official Journal of the European (Union|Communities)",
    r"^\s*\d{1,2}\.\d{1,2}\.\d{4}\s+EN\s*$",
    r"^\s*EN\s*$",
    r"^\s*[LC]\s?\d+/\d+\s*$",
)))

_CONTROL = {c: " " for c in range(32) if chr(c) not in "\n\t"}
_CONTROL[127] = " "


def clean_text(raw: str) -> str:
    text = unicodedata.normalize("NFC", raw)
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    text = text.translate(_CONTROL)

    paragraphs: list[str] = []
    current: list[str] = []
    for line in text.split("\n"):
        if any(p.search(line) for p in _BOILERPLATE):
            continue
        if line.strip():
            current.append(" ".join(line.split()))
        elif current:
            paragraphs.append(" ".join(current))
            current = []
    if current:
        paragraphs.append(" ".join(current))
    return "\n\n".join(paragraphs)
