"""Test oracle: the text of an HTML page as html.parser reads it.

A second reading for lexgrade.fetcher.extract_text_from_html, from
html.parser's events instead of one regular-expression scan. Each tag
does what the fetcher's mark tables say: a skip element hides the text
inside it, a block tag ends a paragraph, a table cell separates words
with a space, and a <body> start tag ends every skipped region. On the
markup of the scan's grammar, which every html.parser since Python 3.10
reads alike, the two readings must give the same text; past it the
scan follows rules of its own. Nothing in the package imports this
module.
"""

from __future__ import annotations

from html.parser import HTMLParser

from lexgrade.fetcher import (
    _BODY,
    _BREAK,
    _CELL,
    _CLOSE,
    _EMPTY_MARKS,
    _END_MARKS,
    _OPEN,
    _START_MARKS,
)


class _TextExtractor(HTMLParser):
    """Paragraphs from html.parser's events, one event at a time."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self._paragraphs: list[str] = []
        self._chunks: list[str] = []
        self._skip_depth = 0

    def handle_starttag(self, tag, attrs):
        self._apply(_START_MARKS.get(tag))

    def handle_endtag(self, tag):
        self._apply(_END_MARKS.get(tag))

    def handle_startendtag(self, tag, attrs):
        self._apply(_EMPTY_MARKS.get(tag))

    def _apply(self, mark: str | None) -> None:
        if mark == _OPEN:
            self._skip_depth += 1
        elif mark == _CLOSE:
            self._skip_depth = max(0, self._skip_depth - 1)
        elif mark == _BODY:
            self._skip_depth = 0
        elif mark == _BREAK:
            self._flush()
        elif mark == _CELL:
            self._chunks.append(" ")

    def handle_data(self, data):
        if self._skip_depth:
            return
        if data.strip():
            self._chunks.append(data)
        elif data and self._chunks:
            # inter-tag whitespace still separates words
            self._chunks.append(" ")

    def _flush(self) -> None:
        if self._chunks:
            paragraph = " ".join("".join(self._chunks).split())
            if paragraph:
                self._paragraphs.append(paragraph)
            self._chunks = []

    def text(self) -> str:
        self._flush()
        return "\n\n".join(self._paragraphs)


def parse_text(html: str) -> str:
    """The text of a page read with html.parser."""
    parser = _TextExtractor()
    parser.feed(html)
    parser.close()
    return parser.text()
