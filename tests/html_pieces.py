"""Pieces of HTML pages for checking the text scan.

SCANNED pieces are markup and text of the scan's grammar: a page made
only of them, uncut, must read as html.parser reads it. OTHER pieces are
constructs the scan reads by its stated rules (see
lexgrade.fetcher.extract_text_from_html), on which html.parser versions
differ or which html.parser reads otherwise. tests/test_fetcher.py draws
pages from both with Hypothesis. Run as a script, this module checks the
scan on random pages using the standard library alone, for interpreters
that have no pytest: each whole page of SCANNED pieces must give
html.parser's text (tests/html_reference.py), and any other page, mixed
or cut, must give text holding none of the scan's mark characters.

    PYTHONPATH=src python tests/html_pieces.py [pages] [seed]
"""

from __future__ import annotations

import random
import sys

SCANNED = (
    # block, cell, skip and other tags, any case, with and without attributes
    "<p>", "</p>", "<P class='oj-normal'>", "</P >", "<Div id=d1>", "</div>",
    "<td>", "</TD>", "<th\tscope=\"col\">", "</th>", "<tr>", "</tr>", "<table>",
    "<br/>", "<BR />", "<br class=\"x\"/>", "<td class=\"c\"/>", "<nav/>",
    "<body/>", "<a href=x />", "<input disabled/>", "<input name=q>",
    "<nav>", "</Nav>", "<head>", "</head>", "<HEADER>", "</header>",
    "<footer>", "</footer>", "<noscript>", "</noscript>", "<template>",
    "</template>", "<body>", "<BODY lang=\"en\">", "</body>", "<html>",
    "</html>", "<span>", "</span>", "<i>", "</i>", "<li>", "</ol>", "<h2>",
    "</script>", "</style>", "</title>", "</textarea>",
    # quoted attribute values holding > and <, newlines inside tags
    "<p title=\"a>b\">", "<div data-x='<p>'>", "<p\nclass=\"x\"\n>",
    # comments, doctype, whole script, style and title elements
    "<!-- note -->", "<!---->", "<!-- a - b -->", "<!DOCTYPE html>",
    "<!doctype html PUBLIC \"-//W3C//DTD XHTML 1.0//EN\">",
    "<script>var s = \"</p><p>\";</script>", "<SCRIPT type=\"t\">a<b</SCRIPT>",
    "<style>p > a { x: '</div>' }</style>", "<script src=\"/a.js\"></script>",
    "<title>T &amp; U</title>", "<TITLE>EUR-Lex</Title>",
    # text, character references and whitespace of every kind
    "Article 1", " applies.", "word", "régime", "’", " ", "  ", "\n",
    "\t", "\xa0", "　", "\x1c", "\x85", "&", "&amp", "&amp;", "&#x41;",
    "&#65", "&nbsp;", "&notit;", "&#0;", "&#1;", "a > b", "x;",
)

OTHER = (
    # a stray "<", processing instruction, bogus comment, empty end tag
    "<", "a < b", "<?pi>", "<!x>", "</>", "< p>", "<1>",
    # an end tag with attributes, odd whitespace or a slash
    "</p class=x>", "</ p>", "</p/>", "</p\x0b>",
    # \v, \x00 and non-ASCII whitespace inside tags, unmodelled attributes
    "<p\x0bclass=x>", "<p\x00>", "<p\xa0class=x>", "<a b=c/>", "<a b = c>",
    "<nav b=c/>", "<a b=\"c\"d=e>", "<br/ >", "<x-y>", "<a href=é>",
    # comments holding "--" or "--!>", and "<!-->"
    "<!-- a -- b -->", "<!-- x --!>", "<!-->", "<!--->", "<!-- x -- >",
    "<!-- x --->", "<![CDATA[x]]>",
    # raw-text elements and raw text that versions end in different places
    "<script>", "<style>", "<title>", "<textarea>", "<xmp>", "<iframe>",
    "<plaintext>", "<noembed>", "<script>a</scriptx></script>",
    "<script>a</ script></script>", "<style>a</style x></style>",
    "<title>a<b>c</title>", "<script/>",
    # the scan's own mark characters
    "\x01", "\x02", "\x03", "\x1f",
)

#: The control characters the scan marks tags with; no text holds one.
MARKS = "\x01\x02\x03\x1f"


def page(rng: random.Random, pieces=SCANNED + OTHER, cut: bool = True) -> str:
    """Up to 30 random pieces, cut at a random point half the time when cut is true."""
    html = "".join(rng.choices(pieces, k=rng.randrange(31)))
    if cut and rng.random() < 0.5:
        html = html[: rng.randrange(len(html) + 1)]
    return html


def main(argv: list[str]) -> int:
    from html_reference import parse_text
    from lexgrade.fetcher import extract_text_from_html

    count = int(argv[0]) if argv else 20000
    rng = random.Random(argv[1] if len(argv) > 1 else 0)
    in_grammar = differ = marked = 0
    for i in range(count):
        # Every other page is whole and made of scanned pieces alone, so it
        # must read as html.parser reads it; any other page only has to read.
        whole = i % 2 == 1
        html = page(rng, SCANNED, cut=False) if whole else page(rng)
        text = extract_text_from_html(html)
        if any(mark in text for mark in MARKS):
            marked += 1
            print(f"holds a mark: {html!r}", file=sys.stderr)
        if whole:
            in_grammar += 1
            if text != parse_text(html):
                differ += 1
                print(f"differs: {html!r}", file=sys.stderr)
    print(f"Python {sys.version.split()[0]}: {count} pages, {in_grammar} in grammar, "
          f"{differ} differ from html.parser, {marked} hold a mark character")
    return 1 if differ or marked else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
