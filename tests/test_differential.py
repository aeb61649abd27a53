"""One-pass counting against the re-segmenting reference implementation."""

from __future__ import annotations

import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from lexgrade.indices import linsear_write
from lexgrade.segmenter import scan

sys.path.insert(0, str(Path(__file__).parent))
import segmenter_reference as reference  # noqa: E402

# Pieces that stress the boundary rule: abbreviations in any case and
# behind openers, detached terminators, terminators before closers,
# decimals, citations, combining marks and punctuation-only tokens.
_PIECES = [
    "law", "data", "sun", "the", "remember", "regulation", "implementation",
    "Art.", "art.", "ART.", "(e.g.", "e.g.", "I.E.", "MRS.", "Mr.", "No.",
    "(No.", "cf.", "p.", "Dr.", "Art.)", "U.S.", "etc.",
    ".", "...", "?!", "!", "?", "x.)", "word.\u201d", "stop.\"", "end.\u00bb",
    "end?)", "a.?)", "[1].", "'quote.'", "\u201cArt.", "end.\u2019",
    "1.5", "2016/679", "(EU)", "data-driven", "caf\u00e9", "cafe\u0301",
    "e\u0301.", "x.\u0301", "\u0301", "\u0301.", "\u2014", "***", "(", ")",
    "\u00bb", "\u0130.", "\u01c5.",
]
# The empty separator glues neighbouring pieces into one token.
_SEPARATORS = [" ", " ", " ", "  ", "", "\n", "\n\n", "\t", "\x1c", "\x85",
               "\xa0", "\u2028", "\u3000"]

_texts = st.lists(
    st.tuples(st.sampled_from(_PIECES), st.sampled_from(_SEPARATORS)),
    max_size=260,
).map(lambda pairs: "".join(piece + sep for piece, sep in pairs))


@settings(max_examples=300, deadline=None)
@given(_texts)
def test_matches_reference(text):
    m, words = scan(text)
    assert m.sentence_count == len(reference.segment_sentences(text))
    assert m._asdict() == reference.metrics(text)
    assert words == reference.codes(reference.words(text))
    if words:
        for mode in ("windowed", "compat"):
            assert linsear_write(words, mode) == reference.linsear_write(text, mode)
