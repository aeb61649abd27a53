from __future__ import annotations

import json
import math
import os
import re
import stat
import sys
import threading
import time
import urllib.request
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import settings as hypothesis_settings
from hypothesis import strategies as st

import lexgrade
from conftest import Reply
from lexgrade import fetcher
from lexgrade.corpus import DocType, Domain, DocumentRecord
from lexgrade.errors import LexgradeError, MalformedCelexError
from lexgrade.fetcher import (
    MAX_RETRIES,
    FetchSettings,
    FetchStatus,
    celex_url,
    extract_text_from_html,
    fetch_all,
    fetch_document,
)

sys.path.insert(0, str(Path(__file__).parent))
import html_pieces  # noqa: E402
from html_reference import parse_text  # noqa: E402

GDPR_HTML = """<html><body>
<p>Regulation text begins.</p>
<p>Article 1 sets the scope.</p>
</body></html>"""


def record(doc_id: str) -> DocumentRecord:
    return DocumentRecord(
        id=doc_id,
        doc_type=DocType.REGULATION,
        year=2016,
        title="t",
        domain=Domain.GENERAL_RULES,
        source=doc_id,
    )


#: Every way to build FetchSettings from keyword values; each one checks them.
BUILDS = (
    lambda **kw: FetchSettings(**kw),
    lambda **kw: FetchSettings()._replace(**kw),
    lambda **kw: FetchSettings._make({**FetchSettings()._asdict(), **kw}.values()),
)


def settings(stub, **overrides) -> FetchSettings:
    base = dict(base_url=stub.base_url, delay_ms=0, retries=1, timeout_s=5.0)
    base.update(overrides)
    return FetchSettings(**base)


class TestCelexUrl:
    def test_embeds_id_and_language(self):
        url = celex_url("32016R0679")
        assert "32016R0679" in url
        assert "/EN/" in url

    def test_empty_rejected(self):
        with pytest.raises(MalformedCelexError):
            celex_url("")

    def test_same_template_different_id(self):
        a = celex_url("32016R0679")
        b = celex_url("32002L0058")
        assert a.replace("32016R0679", "32002L0058") == b

    @pytest.mark.parametrize(
        "bad",
        # ASCII digits only: \d would admit the Arabic-Indic and fullwidth ones.
        ["GDPR", "3201R0679", "32016r0679", "32016R", "3\u0662\u0660\u0661\u0666R0679",
         "32016R\uff10\uff16\uff17\uff19", "32016R0679\n"],
    )
    def test_malformed_ids(self, bad):
        with pytest.raises(MalformedCelexError):
            celex_url(bad)


class TestExtractText:
    def test_paragraphs(self):
        assert extract_text_from_html("<p>One.</p><p>Two.</p>") == "One.\n\nTwo."

    def test_entities_decoded(self):
        assert extract_text_from_html("<p>a &amp; b</p>") == "a & b"

    def test_golden_page(self, data_dir):
        html = (data_dir / "directive_page.html").read_text()
        golden = (data_dir / "directive_page_golden.txt").read_text().rstrip("\n")
        assert extract_text_from_html(html) == golden

    def test_malformed_html_tolerated(self):
        assert extract_text_from_html("<p>ok <b>bold</p></div>") == "ok bold"

    def test_inline_tags_keep_word_spacing(self):
        html = "<p><i>EU</i>\n<b>law</b></p>"
        assert extract_text_from_html(html) == "EU law"


# The layout of the benchmark's fetch-cold pages: doctype, a head with style
# and script, header, nav and noscript chrome, oj-table rows and a footer.
BENCH_LAYOUT_PAGE = """<!DOCTYPE html>
<html lang="en"><head><meta charset="utf-8">
<title>EUR-Lex - 32016R0679 - EN</title>
<style>.oj-normal { margin: 0; } td { vertical-align: top; }</style>
<script>window.dataLayer = [{"page": "document <p>view</p>"}];</script>
</head><body>
<header><a class="logo" href="/">EUR-Lex</a> Access to European Union law\
<form><input name=q><button>Search</button></form></header>
<nav><ul><li><a href="/">Home</a></li><li><a href="/search">Advanced search\
</a></li><li>Help &amp; cookies</li></ul></nav>
<noscript>Enable JavaScript to use the menu</noscript>
<div id="document">
<p class="oj-hd-date">4.5.2016 EN</p>
<p class="oj-normal">Member States&rsquo; r&eacute;gime under Art.&nbsp;5 applies.</p>
<table class="oj-table"><colgroup><col width="4%"><col width="96%"></colgroup>
<tr><td><p class="oj-normal">(a)</p></td><td><p class="oj-normal">na&#239;ve &euro;</p></td></tr>
</table>
</div>
<footer>Top &#8593; | Legal notice | Cookies policy</footer>
<script src="/js/analytics.js"></script>
</body></html>
"""


@st.composite
def pages(draw, pieces, cut=True):
    html = "".join(draw(st.lists(st.sampled_from(pieces), max_size=30)))
    if cut and draw(st.booleans()):
        html = html[: draw(st.integers(0, len(html)))]
    return html


#: Pages outside the scan's grammar, each with its text under the scan's
#: stated rules. html.parser reads some of them otherwise, and its reading of
#: others changes between Python versions.
UNREAD_MARKUP = {
    "<p>a < b</p>": "a < b",  # "<" before a space is text
    "<?xml version='1.0'?><p>x</p>": "x",  # "<?" dropped to ">"
    "<!x><p>x</p>": "x",  # "<!" dropped to ">"
    "<p>x</>y</p>": "xy",  # "</" before a non-letter dropped to ">"
    "<p>x</p class=y>z": "x\n\nz",  # an end tag's attributes are ignored
    "<p>x</ p>y": "xy",
    "<nav\x0bclass=x>y</nav>z": "z",  # a tag past the grammar keeps its name
    "<p\x00>x</p>": "x",
    "<nav\xa0class=x>y</nav>z": "z",
    "<nav class=x/>y</nav>z": "z",  # ... and is a start tag
    "<!-- a -- b --><p>x</p>": "x",  # a comment ends at "-->" ...
    "<!-- a --!><p>x</p>-->": "x\n\n-->",  # ... or "--!>"
    "<!--><p>x</p>-->": "x\n\n-->",  # "<!-->" is an empty comment
    "<p>x</p><!-- y": "x",  # an unterminated construct is dropped
    "<p>x</p><p class=": "x",
    "<script>var a;": "",  # script text not read whole is skipped ...
    "<script>a</script x><p>b</p>": "b",
    "<script>a</scriptx>b</script><p>c</p>": "c",  # ... like nav's
    "<style>a</ style>b</style><p>c</p>": "c",
    "<textarea><p>x</p></textarea>": "x",  # raw-text elements are ordinary
    "<title>a<b>c</title><p>x</p>": "ac\n\nx",
    "<![CDATA[x]]><p>y</p>": "y",
    "<p>a\x01b</p>": "a b",  # a mark character is a space
    "<p>a\x02b</p>": "a b",
    "a<nav>\x1f</nav>b": "ab",
    "a\x03+<nav>b": "a +",
}

#: html_pieces.MARKS, the characters no text holds.
MARKS = re.compile(f"[{html_pieces.MARKS}]")


class TestScanMatchesParser:
    @hypothesis_settings(max_examples=400, deadline=None)
    @given(pages(html_pieces.SCANNED + html_pieces.OTHER))
    def test_any_page_reads_to_text(self, html):
        text = extract_text_from_html(html)
        assert isinstance(text, str)
        assert not MARKS.search(text)

    @hypothesis_settings(max_examples=300, deadline=None)
    @given(pages(html_pieces.SCANNED, cut=False))
    def test_scanned_pieces_need_no_fallback(self, html):
        assert extract_text_from_html(html) == parse_text(html)

    @pytest.mark.parametrize("html", list(UNREAD_MARKUP))
    def test_unread_markup_takes_fallback(self, html):
        # Pages once left to an html.parser fallback, now each read by a rule.
        assert extract_text_from_html(html) == UNREAD_MARKUP[html]

    @pytest.mark.parametrize(
        "html, text",
        [
            ("a<nav><p>b</nav>c", "a\n\nc"),
            ("a<nav><td>b</nav>c", "a c"),
            ("a<nav> </nav>b", "ab"),
            ("<nav><footer></nav>a</footer>b", "b"),
            ("</nav>a<nav>b", "a"),
            ("<td>a</td><td>b</td>", "a b"),
            ("<td/>a<td/>b<nav/>c<br/>d", "abc\n\nd"),
            ("&am<b></b>p; &amp<i>;</i> &#6<!-- -->5;", "&amp; &; 5;"),
            ("<p>a<script>b</script>c</p>", "ac"),
        ],
    )
    def test_scanned_marks(self, html, text):
        assert extract_text_from_html(html) == text == parse_text(html)

    def test_golden_and_bench_layout_need_no_fallback(self, data_dir):
        golden = (data_dir / "directive_page.html").read_text()
        assert extract_text_from_html(golden) == parse_text(golden)
        assert extract_text_from_html(BENCH_LAYOUT_PAGE) == (
            "4.5.2016 EN\n\nMember States\u2019 r\u00e9gime under Art. 5 applies."
            "\n\n(a)\n\nna\u00efve \u20ac"
        )
        assert extract_text_from_html(BENCH_LAYOUT_PAGE) == parse_text(BENCH_LAYOUT_PAGE)

    @pytest.mark.parametrize("tail, stray", [("", False), ("<p>a < b</p>", True)])
    def test_body_closes_unclosed_head(self, tail, stray):
        html = (
            "<html><head><title>T</title><body><p>Article 1 applies.</p>"
            f"{tail}</body></html>"
        )
        text = extract_text_from_html(html)
        assert text == "Article 1 applies." + ("\n\na < b" if tail else "")
        # a stray "<" is text, as html.parser reads it
        assert ("<" in text) == stray
        assert text == parse_text(html)


class TestScanRules:
    @pytest.mark.parametrize(
        "html, text",
        [
            ("a <1> b", "a <1> b"),
            ("a <é> b", "a <é> b"),
            ("a <", "a <"),
            ("a &lt;p&gt; b", "a <p> b"),
        ],
    )
    def test_lt_before_other_than_letter_slash_bang_query_is_text(self, html, text):
        assert extract_text_from_html(html) == text

    @pytest.mark.parametrize(
        "html, text",
        [
            ('a<p\x0btitle="x>y">c', "a\n\nc"),  # ">" inside quotes
            ("a<p b=c'x>y'>d", "a\n\nd"),
            ("a<p a=b<p>c", "a\n\nc"),  # runs past "<" to the first ">"
            ("a<td\x0b>b", "a b"),  # named by its leading letters and digits
            ("a<h2-x>b", "a\n\nb"),
            ("a<nav-x>b</nav>c", "ac"),
            ("a<nav\x0b/>b</nav>c", "ac"),  # a start tag, never self-closing
            ("<nav>a</nav\x0bx=1>b", "b"),  # an end tag's attributes ignored
            ("<nav>a</nav x=1>b", "b"),
            ('a<p title="x', "a"),  # unterminated, to the end of the page
            ("a<p a=b", "a"),
        ],
    )
    def test_tag_past_the_grammar(self, html, text):
        assert extract_text_from_html(html) == text

    @pytest.mark.parametrize(
        "html, text",
        [
            ("a</1>b", "ab"),
            ("a<?php echo 1; ?>b", "ab"),
            ("a<!ELEMENT p>b", "ab"),
            ("a<![CDATA[x<p>y]]>b", "ay]]>b"),  # dropped up to the first ">"
            ("a<!doctype html<p>>b", "a>b"),
            ("a<?x", "a"),
        ],
    )
    def test_bogus_markup_dropped_to_first_gt(self, html, text):
        assert extract_text_from_html(html) == text

    @pytest.mark.parametrize(
        "html, text",
        [
            ("a<!-- x -- y -->b", "ab"),
            ("a<!-- x --->b", "ab"),
            ("a<!-- x -- >y-->b", "ab"),
            ("a<!--->b", "ab"),
            ("a<!---x-->b", "ab"),
            ("a<!-- x <p> y", "a"),
        ],
    )
    def test_comment_holding_dashes(self, html, text):
        assert extract_text_from_html(html) == text

    @pytest.mark.parametrize(
        "html, text",
        [
            ("a<script>b<p>c<s>x</script>d", "a\n\nd"),  # tags inside are read
            ("a<style>b</style x>c", "ac"),
            ("<p>a<script>b</scriptx>c</script>d</p>", "ad"),
            ("a<script>b", "a"),
            ("<head><script>x</head><body>a", "a"),
        ],
    )
    def test_script_not_read_whole_is_skipped(self, html, text):
        assert extract_text_from_html(html) == text

    @pytest.mark.parametrize(
        "tag", ["title", "textarea", "xmp", "iframe", "noembed", "noframes", "plaintext"]
    )
    def test_raw_text_elements_are_ordinary(self, tag):
        html = f"a<{tag}>b<p>c</{tag}>d<p>e"
        assert extract_text_from_html(html) == "ab\n\ncd\n\ne"

    @pytest.mark.parametrize("mark", list(html_pieces.MARKS))
    def test_mark_characters_read_as_spaces(self, mark):
        assert extract_text_from_html(f"<p>a{mark}b</p>c") == "a b\n\nc"
        assert extract_text_from_html(f"a<nav>{mark}b</nav>c") == "ac"

    @pytest.mark.parametrize(
        "unit", ['<a b="', "<p a=b", "</p x=", "<!--", "<!-- a -- ", "<?x", "<script>"]
    )
    def test_linear_time(self, unit):
        def best_of_3(page: str) -> float:
            times = []
            for _ in range(3):
                start = time.perf_counter()
                extract_text_from_html(page)
                times.append(time.perf_counter() - start)
            return min(times)

        small, large = best_of_3(unit * 16_000), best_of_3(unit * 64_000)
        assert large < 8 * small, (small, large)

    def test_quoted_attribute_page_is_fast(self):
        # html.parser took seconds on this page under some Python versions.
        start = time.perf_counter()
        extract_text_from_html('<a b="' * 8_000)
        assert time.perf_counter() - start < 0.5


class TestFetchDocument:
    def test_fresh_then_cached(self, stub_repo, tmp_path):
        stub_repo.pages["32016R0679"] = GDPR_HTML
        cfg = settings(stub_repo)

        first = fetch_document("32016R0679", tmp_path, cfg)
        assert first.status is FetchStatus.FETCHED_FRESH
        assert first.text_path.read_text(encoding="utf-8") == extract_text_from_html(
            GDPR_HTML
        )
        meta = json.loads((tmp_path / "32016R0679.meta").read_text())
        assert meta["source_url"].endswith("CELEX:32016R0679")
        assert "English" in meta["rendition"]

        requests_before = len(stub_repo.requests)
        second = fetch_document("32016R0679", tmp_path, cfg)
        assert second.status is FetchStatus.FROM_CACHE
        assert second.text_path == first.text_path
        assert len(stub_repo.requests) == requests_before

    def test_unknown_id_is_not_found(self, stub_repo, tmp_path):
        result = fetch_document("32016R0001", tmp_path, settings(stub_repo))
        assert result.status is FetchStatus.NOT_FOUND
        assert result.text_path is None

    def test_server_errors_exhaust_retries(self, stub_repo, tmp_path):
        stub_repo.pages["32016R0002"] = 503
        result = fetch_document("32016R0002", tmp_path, settings(stub_repo, retries=2))
        assert result.status is FetchStatus.TRANSPORT_ERROR
        assert "503" in result.detail
        assert len(stub_repo.requests) == 3

    @pytest.mark.parametrize("code", [400, 403, 410])
    def test_client_errors_fail_without_retry(self, stub_repo, tmp_path, code):
        stub_repo.pages["32016R0002"] = code
        result = fetch_document("32016R0002", tmp_path, settings(stub_repo, retries=3))
        assert result.status is FetchStatus.TRANSPORT_ERROR
        url = celex_url("32016R0002", stub_repo.base_url)
        assert result.detail == f"1 attempts failed; last error: HTTP {code} at {url}"
        assert len(stub_repo.requests) == 1
        assert not (tmp_path / "32016R0002.txt").exists()

    def test_too_many_requests_is_retried(self, stub_repo, tmp_path):
        stub_repo.pages["32016R0002"] = 429
        result = fetch_document("32016R0002", tmp_path, settings(stub_repo, retries=2))
        assert result.status is FetchStatus.TRANSPORT_ERROR
        assert "429" in result.detail
        assert len(stub_repo.requests) == 3

    @pytest.mark.parametrize("status", [429, 503])
    def test_retry_after_lengthens_wait(self, stub_repo, tmp_path, status):
        # The backoff alone would wait 0.1 s; the largest backoff is 1.6 s.
        stub_repo.pages["32016R0002"] = Reply(status=status, headers={"Retry-After": "1"})
        fetch_document("32016R0002", tmp_path, settings(stub_repo, delay_ms=100))
        (gap,) = stub_repo.request_gaps()
        assert gap >= 1.0

    @pytest.mark.parametrize(
        "delay_ms, value", [(20, "86400"), (20, "9" * 5000), (0, "5")]
    )
    def test_retry_after_capped(self, stub_repo, tmp_path, delay_ms, value):
        # At most the largest backoff, 2**(MAX_RETRIES-1) times the delay.
        cap_s = delay_ms / 1000 * 2 ** (MAX_RETRIES - 1)
        stub_repo.pages["32016R0002"] = Reply(status=503, headers={"Retry-After": value})
        fetch_document("32016R0002", tmp_path, settings(stub_repo, delay_ms=delay_ms))
        (gap,) = stub_repo.request_gaps()
        assert cap_s <= gap < cap_s + 0.5

    @pytest.mark.parametrize(
        "value", ["Wed, 21 Oct 2026 07:28:00 GMT", "1.5", "-1", "+1", "soon", "²", ""]
    )
    def test_retry_after_not_delta_seconds_ignored(self, stub_repo, tmp_path, value):
        # Honoured, any of these would wait the 0.8 s cap instead of the 0.05 s backoff.
        stub_repo.pages["32016R0002"] = Reply(status=429, headers={"Retry-After": value})
        fetch_document("32016R0002", tmp_path, settings(stub_repo, delay_ms=50))
        (gap,) = stub_repo.request_gaps()
        assert 0.05 <= gap < 0.5

    @pytest.mark.parametrize(
        "content_type", ["text/html", "text/html; charset=utf-8", "text/html; charset=UTF-8"]
    )
    def test_utf8_page_decoded(self, stub_repo, tmp_path, content_type):
        stub_repo.content_type = content_type
        stub_repo.pages["32016R0679"] = "<p>Member States’ régime applies.</p>"
        result = fetch_document("32016R0679", tmp_path, settings(stub_repo))
        assert result.status is FetchStatus.FETCHED_FRESH
        text = result.text_path.read_text(encoding="utf-8")
        assert text == "Member States’ régime applies."

    def test_redirect_followed(self, stub_repo, tmp_path):
        stub_repo.pages["32016R0679"] = Reply(
            status=301, headers={"Location": "/moved/?uri=CELEX:32016R9999"}
        )
        stub_repo.pages["32016R9999"] = GDPR_HTML
        result = fetch_document("32016R0679", tmp_path, settings(stub_repo))
        assert result.status is FetchStatus.FETCHED_FRESH
        assert result.text_path.read_text(encoding="utf-8") == extract_text_from_html(
            GDPR_HTML
        )
        assert stub_repo.requests[1][0].startswith("/moved/")
        meta = json.loads((tmp_path / "32016R0679.meta").read_text())
        assert meta["source_url"] == celex_url("32016R0679", stub_repo.base_url)

    @pytest.mark.parametrize(
        "charset, body, text",
        [
            ("iso-8859-1", "<p>Le régime.</p>".encode("iso-8859-1"), "Le régime."),
            ("no-such-charset", "<p>Le régime.</p>".encode("utf-8"), "Le régime."),
        ],
    )
    def test_declared_charset_decoded(self, stub_repo, tmp_path, charset, body, text):
        stub_repo.pages["32016R0679"] = Reply(
            body=body, headers={"Content-Type": f"text/html; charset={charset}"}
        )
        result = fetch_document("32016R0679", tmp_path, settings(stub_repo))
        assert result.status is FetchStatus.FETCHED_FRESH
        assert result.text_path.read_text(encoding="utf-8") == text

    @pytest.mark.parametrize(
        "reply",
        [
            pytest.param(204, id="no-content"),
            pytest.param(Reply(body=b"<p>Cut sh", content_length=500), id="truncated"),
        ],
    )
    def test_unusable_response_is_transport_error(self, stub_repo, tmp_path, reply):
        stub_repo.pages["32016R0679"] = reply
        result = fetch_document("32016R0679", tmp_path, settings(stub_repo, retries=2))
        assert result.status is FetchStatus.TRANSPORT_ERROR
        assert result.detail.startswith("3 attempts failed")
        assert len(stub_repo.requests) == 3
        assert list(tmp_path.iterdir()) == []

    def test_sends_user_agent(self, stub_repo, tmp_path):
        stub_repo.pages["32016R0679"] = GDPR_HTML
        cfg = settings(stub_repo, user_agent="lexgrade-test/1.0 (stub)")
        fetch_document("32016R0679", tmp_path, cfg)
        assert stub_repo.user_agents == [cfg.user_agent]

    def test_text_without_meta_is_refetched(self, stub_repo, tmp_path):
        stub_repo.pages["32016R0679"] = GDPR_HTML
        (tmp_path / "32016R0679.txt").write_text("stale text", encoding="utf-8")

        result = fetch_document("32016R0679", tmp_path, settings(stub_repo))
        assert result.status is FetchStatus.FETCHED_FRESH
        assert len(stub_repo.requests) == 1
        assert result.text_path.read_text(encoding="utf-8") == extract_text_from_html(
            GDPR_HTML
        )
        meta = json.loads((tmp_path / "32016R0679.meta").read_text())
        assert meta["source_url"].endswith("CELEX:32016R0679")

    @pytest.mark.parametrize("meta", ["[]", "null", '"2016-04-27"'])
    def test_meta_not_an_object_is_cache_hit(self, stub_repo, tmp_path, meta):
        (tmp_path / "32016R0679.txt").write_text("cached text", encoding="utf-8")
        (tmp_path / "32016R0679.meta").write_text(meta, encoding="utf-8")

        result = fetch_document("32016R0679", tmp_path, settings(stub_repo))
        assert result.status is FetchStatus.FROM_CACHE
        assert result.retrieved_at is None
        assert stub_repo.requests == []

    @pytest.mark.parametrize("meta", ["{}", '{"source_url": 7}'])
    def test_meta_without_source_url_is_cache_hit(self, stub_repo, tmp_path, meta):
        (tmp_path / "32016R0679.txt").write_text("cached text", encoding="utf-8")
        (tmp_path / "32016R0679.meta").write_text(meta, encoding="utf-8")

        result = fetch_document("32016R0679", tmp_path, settings(stub_repo))
        assert result.status is FetchStatus.FROM_CACHE
        assert stub_repo.requests == []

    def test_meta_records_extraction_rule(self, stub_repo, tmp_path):
        stub_repo.pages["32016R0679"] = GDPR_HTML
        fetch_document("32016R0679", tmp_path, settings(stub_repo))
        meta = json.loads((tmp_path / "32016R0679.meta").read_text())
        assert meta["extraction_rule"] == fetcher._EXTRACTION_RULE

    @pytest.mark.parametrize("rule", [None, 0, fetcher._EXTRACTION_RULE + 1, "1"])
    def test_cache_from_other_extraction_rule_is_refetched(self, stub_repo, tmp_path, rule):
        # A text an older lexgrade extracted from this very URL, by rules
        # that may read the page otherwise.
        stub_repo.pages["32016R0679"] = GDPR_HTML
        meta = {"source_url": celex_url("32016R0679", stub_repo.base_url)}
        if rule is not None:
            meta["extraction_rule"] = rule
        (tmp_path / "32016R0679.txt").write_text("old text", encoding="utf-8")
        (tmp_path / "32016R0679.meta").write_text(json.dumps(meta), encoding="utf-8")

        result = fetch_document("32016R0679", tmp_path, settings(stub_repo))
        assert result.status is FetchStatus.FETCHED_FRESH
        assert result.text_path.read_text(encoding="utf-8") == extract_text_from_html(
            GDPR_HTML
        )
        again = fetch_document("32016R0679", tmp_path, settings(stub_repo))
        assert again.status is FetchStatus.FROM_CACHE
        assert len(stub_repo.requests) == 1

    def test_cache_from_this_extraction_rule_is_hit(self, stub_repo, tmp_path):
        meta = {
            "source_url": celex_url("32016R0679", stub_repo.base_url),
            "extraction_rule": fetcher._EXTRACTION_RULE,
        }
        (tmp_path / "32016R0679.txt").write_text("cached text", encoding="utf-8")
        (tmp_path / "32016R0679.meta").write_text(json.dumps(meta), encoding="utf-8")

        result = fetch_document("32016R0679", tmp_path, settings(stub_repo))
        assert result.status is FetchStatus.FROM_CACHE
        assert result.text_path.read_text(encoding="utf-8") == "cached text"
        assert stub_repo.requests == []

    def test_cache_from_other_base_url_is_refetched(
        self, stub_repo, mirror_repo, tmp_path
    ):
        mirror_repo.pages["32016R0679"] = "<p>Mirror copy.</p>"
        stub_repo.pages["32016R0679"] = GDPR_HTML
        mirrored = fetch_document("32016R0679", tmp_path, settings(mirror_repo))
        assert mirrored.status is FetchStatus.FETCHED_FRESH

        result = fetch_document("32016R0679", tmp_path, settings(stub_repo))
        assert result.status is FetchStatus.FETCHED_FRESH
        assert result.text_path.read_text(encoding="utf-8") == extract_text_from_html(
            GDPR_HTML
        )
        meta = json.loads((tmp_path / "32016R0679.meta").read_text())
        assert meta["source_url"] == celex_url("32016R0679", stub_repo.base_url)
        assert len(stub_repo.requests) == 1

        # the same base URL, trailing slash or not, is now a hit
        for base_url in (stub_repo.base_url, stub_repo.base_url + "/"):
            cfg = settings(stub_repo, base_url=base_url)
            again = fetch_document("32016R0679", tmp_path, cfg)
            assert again.status is FetchStatus.FROM_CACHE
        assert len(stub_repo.requests) == 1
        assert len(mirror_repo.requests) == 1

    def test_failed_refetch_from_other_extraction_rule_leaves_no_cache(
        self, stub_repo, tmp_path
    ):
        stub_repo.pages["32016R0679"] = 404
        meta = {"source_url": celex_url("32016R0679", stub_repo.base_url)}
        (tmp_path / "32016R0679.txt").write_text("old text", encoding="utf-8")
        (tmp_path / "32016R0679.meta").write_text(json.dumps(meta), encoding="utf-8")

        result = fetch_document("32016R0679", tmp_path, settings(stub_repo))
        assert result.status is FetchStatus.NOT_FOUND
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("answer", [404, 503])
    def test_failed_refetch_from_other_base_url_leaves_no_cache(
        self, stub_repo, mirror_repo, tmp_path, answer
    ):
        mirror_repo.pages["32016R0679"] = "<p>Mirror copy.</p>"
        stub_repo.pages["32016R0679"] = answer
        mirrored = fetch_document("32016R0679", tmp_path, settings(mirror_repo))
        assert mirrored.status is FetchStatus.FETCHED_FRESH

        result = fetch_document("32016R0679", tmp_path, settings(stub_repo))
        assert not result.ok
        assert not (tmp_path / "32016R0679.txt").exists()
        assert not (tmp_path / "32016R0679.meta").exists()

    def test_text_path_present_iff_success(self, stub_repo, tmp_path):
        stub_repo.pages["32016R0679"] = GDPR_HTML
        cfg = settings(stub_repo)
        for doc_id in ("32016R0679", "32016R0001"):
            result = fetch_document(doc_id, tmp_path, cfg)
            assert (result.text_path is not None) == result.ok


class TestFetchAll:
    def test_mixed_statuses_in_order(self, stub_repo, tmp_path):
        stub_repo.pages["31995L0046"] = "<p>Directive one.</p>"
        stub_repo.pages["32016R0679"] = GDPR_HTML
        records = [
            record("31995L0046"),
            record("39999R9999"),  # 404
            record("32016R0679"),
        ]
        results = fetch_all(records, tmp_path, settings(stub_repo))
        assert [r.id for r in results] == [rec.id for rec in records]
        assert [r.status for r in results] == [
            FetchStatus.FETCHED_FRESH,
            FetchStatus.NOT_FOUND,
            FetchStatus.FETCHED_FRESH,
        ]

    def test_empty_manifest(self, stub_repo, tmp_path):
        assert fetch_all([], tmp_path, settings(stub_repo)) == []

    def test_malformed_id_surfaces_in_result(self, stub_repo, tmp_path):
        results = fetch_all([record("not-a-celex-id")], tmp_path, settings(stub_repo))
        assert results[0].status is FetchStatus.TRANSPORT_ERROR
        assert "CELEX" in results[0].detail

        # A cached pair does not make a malformed id a hit.
        cached = {tmp_path / "foo.txt": "cached text", tmp_path / "foo.meta": "{}"}
        for path, content in cached.items():
            path.write_text(content, encoding="utf-8")
        results = fetch_all([record("foo")], tmp_path, settings(stub_repo))
        assert results[0].status is FetchStatus.TRANSPORT_ERROR
        assert "CELEX" in results[0].detail
        assert {p: p.read_text(encoding="utf-8") for p in cached} == cached
        assert stub_repo.requests == []

    def test_cache_idempotence(self, stub_repo, tmp_path):
        stub_repo.pages["31995L0046"] = "<p>Directive one.</p>"
        stub_repo.pages["32016R0679"] = GDPR_HTML
        records = [record("31995L0046"), record("32016R0679")]
        cfg = settings(stub_repo)

        first = fetch_all(records, tmp_path, cfg)
        texts = [r.text_path.read_bytes() for r in first]
        requests_after_first = len(stub_repo.requests)

        second = fetch_all(records, tmp_path, cfg)
        assert len(stub_repo.requests) == requests_after_first
        assert all(r.status is FetchStatus.FROM_CACHE for r in second)
        assert [r.text_path.read_bytes() for r in second] == texts

    def test_politeness_delay_between_request_starts(self, stub_repo, tmp_path):
        delay_ms = 150
        for i in range(3):
            stub_repo.pages[f"3201{i}R000{i}"] = f"<p>Doc {i}.</p>"
        records = [record(f"3201{i}R000{i}") for i in range(3)]
        results = fetch_all(records, tmp_path, settings(stub_repo, delay_ms=delay_ms))
        assert all(r.status is FetchStatus.FETCHED_FRESH for r in results)
        gaps = stub_repo.request_gaps()
        assert len(gaps) == 2
        # loopback jitter allowance: starts are spaced by the limiter
        assert all(gap >= delay_ms / 1000 - 0.02 for gap in gaps)

    def test_requests_never_overlap(self, stub_repo, tmp_path):
        # Each reply is held open 50 ms, so requests sent side by side
        # overlap at the stub, and one sent after another never does.
        stub_repo.hold_s = 0.05
        for i in range(4):
            stub_repo.pages[f"3202{i}R000{i}"] = f"<p>Doc {i}.</p>"
        records = [record(f"3202{i}R000{i}") for i in range(4)]
        results = fetch_all(records, tmp_path, settings(stub_repo))
        assert [r.status for r in results] == [FetchStatus.FETCHED_FRESH] * 4
        assert stub_repo.max_active == 1

    def test_concurrent_requests_seen_overlapping(self, stub_repo):
        # The check above could not catch a fetcher that overlaps requests
        # if the stub failed to see overlap: two held requests sent from
        # two threads at once are both active there.
        stub_repo.hold_s = 0.2
        stub_repo.pages["32020R0001"] = "<p>Doc.</p>"
        url = celex_url("32020R0001", stub_repo.base_url)
        together = threading.Barrier(2)

        def get():
            together.wait(timeout=5)
            with urllib.request.urlopen(url, timeout=5) as response:
                assert response.read() == b"<p>Doc.</p>"

        threads = [threading.Thread(target=get) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert len(stub_repo.requests) == 2
        assert stub_repo.max_active == 2

    def test_unwritable_page_fails_alone(self, stub_repo, tmp_path):
        ids = ["31995L0046", "32016R0679", "32019L0790"]
        for doc_id in ids:
            stub_repo.pages[doc_id] = f"<p>Text of {doc_id}.</p>"
        (tmp_path / "32016R0679.txt").mkdir()  # no file can replace a directory
        results = fetch_all([record(i) for i in ids], tmp_path, settings(stub_repo))
        assert [r.id for r in results] == ids
        assert [r.status for r in results] == [
            FetchStatus.FETCHED_FRESH,
            FetchStatus.TRANSPORT_ERROR,
            FetchStatus.FETCHED_FRESH,
        ]
        assert "32016R0679.txt" in results[1].detail
        assert [r.text_path.read_text(encoding="utf-8") for r in results[::2]] == [
            "Text of 31995L0046.", "Text of 32019L0790."
        ]
        assert not list(tmp_path.glob(".*"))

    def test_writer_that_cannot_start_fails_each_page(self, stub_repo, tmp_path, monkeypatch):
        # No page is handed to a writer thread that did not start: each fresh
        # page fails alone, nothing is written and fetch_all still returns.
        ids = ["31995L0046", "32016R0679"]
        for doc_id in ids:
            stub_repo.pages[doc_id] = f"<p>Text of {doc_id}.</p>"
        start = threading.Thread.start

        def refuse(thread):
            if thread.name == "lexgrade-cache-writer":
                raise RuntimeError("can't start new thread")
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", refuse)
        results = fetch_all([record(i) for i in ids], tmp_path, settings(stub_repo))
        assert [r.status for r in results] == [FetchStatus.TRANSPORT_ERROR] * 2
        assert all("can't start new thread" in r.detail for r in results)
        assert list(tmp_path.iterdir()) == []
        assert not [t for t in threading.enumerate() if t.name == "lexgrade-cache-writer"]

    def test_at_most_one_page_waits_for_the_writer(self, stub_repo, tmp_path, monkeypatch):
        ids = [f"3202{i}R000{i}" for i in range(4)]
        for doc_id in ids:
            stub_repo.pages[doc_id] = f"<p>{doc_id}</p>"
        release = threading.Event()
        extract = fetcher.extract_text_from_html

        def held(html):
            assert release.wait(timeout=10)
            return extract(html)

        monkeypatch.setattr(fetcher, "extract_text_from_html", held)
        results = []
        main = threading.Thread(target=lambda: results.extend(
            fetch_all([record(i) for i in ids], tmp_path, settings(stub_repo))
        ))
        main.start()
        try:
            deadline = time.monotonic() + 10
            while len(stub_repo.requests) < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            # Page 0 is held in the writer and page 1 waits to be handed over:
            # page 2 is not requested until page 0's write ends.
            time.sleep(0.3)
            assert len(stub_repo.requests) == 2
        finally:
            released_at = time.monotonic()
            release.set()
            main.join(timeout=10)
        assert not main.is_alive()
        assert [r.status for r in results] == [FetchStatus.FETCHED_FRESH] * 4
        assert stub_repo.requests[2][1] >= released_at

    def test_every_page_stored_under_short_switch_interval(self, stub_repo, tmp_path):
        ids = [f"320{i:02d}R{i:04d}" for i in range(40)]
        for doc_id in ids:
            stub_repo.pages[doc_id] = f"<p>{doc_id} &amp; text.</p>"
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = fetch_all([record(i) for i in ids], tmp_path, settings(stub_repo))
        finally:
            sys.setswitchinterval(interval)
        assert [r.status for r in results] == [FetchStatus.FETCHED_FRESH] * len(ids)
        assert [r.text_path.read_text(encoding="utf-8") for r in results] == [
            f"{doc_id} & text." for doc_id in ids
        ]
        assert all(json.loads((tmp_path / f"{i}.meta").read_text())["id"] == i for i in ids)

    def test_interrupt_after_handover_joins_writer(self, stub_repo, tmp_path, monkeypatch):
        ids = ["31995L0046", "32016R0679"]
        for doc_id in ids:
            stub_repo.pages[doc_id] = GDPR_HTML
        extract, fetch = fetcher.extract_text_from_html, fetcher.fetch_document
        monkeypatch.setattr(
            fetcher, "extract_text_from_html", lambda html: time.sleep(0.3) or extract(html)
        )
        calls = []

        def interrupted(*args, **kwargs):
            calls.append(args[0])
            if len(calls) == 2:
                raise KeyboardInterrupt
            return fetch(*args, **kwargs)

        monkeypatch.setattr(fetcher, "fetch_document", interrupted)
        with pytest.raises(KeyboardInterrupt):
            fetch_all([record(i) for i in ids], tmp_path, settings(stub_repo))
        assert not [t for t in threading.enumerate() if t.name == "lexgrade-cache-writer"]
        # The page handed over before the interrupt was written whole.
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "31995L0046.meta", "31995L0046.txt"
        ]

    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
    def test_cache_files_follow_umask(self, stub_repo, tmp_path, umask):
        stub_repo.pages["32016R0679"] = GDPR_HTML
        old = os.umask(umask)
        try:
            results = fetch_all([record("32016R0679")], tmp_path, settings(stub_repo))
        finally:
            os.umask(old)
        assert results[0].status is FetchStatus.FETCHED_FRESH
        modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
        assert modes == {"32016R0679.meta": 0o666 & ~umask, "32016R0679.txt": 0o666 & ~umask}

    @pytest.mark.parametrize(
        "base_url",
        [
            "eur-lex.europa.eu",
            "ftp://eur-lex.europa.eu",
            "https://",
            "file:///srv/eur-lex",
            "http://[::1",
        ],
    )
    def test_base_url_without_http_host_rejected(self, base_url):
        for build in BUILDS:
            with pytest.raises(LexgradeError, match=re.escape(f"'{base_url}'")):
                build(base_url=base_url)

    def test_retries_above_cap_rejected(self):
        for build in BUILDS:
            assert build(retries=MAX_RETRIES).retries == MAX_RETRIES
            with pytest.raises(LexgradeError, match=f"at most {MAX_RETRIES}, got 6"):
                build(retries=MAX_RETRIES + 1)

    def test_delay_above_a_day_rejected(self):
        # 10**12 ms waits about 31,700 years before the second request, and
        # 10**30 makes time.sleep raise OverflowError for every document.
        for build in BUILDS:
            assert build(delay_ms=86_400_000).delay_ms == 86_400_000
            for delay_ms in (86_400_001, 10**12, 10**30):
                with pytest.raises(LexgradeError, match=f"at most 86400000, got {delay_ms}"):
                    build(delay_ms=delay_ms)

    @pytest.mark.parametrize("field", ["delay_ms", "retries"])
    def test_negative_setting_rejected(self, field):
        for build in BUILDS:
            assert getattr(build(**{field: 0}), field) == 0
            with pytest.raises(
                LexgradeError, match=re.escape(f"{field} must be non-negative, got -1")
            ):
                build(**{field: -1})

    @pytest.mark.parametrize(
        "user_agent",
        ["", "   ", "bad\nua", "bad\r\nX-Injected: 1", "tab\tua", "nul\x00", "del\x7f",
         "caf\u00e9/1.0", "lexgrade \u20ac"],
    )
    def test_malformed_user_agent_rejected(self, user_agent):
        # http.client refuses a line break in a header value, and a character
        # outside Latin-1, on every request; a blank one names no sender.
        message = f"user_agent must be printable ASCII and not blank, got {user_agent!r}"
        for build in BUILDS:
            agent = "lexgrade-test/1.0 (stub)"
            assert build(user_agent=agent).user_agent == agent
            with pytest.raises(LexgradeError, match=re.escape(message)):
                build(user_agent=user_agent)

    @pytest.mark.parametrize("timeout_s", [-1, 0, math.nan, math.inf, -math.inf, 1e10])
    def test_timeout_outside_range_rejected(self, timeout_s):
        # Sockets refuse these (ValueError, OverflowError), or time out at
        # once (0), so every document would end as a TransportError.
        for build in BUILDS:
            assert build(timeout_s=0.5).timeout_s == 0.5
            assert build(timeout_s=86400).timeout_s == 86400
            with pytest.raises(
                LexgradeError, match=re.escape(f"timeout_s must be in (0, 86400], got {timeout_s}")
            ):
                build(timeout_s=timeout_s)

    def test_short_timeout_fetches(self, stub_repo, tmp_path):
        stub_repo.pages["32016R0679"] = "<p>Text.</p>"
        result = fetch_document("32016R0679", tmp_path, settings(stub_repo, timeout_s=0.5))
        assert result.status is FetchStatus.FETCHED_FRESH

    def test_zero_retries_is_one_attempt(self, stub_repo, tmp_path):
        stub_repo.pages["32016R0002"] = 503
        result = fetch_document("32016R0002", tmp_path, settings(stub_repo, retries=0))
        assert result.status is FetchStatus.TRANSPORT_ERROR
        url = celex_url("32016R0002", stub_repo.base_url)
        assert result.detail == f"1 attempts failed; last error: HTTP 503 at {url}"
        assert len(stub_repo.requests) == 1

    def test_settings_are_immutable(self):
        s = FetchSettings()
        # Not even object.__setattr__ gets past a field, and no attribute is added.
        for assign in (setattr, object.__setattr__):
            with pytest.raises(AttributeError):
                assign(s, "retries", MAX_RETRIES + 1)
        with pytest.raises(AttributeError):
            s.proxy = "http://proxy"
        assert s == FetchSettings()


def test_one_version_string():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    version = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["version"]
    assert version == lexgrade.__version__
    assert FetchSettings().user_agent.startswith(f"lexgrade/{version} ")
