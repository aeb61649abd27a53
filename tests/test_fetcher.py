from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

import lexgrade
from conftest import Reply
from lexgrade.corpus import DocType, Domain, DocumentRecord
from lexgrade.errors import LexgradeError, MalformedCelexError
from lexgrade.fetcher import (
    MAX_CONCURRENCY,
    MAX_RETRIES,
    FetchSettings,
    FetchStatus,
    celex_url,
    extract_text_from_html,
    fetch_all,
    fetch_document,
)

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

    @pytest.mark.parametrize("bad", ["GDPR", "3201R0679", "32016r0679", "32016R"])
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

    def _fetch_held(self, stub_repo, tmp_path, concurrency):
        # Each reply is held open 50 ms, so requests a fetcher runs side by
        # side overlap at the stub, and one run after another never do.
        stub_repo.hold_s = 0.05
        for i in range(4):
            stub_repo.pages[f"3202{i}R000{i}"] = f"<p>Doc {i}.</p>"
        records = [record(f"3202{i}R000{i}") for i in range(4)]
        fetch_all(records, tmp_path, settings(stub_repo, concurrency=concurrency))

    def test_concurrency_limit_respected(self, stub_repo, tmp_path):
        self._fetch_held(stub_repo, tmp_path, concurrency=1)
        assert stub_repo.max_active == 1

    def test_concurrent_requests_seen_overlapping(self, stub_repo, tmp_path):
        # The check above could not catch a fetcher that overlaps requests
        # if the stub failed to see overlap.
        self._fetch_held(stub_repo, tmp_path, concurrency=4)
        assert stub_repo.max_active > 1

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

    def test_concurrency_above_cap_rejected(self):
        for build in BUILDS:
            assert build(concurrency=MAX_CONCURRENCY).concurrency == MAX_CONCURRENCY
            with pytest.raises(LexgradeError, match="at most"):
                build(concurrency=MAX_CONCURRENCY + 1)

    def test_retries_above_cap_rejected(self):
        for build in BUILDS:
            assert build(retries=MAX_RETRIES).retries == MAX_RETRIES
            with pytest.raises(LexgradeError, match=f"at most {MAX_RETRIES}, got 6"):
                build(retries=MAX_RETRIES + 1)

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
