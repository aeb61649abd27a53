"""Polite document retrieval from the EU law repository, with caching.

Documents are fetched one CELEX identifier at a time (no crawling), the
English HTML rendition by default. Every fetched text lands in an
on-disk cache (<id>.txt plus <id>.meta with the retrieval timestamp and
source URL); a cache hit needs both files and never touches the network,
so a fully cached manifest can be re-analyzed offline and reproducibly.

A hit also needs the .meta's source URL, when it names one, to be the
URL the current base URL gives, so a cache filled from a mirror or a stub
is fetched again rather than served as EUR-Lex. Its .txt and .meta are
removed before that request, so a failed refetch leaves no text behind.

Politeness defaults: one request at a time, 1000 ms between request
starts, 3 retries with exponential backoff, and an identifying
user-agent. At most MAX_CONCURRENCY fetches ever overlap, and at most
MAX_RETRIES (5) retries follow a failed request, so no backoff sleeps
longer than 2**(MAX_RETRIES-1) times the delay. The base URL
can be overridden, which is also how tests point the fetcher at a local
stub server; it must be http:// or https:// with a host.

HTTP goes through the standard library's urllib, with no third-party
client. Redirects are followed. The http_proxy, https_proxy and no_proxy
environment variables are honoured by urllib's ProxyHandler. TLS checks
certificates against the system CA store (SSL_CERT_FILE overrides it).
Every request carries http.client's Accept-Encoding: identity, so pages
arrive uncompressed, and opens its own connection: keep-alive is not
attempted. urllib.request, http.client, ssl and datetime are imported
only when a document misses the cache, so a fully cached fetch loads no
network stack; only a miss stamps retrieved_at.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
import threading
import time
import urllib.error
from enum import Enum
from html.parser import HTMLParser
from pathlib import Path
from typing import NamedTuple, Sequence
from urllib.parse import urlsplit

from . import __version__
from .corpus import DocumentRecord
from .errors import LexgradeError, MalformedCelexError

__all__ = [
    "DEFAULT_BASE_URL",
    "MAX_CONCURRENCY",
    "MAX_RETRIES",
    "FetchSettings",
    "FetchStatus",
    "FetchResult",
    "celex_url",
    "extract_text_from_html",
    "fetch_document",
    "fetch_all",
]

DEFAULT_BASE_URL = "https://eur-lex.europa.eu"

#: Upper bound on overlapping fetches (and so on fetch threads).
MAX_CONCURRENCY = 8

#: Upper bound on retries per document; each one doubles the backoff.
MAX_RETRIES = 5

_USER_AGENT = f"lexgrade/{__version__} (readability corpus fetcher)"

# sector digit, 4-digit year, 1-2 type letters, document number
_CELEX = re.compile(r"^[0-9]\d{4}[A-Z]{1,2}\d{1,5}$")


class _FetchFields(NamedTuple):
    base_url: str = DEFAULT_BASE_URL
    delay_ms: int = 1000
    concurrency: int = 1
    retries: int = 3
    timeout_s: float = 30.0
    user_agent: str = _USER_AGENT


class FetchSettings(_FetchFields):
    """Network and politeness configuration, checked whenever one is built."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> FetchSettings:
        self = super().__new__(cls, *args, **kwargs)
        try:
            parts = urlsplit(self.base_url)
        except ValueError:  # e.g. an unclosed IPv6 bracket
            parts = None
        if not (parts and parts.scheme in ("http", "https") and parts.hostname):
            raise LexgradeError(
                f"base URL must be http:// or https:// with a host, got '{self.base_url}'"
            )
        if self.concurrency > MAX_CONCURRENCY:
            raise LexgradeError(
                f"concurrency must be at most {MAX_CONCURRENCY}, got {self.concurrency}"
            )
        if self.retries > MAX_RETRIES:
            raise LexgradeError(
                f"retries must be at most {MAX_RETRIES}, got {self.retries}"
            )
        return self

    @classmethod
    def _make(cls, iterable) -> FetchSettings:
        # namedtuple's _make, which _replace calls, skips __new__.
        return cls(*iterable)


class FetchStatus(Enum):
    FETCHED_FRESH = "FetchedFresh"
    FROM_CACHE = "FromCache"
    NOT_FOUND = "NotFound"
    TRANSPORT_ERROR = "TransportError"


class FetchResult(NamedTuple):
    id: str
    status: FetchStatus
    text_path: Path | None = None
    retrieved_at: str | None = None
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status in (FetchStatus.FETCHED_FRESH, FetchStatus.FROM_CACHE)


def celex_url(celex_id: str, base_url: str = DEFAULT_BASE_URL) -> str:
    """URL of the English HTML rendition for a CELEX identifier."""
    if not _CELEX.fullmatch(celex_id):
        raise MalformedCelexError(
            f"'{celex_id}' is not a CELEX identifier "
            "(sector digit, 4-digit year, type letters, number)"
        )
    return f"{base_url.rstrip('/')}/legal-content/EN/TXT/HTML/?uri=CELEX:{celex_id}"


# Content inside these elements is navigation chrome, not document text.
_SKIP_TAGS = frozenset(
    {"script", "style", "head", "nav", "header", "footer", "noscript", "template"}
)
_BLOCK_TAGS = frozenset(
    {
        "p", "div", "br", "li", "ul", "ol", "tr", "table", "blockquote",
        "section", "article", "h1", "h2", "h3", "h4", "h5", "h6",
    }
)
# Table cells separate with a space, not a paragraph break.
_CELL_TAGS = frozenset({"td", "th"})


class _TextExtractor(HTMLParser):
    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self._paragraphs: list[str] = []
        self._chunks: list[str] = []
        self._skip_depth = 0

    def handle_starttag(self, tag, attrs):
        if tag in _SKIP_TAGS:
            self._skip_depth += 1
        elif tag in _BLOCK_TAGS:
            self._flush()
        elif tag in _CELL_TAGS:
            self._chunks.append(" ")

    def handle_endtag(self, tag):
        if tag in _SKIP_TAGS:
            self._skip_depth = max(0, self._skip_depth - 1)
        elif tag in _BLOCK_TAGS:
            self._flush()
        elif tag in _CELL_TAGS:
            self._chunks.append(" ")

    def handle_startendtag(self, tag, attrs):
        if tag in _BLOCK_TAGS:
            self._flush()

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


def extract_text_from_html(html: str) -> str:
    """Plain text of an HTML page, paragraphs separated by blank lines.

    Scripts, styles and navigation regions are dropped; character
    entities are decoded; malformed markup is handled leniently.
    """
    parser = _TextExtractor()
    parser.feed(html)
    parser.close()
    return parser.text()


class _RateLimiter:
    """Serializes request starts so consecutive starts are >= interval apart."""

    def __init__(self, interval_s: float) -> None:
        self._interval = interval_s
        self._lock = threading.Lock()
        self._next_start = 0.0

    def wait(self) -> None:
        with self._lock:
            now = time.monotonic()
            start = max(now, self._next_start)
            self._next_start = start + self._interval
        delay = start - now
        if delay > 0:
            time.sleep(delay)


def _atomic_write(path: Path, content: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def fetch_document(
    celex_id: str,
    cache_dir: str | Path,
    settings: FetchSettings = FetchSettings(),
    _limiter: _RateLimiter | None = None,
) -> FetchResult:
    """Fetch one document into the cache, or serve it from there.

    A malformed CELEX id raises MalformedCelexError before the cache is
    read. A cache hit (both <id>.txt and <id>.meta present, and no string
    source_url in the .meta other than this base URL's) returns FromCache
    with zero network activity. A cache entry from another source URL is
    deleted, text first. A miss performs one polite retrieval,
    extracts the text, and writes <id>.meta and then <id>.txt, each
    atomically, so an interrupted write never leaves a hit without its
    source. A page is decoded by the charset in its Content-Type, as UTF-8
    when it names none or one Python does not know. 404 yields NotFound;
    any other 4xx but 429 yields TransportError at once, any other status
    but 200 or a failed transport after the configured retries.
    """
    url = celex_url(celex_id, settings.base_url)
    cache_dir = Path(cache_dir)
    text_path = cache_dir / f"{celex_id}.txt"
    meta_path = cache_dir / f"{celex_id}.meta"

    if text_path.exists() and meta_path.exists():
        try:
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            meta = None
        if not isinstance(meta, dict):
            meta = {}
        source_url = meta.get("source_url")
        if not isinstance(source_url, str) or source_url == url:
            return FetchResult(
                id=celex_id,
                status=FetchStatus.FROM_CACHE,
                text_path=text_path,
                retrieved_at=meta.get("retrieved_at"),
            )
        # Another source's text must not outlive a failed refetch.
        text_path.unlink()
        meta_path.unlink()

    # Imported past the cache hit: together with ssl they are most of this
    # module's import time, and a hit makes no request or timestamp.
    import http.client
    import urllib.request
    from datetime import datetime, timezone

    cache_dir.mkdir(parents=True, exist_ok=True)
    limiter = _limiter or _RateLimiter(settings.delay_ms / 1000.0)
    request = urllib.request.Request(url, headers={"User-Agent": settings.user_agent})

    last_error = ""
    for attempt in range(settings.retries + 1):
        if attempt > 0:
            time.sleep((settings.delay_ms / 1000.0) * (2 ** (attempt - 1)))
        limiter.wait()
        try:
            with urllib.request.urlopen(request, timeout=settings.timeout_s) as response:
                status = response.status
                # urlopen raises on a status outside 2xx but returns a 204
                body = response.read() if status == 200 else b""
                charset = response.headers.get_content_charset() or "utf-8"
        except urllib.error.HTTPError as exc:
            exc.close()
            status = exc.code
        except (OSError, http.client.HTTPException) as exc:
            # timeouts, refused connections, a body cut short (IncompleteRead)
            last_error = str(exc)
            continue
        if status == 404:
            return FetchResult(
                id=celex_id, status=FetchStatus.NOT_FOUND, detail=f"404 at {url}"
            )
        if status != 200:
            last_error = f"HTTP {status} at {url}"
            # A client error repeats on retry; 429 asks for one.
            if 400 <= status < 500 and status != 429:
                break
            continue
        try:
            html = body.decode(charset, errors="replace")
        except LookupError:  # a charset name Python does not know
            html = body.decode("utf-8", errors="replace")

        retrieved_at = datetime.now(timezone.utc).isoformat()
        _atomic_write(
            meta_path,
            json.dumps(
                {
                    "id": celex_id,
                    "source_url": url,
                    "rendition": "HTML, English, non-consolidated",
                    "retrieved_at": retrieved_at,
                },
                indent=2,
            )
            + "\n",
        )
        _atomic_write(text_path, extract_text_from_html(html))
        return FetchResult(
            id=celex_id,
            status=FetchStatus.FETCHED_FRESH,
            text_path=text_path,
            retrieved_at=retrieved_at,
        )

    return FetchResult(
        id=celex_id,
        status=FetchStatus.TRANSPORT_ERROR,
        detail=f"{attempt + 1} attempts failed; last error: {last_error}",
    )


def fetch_all(
    records: Sequence[DocumentRecord],
    cache_dir: str | Path,
    settings: FetchSettings = FetchSettings(),
) -> list[FetchResult]:
    """Fetch every manifest record, order preserved.

    Per-document problems are surfaced in the result statuses, never
    raised. Fetches may overlap up to settings.concurrency; starts are
    still spaced by the politeness delay.
    """
    limiter = _RateLimiter(settings.delay_ms / 1000.0)

    def one(record: DocumentRecord) -> FetchResult:
        try:
            return fetch_document(record.id, cache_dir, settings, _limiter=limiter)
        except Exception as exc:  # malformed ids, unwritable cache, ...
            return FetchResult(
                id=record.id, status=FetchStatus.TRANSPORT_ERROR, detail=str(exc)
            )

    if settings.concurrency <= 1 or len(records) <= 1:
        return [one(record) for record in records]

    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=settings.concurrency) as pool:
        return list(pool.map(one, records))
