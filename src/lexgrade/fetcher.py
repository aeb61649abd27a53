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

Requests always go one at a time. Politeness defaults: 1000 ms between
request starts, 3 retries with exponential backoff, and an identifying
user-agent. At most MAX_RETRIES (5) retries follow a failed request, so
no backoff sleeps longer than 2**(MAX_RETRIES-1) times the delay. A
Retry-After of delta-seconds on a 429 or 503 lengthens the next wait up
to that same bound; an HTTP-date or any other value is ignored. The base
URL can be overridden, which is also how tests point the fetcher at a
local stub server; it must be http:// or https:// with a host.

Writing a fresh page to the cache (extracting its text, then the two
atomic writes) overlaps the next request: one writer thread, started at
the first miss, stores each page while the main thread makes the next
request, which still starts no sooner than the delay allows. At most
one page waits for the writer. A fetch interrupted after a handover
still waits for that write to end, so it leaves no temporary file and
no .txt without its .meta. Cache files are made as open() makes them
and follow the umask. A fully cached fetch starts no thread.

HTTP goes through the standard library's urllib, with no third-party
client. Redirects are followed. The http_proxy, https_proxy and no_proxy
environment variables are honoured by urllib's ProxyHandler. TLS checks
certificates against the system CA store (SSL_CERT_FILE overrides it).
Every request carries http.client's Accept-Encoding: identity, so pages
arrive uncompressed, and opens its own connection: keep-alive is not
attempted. urllib.request, http.client, ssl and datetime are imported
only when a document misses the cache, so a fully cached fetch loads no
network stack; only a miss stamps retrieved_at. The text scan's html
module and pattern also wait for a miss, and html.parser for a page the
scan leaves to it.

A fetched page's text comes from one regular-expression scan over markup
that every html.parser since Python 3.10 reads alike: tags whose
attributes are separated by ASCII whitespace, comments without "--"
inside, a doctype, a <title> holding no markup, and whole script and
style elements. A page holding any other markup, or a character the scan
uses as a mark, is read with html.parser instead, which gives the same
text (see extract_text_from_html). Text inside head, nav, header, footer,
noscript, template, script and style is dropped; a <body> start tag ends
every such region, so a page that omits </head> keeps its text.
"""

from __future__ import annotations

import functools
import json
import os
import re
import threading
import time
import urllib.error
from enum import Enum
from pathlib import Path
from typing import Callable, NamedTuple, Sequence
from urllib.parse import urlsplit

from . import __version__
from .corpus import DocumentRecord
from .errors import LexgradeError, MalformedCelexError

__all__ = [
    "DEFAULT_BASE_URL",
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

#: Upper bound on retries per document; each one doubles the backoff.
MAX_RETRIES = 5

_USER_AGENT = f"lexgrade/{__version__} (readability corpus fetcher)"

# sector digit, 4-digit year, 1-2 type letters, document number
_CELEX = re.compile("[0-9]{5}[A-Z]{1,2}[0-9]{1,5}")


class _FetchFields(NamedTuple):
    base_url: str = DEFAULT_BASE_URL
    delay_ms: int = 1000
    retries: int = 3
    timeout_s: float = 30.0
    user_agent: str = _USER_AGENT


class FetchSettings(_FetchFields):
    """Network and politeness configuration, checked whenever one is built.

    delay_ms and retries must be non-negative; retries is capped at
    MAX_RETRIES, delay_ms at a day. timeout_s must be more than 0 and at
    most a day, which every platform's sockets take. user_agent must be
    printable ASCII and not blank, so that every request can send it and
    names its sender.
    """

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
        for field, cap in ("delay_ms", 86_400_000), ("retries", MAX_RETRIES):
            value = getattr(self, field)
            if value < 0:
                raise LexgradeError(f"{field} must be non-negative, got {value}")
            if value > cap:
                raise LexgradeError(f"{field} must be at most {cap}, got {value}")
        if not 0 < self.timeout_s <= 86400:  # NaN fails too
            raise LexgradeError(f"timeout_s must be in (0, 86400], got {self.timeout_s}")
        agent = self.user_agent
        if not (agent.isascii() and agent.isprintable() and agent.strip()):
            raise LexgradeError(f"user_agent must be printable ASCII and not blank, got {agent!r}")
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


# What a tag does to the text around it: text inside a skip element is
# navigation chrome, not document text; a block tag ends a paragraph; a table
# cell separates words with a space, not a paragraph break; and a <body> start
# tag closes every open skip element, since a page may omit </head>. Each
# effect is a mark. The scan writes the marks into the page's text and applies
# them all at once; the html.parser fallback applies them one event at a time.
# html.unescape turns a reference to any mark character into "", and no entity
# name holds one. The cell mark is whitespace to str.split().
_SEP, _BREAK, _CELL, _SKIP = "\x01", "\x02", "\x1f", "\x03"
_OPEN, _CLOSE, _BODY = _SKIP + "+", _SKIP + "-", _SKIP + "0"
_SKIP_TAGS = ("script", "style", "head", "nav", "header", "footer", "noscript", "template")
_BLOCK_TAGS = (
    "p", "div", "br", "li", "ul", "ol", "tr", "table", "blockquote",
    "section", "article", "h1", "h2", "h3", "h4", "h5", "h6",
)
_CELL_TAGS = ("td", "th")
_EMPTY_MARKS = dict.fromkeys(_BLOCK_TAGS, _BREAK)  # self-closing, as <br/>
_START_MARKS = {**_EMPTY_MARKS, **dict.fromkeys(_CELL_TAGS, _CELL),
                **dict.fromkeys(_SKIP_TAGS, _OPEN), "body": _BODY}
_END_MARKS = {**_EMPTY_MARKS, **dict.fromkeys(_CELL_TAGS, _CELL),
              **dict.fromkeys(_SKIP_TAGS, _CLOSE)}

# Elements whose content some html.parser version reads as raw text. A start
# tag of one that the scan did not read whole sends the page to html.parser.
_RAW_TEXT = frozenset({"script", "style", "title", "textarea", "xmp", "iframe",
                       "noembed", "noframes", "plaintext"})

# The markup the scan reads, all of it parsed alike by every html.parser since
# Python 3.10; older versions also split tags at \v and at non-ASCII spaces.
# A bare attribute value must not run into "/>", which html.parser reads as
# part of the value. Script and style elements are read whole; each attempt
# stops at the next "<s" or "</s", before any end tag a version could take
# for theirs ("</ \u017fcript" under Unicode case rules). Group 1 is a tag's
# name, after "/" for an end tag; group 2 is "/" for a self-closing tag.
_WS = r"[\t\n\r\f ]"
_NAME = r"[a-zA-Z][a-zA-Z0-9]*"
_ATTRS = (
    rf"(?:{_WS}+[a-zA-Z_:][-a-zA-Z0-9_:.]*"
    r"""(?:=(?:"[^"]*"|'[^']*'|[-a-zA-Z0-9_.:#%]+(?!/)))?)*"""
)
_RAW = r"[^<]*(?:<(?!/?\s*[sS\u017f])[^<]*)*"
_HIDDEN = f"[^{_BREAK}{_CELL}]+"
_MARKUP = (
    rf"<(?:(?ai:script){_ATTRS}{_WS}*>{_RAW}</(?ai:script)>"
    rf"|(?ai:style){_ATTRS}{_WS}*>{_RAW}</(?ai:style)>"
    rf"|(?ai:title){_ATTRS}{_WS}*>(?=[^<]*</(?ai:title){_WS}*>)"
    rf"|(/{_NAME}(?={_WS}*>)|{_NAME}){_ATTRS}{_WS}*(/?)>"
    r"|!--(?!-?>)[^-]*(?:-[^-]+)*-->"
    r"|!(?ai:doctype)[^<>]*>)"
)


def _tag_mark(tag: tuple[str | None, str | None]) -> str:
    """The mark for one token of the scan, from its two groups.

    A start tag of a raw-text element gets "<", so that the page goes to
    the fallback as one holding a stray "<".
    """
    name, slash = tag
    if name is None:  # comment, doctype, script or style element, <title>
        return _SEP
    name = name.lower()
    if name[0] == "/":
        return _END_MARKS.get(name[1:], _SEP)
    if slash:
        return _EMPTY_MARKS.get(name, _SEP)
    if name in _RAW_TEXT:
        return "<"
    return _START_MARKS.get(name, _SEP)


def _scan_text(page: str) -> str | None:
    """The text of a page read with one scan, or None if it holds markup
    the scan does not read or a mark character."""
    if _SEP in page or _BREAK in page or _CELL in page or _SKIP in page:
        return None
    from html import unescape

    # Text, group 1 and group 2 repeat; each token's groups become its mark.
    parts = re.compile(_MARKUP).split(page)
    tags = list(zip(parts[1::3], parts[2::3]))
    marks = {tag: _tag_mark(tag) for tag in set(tags)}
    parts[1::3] = map(marks.__getitem__, tags)
    del parts[2::3]
    marked = "".join(parts)
    if "<" in marked:
        return None
    # The marks split the text where html.parser's data events end, and no
    # character reference reaches across one, so one unescape call does
    # what html.parser does to each piece of text.
    pieces = unescape(marked).split(_SKIP)
    depth = 0
    for i in range(1, len(pieces)):
        piece = pieces[i]
        mark = _SKIP + piece[0]
        depth = depth + 1 if mark == _OPEN else 0 if mark == _BODY else max(depth - 1, 0)
        # Hidden text still keeps its paragraph breaks and cell spaces.
        pieces[i] = re.sub(_HIDDEN, "", piece) if depth else piece[1:]
    text = "".join(pieces).replace(_SEP, "")
    paragraphs = " ".join(text.split()).split(_BREAK)
    return "\n\n".join(filter(None, map(str.strip, paragraphs)))


class _TextExtractor:
    """Paragraphs from html.parser's events; _parse_text mixes it into
    html.parser.HTMLParser."""

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


def _parse_text(html: str) -> str:
    """The text of a page read with html.parser: the fallback of
    extract_text_from_html and the reference its scan must equal."""
    from html.parser import HTMLParser

    parser = type("_Parser", (_TextExtractor, HTMLParser), {})()
    parser.feed(html)
    parser.close()
    return parser.text()


def extract_text_from_html(html: str) -> str:
    """Plain text of an HTML page, paragraphs separated by blank lines.

    Scripts, styles and navigation regions are dropped; character
    entities are decoded; malformed markup is handled leniently. A <body>
    start tag ends every skipped region, so a page without </head> keeps
    its text.

    One regular-expression scan reads start, end and self-closing tags
    whose attributes are separated by ASCII whitespace, comments without
    "--" inside, a doctype, a <title> holding no markup, and script and
    style elements, each taken whole up to its end tag. A page holding
    any other markup (a stray "<", "<?", "<!x>", "</>", an end tag with
    attributes, an unterminated construct, script or style text holding
    "<s" or "</s") or one of the control characters the scan marks tags
    with is read by html.parser instead. Both readings give the same text.
    """
    text = _scan_text(html)
    return _parse_text(html) if text is None else text


class _RateLimiter:
    """Spaces request starts so consecutive starts are >= interval apart."""

    def __init__(self, interval_s: float) -> None:
        self._interval = interval_s
        self._next_start = 0.0

    def wait(self) -> None:
        now = time.monotonic()
        start = max(now, self._next_start)
        self._next_start = start + self._interval
        delay = start - now
        if delay > 0:
            time.sleep(delay)


def _retry_after(value: str | None, cap_s: float) -> float:
    """Seconds a delta-seconds Retry-After value asks for, at most cap_s; else 0.0."""
    value = (value or "").strip()
    if not (value.isascii() and value.isdigit()):
        return 0.0
    # float, not int: a value of thousands of digits is inf rather than an error.
    return min(float(value), cap_s)


def _atomic_write(path: Path, content: str) -> None:
    """Replace path with content through a new file beside it.

    The new file is made with mode 0o666, as open() makes one, so cache
    files follow the umask; tempfile.mkstemp would make them 0o600.
    """
    while True:
        tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            pass
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _store_page(meta_path: Path, meta: str, text_path: Path, html: str) -> None:
    """Write a fetched page's .meta, then its text, each atomically, so an
    interrupted write never leaves a hit without its source."""
    _atomic_write(meta_path, meta)
    _atomic_write(text_path, extract_text_from_html(html))


class _PageWriter:
    """Stores fetched pages on one thread while the next request runs.

    hand() first waits until the page handed before has been stored, so
    at most one page ever waits. close() lets the thread store that page
    and waits for it to end. failures maps the key of each page that
    could not be stored to the reason.
    """

    def __init__(self) -> None:
        self.failures: dict[int, str] = {}
        self._page: tuple | None = None  # set from hand() until stored
        self._closed = False
        self._changed = threading.Condition()
        self._thread: threading.Thread | None = None

    def hand(self, key: int, *page) -> None:
        if self._thread is None:
            # Started before a page is handed over: if it cannot start, no
            # page waits for it.
            thread = threading.Thread(
                target=self._run, name="lexgrade-cache-writer", daemon=True
            )
            thread.start()
            self._thread = thread
        with self._changed:
            self._changed.wait_for(lambda: self._page is None)
            self._page = (key, page)
            self._changed.notify()

    def close(self) -> None:
        with self._changed:
            self._closed = True
            self._changed.notify()
        if self._thread is not None:
            self._thread.join()

    def _run(self) -> None:
        while True:
            with self._changed:
                self._changed.wait_for(lambda: self._page is not None or self._closed)
                if self._page is None:
                    return
                key, page = self._page
            try:
                _store_page(*page)
            except Exception as exc:  # unwritable cache, ...
                self.failures[key] = str(exc)
            finally:
                with self._changed:
                    self._page = None
                    self._changed.notify()


def fetch_document(
    celex_id: str,
    cache_dir: str | Path,
    settings: FetchSettings = FetchSettings(),
    _limiter: _RateLimiter | None = None,
    _store: Callable[[Path, str, Path, str], None] = _store_page,
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
    but 200 or a failed transport after the configured retries. Each retry
    waits the exponential backoff, or longer when a 429 or 503 asked for
    more with a delta-seconds Retry-After (at most the largest backoff).
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
    delay_s = settings.delay_ms / 1000.0
    limiter = _limiter or _RateLimiter(delay_s)
    request = urllib.request.Request(url, headers={"User-Agent": settings.user_agent})

    last_error, asked_s = "", 0.0
    for attempt in range(settings.retries + 1):
        if attempt > 0:
            time.sleep(max(delay_s * 2 ** (attempt - 1), asked_s))
        limiter.wait()
        asked_s = 0.0
        try:
            with urllib.request.urlopen(request, timeout=settings.timeout_s) as response:
                status = response.status
                # urlopen raises on a status outside 2xx but returns a 204
                body = response.read() if status == 200 else b""
                charset = response.headers.get_content_charset() or "utf-8"
        except urllib.error.HTTPError as exc:
            exc.close()
            status = exc.code
            if status in (429, 503):
                cap_s = delay_s * 2 ** (MAX_RETRIES - 1)
                asked_s = _retry_after(exc.headers.get("Retry-After"), cap_s)
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
        meta = {
            "id": celex_id,
            "source_url": url,
            "rendition": "HTML, English, non-consolidated",
            "retrieved_at": retrieved_at,
        }
        _store(meta_path, json.dumps(meta, indent=2) + "\n", text_path, html)
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
    raised. Requests go one at a time, their starts spaced by the
    politeness delay.

    Each fresh page's text is extracted and written to the cache on one
    writer thread while the main thread makes the next request. Before
    handing over a page it waits for the previous page's write, so at
    most one page waits.
    A write that fails makes that document's result a TransportError.
    The writer finishes its page before fetch_all returns or raises, so
    an interrupt leaves no temporary file; a second interrupt during that
    wait may.
    """
    limiter = _RateLimiter(settings.delay_ms / 1000.0)

    def one(record: DocumentRecord, store) -> FetchResult:
        try:
            return fetch_document(
                record.id, cache_dir, settings, _limiter=limiter, _store=store
            )
        except Exception as exc:  # malformed ids, unwritable cache, ...
            return FetchResult(
                id=record.id, status=FetchStatus.TRANSPORT_ERROR, detail=str(exc)
            )

    writer = _PageWriter()
    try:
        results = [
            one(record, functools.partial(writer.hand, i))
            for i, record in enumerate(records)
        ]
    finally:
        writer.close()
    for i, detail in writer.failures.items():
        results[i] = FetchResult(
            id=results[i].id, status=FetchStatus.TRANSPORT_ERROR, detail=detail
        )
    return results
