from __future__ import annotations

import contextlib
import io
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qs, urlparse

import pytest

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture
def data_dir() -> Path:
    return DATA_DIR


@dataclass
class Reply:
    """A scripted answer: status, raw body and headers, sent as given.

    content_length, when set, is the Content-Length sent in place of the
    body's real length; a larger value makes a truncated body.
    """

    status: int = 200
    body: bytes = b""
    headers: dict[str, str] = field(default_factory=dict)
    content_length: int | None = None


class StubRepository:
    """In-memory stand-in for the law repository, recording every request.

    pages maps a CELEX id to an HTML string, to an int status code to
    simulate failures, or to a Reply for anything else (extra headers,
    redirects, other encodings, truncated bodies). Unknown ids get a 404.
    HTML strings are sent as UTF-8 under content_type; set it without a
    charset to test decoding.

    active counts requests whose reply is not yet complete, and max_active
    its peak. A request stops counting before the last byte of its reply
    (of the headers, for a reply without a body) goes out, so a client
    that waits for each reply never overlaps its next request with it.
    hold_s delays that last byte, keeping each request active longer.
    """

    def __init__(self) -> None:
        self.pages: dict[str, str | int | Reply] = {}
        self.content_type = "text/html; charset=utf-8"
        self.requests: list[tuple[str, float]] = []
        self.user_agents: list[str | None] = []
        self.base_url = ""
        self._lock = threading.Lock()
        self.active = 0
        self.max_active = 0
        self.hold_s = 0.0

    def record(self, path: str, user_agent: str | None) -> None:
        with self._lock:
            self.requests.append((path, time.monotonic()))
            self.user_agents.append(user_agent)
            self.active += 1
            self.max_active = max(self.max_active, self.active)

    def release(self) -> None:
        with self._lock:
            self.active -= 1

    def request_gaps(self) -> list[float]:
        times = [t for _, t in self.requests]
        return [b - a for a, b in zip(times, times[1:])]


def _make_handler(stub: StubRepository):
    class Handler(BaseHTTPRequestHandler):
        def do_GET(self):
            stub.record(self.path, self.headers.get("User-Agent"))
            # Compose the whole reply, send all but its last byte, wait
            # hold_s, stop counting, and only then send the last byte.
            wfile, self.wfile = self.wfile, io.BytesIO()
            try:
                self._compose()
                reply = self.wfile.getvalue()
                wfile.write(reply[:-1])
                wfile.flush()
                time.sleep(stub.hold_s)
            finally:
                self.wfile = wfile
                stub.release()
            wfile.write(reply[-1:])

        def _compose(self):
            query = parse_qs(urlparse(self.path).query)
            uri = query.get("uri", [""])[0]
            celex_id = uri.removeprefix("CELEX:")
            page = stub.pages.get(celex_id, 404)
            if isinstance(page, int):
                self.send_response(page)
                self.end_headers()
                return
            if isinstance(page, str):
                body = page.encode("utf-8")
                page = Reply(body=body, headers={"Content-Type": stub.content_type})
            self.send_response(page.status)
            for name, value in page.headers.items():
                self.send_header(name, value)
            length = page.content_length
            self.send_header(
                "Content-Length", str(len(page.body) if length is None else length)
            )
            self.end_headers()
            self.wfile.write(page.body)

        def log_message(self, *args):
            pass

    return Handler


@contextlib.contextmanager
def _serving():
    stub = StubRepository()
    server = ThreadingHTTPServer(("127.0.0.1", 0), _make_handler(stub))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    stub.base_url = f"http://127.0.0.1:{server.server_address[1]}"
    try:
        yield stub
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


@pytest.fixture
def stub_repo():
    with _serving() as stub:
        yield stub


@pytest.fixture
def mirror_repo():
    """A second stub repository, independent of stub_repo, at its own URL."""
    with _serving() as stub:
        yield stub
