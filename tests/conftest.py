from __future__ import annotations

import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qs, urlparse

import pytest

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture
def data_dir() -> Path:
    return DATA_DIR


class StubRepository:
    """In-memory stand-in for the law repository, recording every request.

    pages maps a CELEX id to an HTML string, or to an int status code to
    simulate failures. Unknown ids get a 404. Pages are sent as UTF-8
    under content_type; set it without a charset to test decoding.
    """

    def __init__(self) -> None:
        self.pages: dict[str, str | int] = {}
        self.content_type = "text/html; charset=utf-8"
        self.requests: list[tuple[str, float]] = []
        self.base_url = ""
        self._lock = threading.Lock()
        self.active = 0
        self.max_active = 0

    def record(self, path: str) -> None:
        with self._lock:
            self.requests.append((path, time.monotonic()))
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
            stub.record(self.path)
            try:
                query = parse_qs(urlparse(self.path).query)
                uri = query.get("uri", [""])[0]
                celex_id = uri.removeprefix("CELEX:")
                page = stub.pages.get(celex_id, 404)
                if isinstance(page, int):
                    self.send_response(page)
                    self.end_headers()
                    return
                body = page.encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Type", stub.content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)
            finally:
                stub.release()

        def log_message(self, *args):
            pass

    return Handler


@pytest.fixture
def stub_repo():
    stub = StubRepository()
    server = ThreadingHTTPServer(("127.0.0.1", 0), _make_handler(stub))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    stub.base_url = f"http://127.0.0.1:{server.server_address[1]}"
    yield stub
    server.shutdown()
    thread.join(timeout=5)
