"""Stub EUR-Lex server for the benchmark, run as its own process.

    python3 bench/stub_server.py PAGES_DIR

Serves PAGES_DIR/<celex>.html at the document URL the fetcher builds.
PAGES_DIR/plan.json lists ids that answer 404 ("not_found") and ids
that answer one 502 before their page ("flaky"); unknown ids get 404.
The bound port is printed as the first line of stdout. The server stops
when its standard input closes.

Control endpoints, used by the benchmark between repetitions:
GET /__counters returns the request and byte counts as JSON and
resets them, together with the flaky ids' first-failure state.
"""

from __future__ import annotations

import json
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qs, urlparse


class Repository:
    def __init__(self, pages: Path) -> None:
        plan = json.loads((pages / "plan.json").read_text(encoding="utf-8"))
        self.pages = pages
        self.not_found = frozenset(plan["not_found"])
        self.flaky = frozenset(plan["flaky"])
        self._lock = threading.Lock()
        self._reset()

    def _reset(self) -> None:
        self.requests = 0
        self.bytes = 0
        self.by_status: dict[str, int] = {}
        self.failed_once: set[str] = set()

    def answer(self, celex: str) -> tuple[int, bytes]:
        with self._lock:
            self.requests += 1
            if celex in self.flaky and celex not in self.failed_once:
                self.failed_once.add(celex)
                status = 502
            elif celex in self.not_found:
                status = 404
            else:
                status = 200
        body = b"<html><body><h1>Not found</h1></body></html>"
        if status == 200:
            path = self.pages / f"{celex}.html"
            if path.is_file():
                body = path.read_bytes()
            else:
                status = 404
        elif status == 502:
            body = b"<html><body><h1>Bad gateway</h1></body></html>"
        with self._lock:
            self.bytes += len(body) if status == 200 else 0
            self.by_status[str(status)] = self.by_status.get(str(status), 0) + 1
        return status, body

    def take_counters(self) -> dict:
        with self._lock:
            counters = {"requests": self.requests, "bytes": self.bytes,
                        "by_status": dict(self.by_status)}
            self._reset()
        return counters


def make_handler(repo: Repository):
    class Handler(BaseHTTPRequestHandler):
        def do_GET(self):
            url = urlparse(self.path)
            if url.path == "/__counters":
                self._send(200, json.dumps(repo.take_counters()).encode(),
                           "application/json")
                return
            uri = parse_qs(url.query).get("uri", [""])[0]
            status, body = repo.answer(uri.removeprefix("CELEX:"))
            self._send(status, body, "text/html; charset=utf-8")

        def _send(self, status: int, body: bytes, content_type: str) -> None:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    return Handler


def main(argv: list[str]) -> int:
    repo = Repository(Path(argv[0]))
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(repo))
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever)
    thread.start()
    print(server.server_address[1], flush=True)
    try:
        sys.stdin.read()  # until the benchmark closes our stdin
    finally:
        server.shutdown()
        thread.join()
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
