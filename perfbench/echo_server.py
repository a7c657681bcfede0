"""A canned-answer HTTP server: the serve workloads' host-speed gauge.

Usage: ``python perfbench/echo_server.py STATUS_JSON RESULTS_JSON``.

It speaks the part of the ``repro serve`` API a cache hit uses, through the
same stdlib server classes: ``POST /runs`` parses the request body and
answers with the bytes of ``STATUS_JSON`` (a ``done``, ``cached`` status),
``GET /runs/<id>/results`` with those of ``RESULTS_JSON``, and ``GET
/healthz`` with a fixed object.  A hit on it is HTTP, JSON and client work
without any of the program's own, so its time follows only the host's speed.
It prints ``listening on <url>`` like ``repro serve`` and stops on SIGINT.
"""

from __future__ import annotations

import json
import sys
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def log_message(self, format: str, *args: object) -> None:
        pass

    def _send(self, body: bytes) -> None:
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        if self.path.endswith("/results"):
            self._send(self.server.results)  # type: ignore[attr-defined]
        else:
            self._send(b'{"ok": true}\n')

    def do_POST(self) -> None:  # noqa: N802
        length = int(self.headers.get("Content-Length") or 0)
        json.loads(self.rfile.read(length))
        self._send(self.server.status)  # type: ignore[attr-defined]


def main(argv: list[str]) -> int:
    status_path, results_path = argv
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    httpd.daemon_threads = True
    httpd.status = Path(status_path).read_bytes()  # type: ignore[attr-defined]
    httpd.results = Path(results_path).read_bytes()  # type: ignore[attr-defined]
    print(f"listening on http://127.0.0.1:{httpd.server_address[1]}", flush=True)
    try:
        httpd.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        httpd.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
