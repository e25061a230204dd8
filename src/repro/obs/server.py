"""Live Prometheus scrape endpoint over the stdlib HTTP server.

The exporter already speaks the Prometheus text exposition format
(:func:`~repro.obs.export.prometheus_text`); this module serves it over
HTTP so a live process can be scraped *while it executes*.  The server
owns no metric state — it calls a ``provider`` callable on every
request, so the caller decides what "current" means.
``repro-experiments serve --metrics-port`` serves the serving plane's
registry, rendered afresh per request, through this class.

Stdlib only (``http.server``), binds 127.0.0.1 by default, port 0 picks
a free port.  Request handling runs on daemon threads and never touches
the measured system — the provider reads snapshots, so a scrape cannot
perturb in-flight work.
"""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

#: The Prometheus text exposition content type.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class MetricsServer:
    """Serves ``provider()`` at ``/metrics`` (and ``/``) until stopped.

    Also exposes the two conventional probe endpoints: ``/healthz``
    answers 200 whenever the server is up (liveness), ``/readyz``
    answers 503 until the first successful provider render — or an
    explicit :meth:`mark_ready` — and 200 afterwards (readiness).  The
    serving plane reuses this as its health surface.
    """

    def __init__(self, provider, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.provider = provider
        self.host = host
        self.port = port
        self.ready = False
        self._httpd: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    def mark_ready(self) -> None:
        """Flip ``/readyz`` to 200 without waiting for a scrape."""
        self.ready = True

    # ------------------------------------------------------------------
    def start(self) -> "MetricsServer":
        if self._httpd is not None:
            raise RuntimeError("server is already running")
        server = self

        class Handler(BaseHTTPRequestHandler):
            def _send_text(self, status: int, text: str) -> None:
                body = text.encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type",
                                 "text/plain; charset=utf-8")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def do_GET(self):  # noqa: N802 (stdlib handler casing)
                if self.path == "/healthz":
                    self._send_text(200, "ok\n")
                    return
                if self.path == "/readyz":
                    if server.ready:
                        self._send_text(200, "ready\n")
                    else:
                        self._send_text(503, "not ready\n")
                    return
                if self.path not in ("/metrics", "/"):
                    self.send_error(
                        404, "only /metrics, /healthz, /readyz are served")
                    return
                try:
                    body = server.provider().encode("utf-8")
                except Exception as exc:  # provider bug, not transport
                    self.send_error(500, f"provider failed: {exc}")
                    return
                server.ready = True
                self.send_response(200)
                self.send_header("Content-Type", CONTENT_TYPE)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args) -> None:
                """Silence per-request stderr logging."""

        self._httpd = ThreadingHTTPServer((self.host, self.port), Handler)
        self._httpd.daemon_threads = True
        self.host, self.port = self._httpd.server_address[:2]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="metrics-server",
            daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        httpd = self._httpd
        if httpd is None:
            return
        self._httpd = None
        httpd.shutdown()
        httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    # ------------------------------------------------------------------
    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}/metrics"

    def probe(self, path: str, timeout: float = 5.0) -> tuple[int, str]:
        """GET an arbitrary path; returns ``(status, body)`` even on
        error statuses (``/readyz`` legitimately answers 503)."""
        import urllib.error
        import urllib.request

        url = f"http://{self.host}:{self.port}{path}"
        try:
            with urllib.request.urlopen(url, timeout=timeout) as response:
                return response.status, response.read().decode("utf-8")
        except urllib.error.HTTPError as exc:
            return exc.code, exc.read().decode("utf-8", "replace")

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
