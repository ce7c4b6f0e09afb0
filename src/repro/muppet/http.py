"""HTTP slate reads (Section 4.4) over a :class:`LocalMuppet` runtime.

"Muppet provides a small HTTP server on each node for slate fetches. The
URI of a slate fetch includes the name of the updater and the key of the
slate to uniquely identify a slate. The fetch retrieves the slate from
Muppet's slate cache ... rather than from the durable key-value store to
ensure an up-to-date reply."

Endpoints:

* ``GET /slate/<updater>/<key>`` — the live slate (cache-first), JSON.
* ``GET /slates/<updater>`` — all cached slates of an updater.
* ``GET /bulk/<updater>/<key>`` — the *store* copy, bypassing the cache;
  exists so bench E13 can demonstrate why cache-first reads matter (the
  store copy lags by up to one flush interval).
* ``GET /status`` — queue depths and counters, like Muppet 2.0's status
  endpoint ("the event count of the largest event queues", Section 4.5).
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Optional, Tuple
from urllib.parse import unquote

from repro.muppet.local import LocalMuppet
from repro.slates.codec import DEFAULT_CODEC


class _SlateRequestHandler(BaseHTTPRequestHandler):
    """Routes slate-fetch URIs to the runtime. One instance per request."""

    #: Injected by :class:`SlateHTTPServer` at server construction.
    runtime: LocalMuppet

    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        try:
            status, payload = self._route()
        except Exception as exc:  # pragma: no cover - defensive
            status, payload = 500, {"error": str(exc)}
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _route(self) -> Tuple[int, Any]:
        parts = [unquote(p) for p in self.path.strip("/").split("/") if p]
        if parts == ["status"]:
            return 200, self.runtime.status()
        if len(parts) == 3 and parts[0] == "slate":
            updater, key = parts[1], parts[2]
            slate = self.runtime.read_slate(updater, key)
            if slate is None:
                return 404, {"error": f"no slate for {updater}/{key}"}
            return 200, {"updater": updater, "key": key, "slate": slate}
        if len(parts) == 2 and parts[0] == "slates":
            return 200, {"updater": parts[1],
                         "slates": self.runtime.read_slates_of(parts[1])}
        if len(parts) == 3 and parts[0] == "bulk":
            updater, key = parts[1], parts[2]
            value = self._store_read(updater, key)
            if value is None:
                return 404, {"error": "no stored slate for "
                                      f"{updater}/{key}"}
            return 200, {"updater": updater, "key": key, "slate": value,
                         "source": "store"}
        return 404, {"error": f"unknown path {self.path!r}"}

    def _store_read(self, updater: str, key: str) -> Optional[dict]:
        try:
            result = self.runtime.store.read(key, updater)
        except Exception:
            return None
        if result.value is None:
            return None
        return DEFAULT_CODEC.decode(result.value)

    def log_message(self, fmt: str, *args: Any) -> None:
        """Silence per-request stderr logging."""


class SlateHTTPServer:
    """A background HTTP server exposing one runtime's slates.

    Usage::

        server = SlateHTTPServer(runtime, port=0)  # 0 = ephemeral port
        server.start()
        url = f"http://127.0.0.1:{server.port}/slate/U1/walmart"
        ...
        server.stop()
    """

    def __init__(self, runtime: LocalMuppet, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        handler = type("BoundHandler", (_SlateRequestHandler,),
                       {"runtime": runtime})
        self._server = ThreadingHTTPServer((host, port), handler)
        self._thread: Optional[threading.Thread] = None

    @property
    def port(self) -> int:
        """The bound TCP port (useful with ephemeral port 0)."""
        return self._server.server_address[1]

    def start(self) -> "SlateHTTPServer":
        """Serve requests on a daemon thread."""
        if self._thread is not None:
            return self
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        name="muppet-http", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Shut the server down and join its thread."""
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "SlateHTTPServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
