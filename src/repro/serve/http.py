"""Stdlib JSON-over-HTTP front end for the generation service.

Endpoints (all JSON):

* ``POST /generate`` — body ``{"model": name, "seed": 0, "num_nodes": null,
  "params": {...}}``; responds with the generated edge list.  Maps service
  errors onto status codes: unknown model → 404, bad request → 400, queue
  full → 503 with a ``Retry-After`` header, worker failure → 500, timeout →
  504.
* ``GET /models``  — registry listing with per-model metadata.
* ``GET /healthz`` — liveness + model/worker counts.
* ``GET /metrics`` — request counts, latency percentiles, queue depth,
  cache hit rate (see ``GenerationService.metrics``).

Built on ``http.server.ThreadingHTTPServer`` so each connection gets its
own thread; concurrency of actual *generation* is governed by the service's
worker pool and bounded queue, not by the HTTP threads (which merely block
on the pending future).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .registry import ModelRegistry
from .service import GenerationRequest, GenerationService, Overloaded

__all__ = ["build_server", "serve_forever"]

_MAX_BODY_BYTES = 1 << 20
#: Response write buffer: a fitted-size graph's JSON fits many times over,
#: so one flush is one send.  Larger bodies bypass it after the headers.
_WRITE_BUFFER_BYTES = 64 << 10


def build_server(
    service: GenerationService,
    host: str = "127.0.0.1",
    port: int = 0,
) -> ThreadingHTTPServer:
    """An HTTP server bound to ``host:port`` (port 0 = ephemeral).

    The caller owns the lifecycle: ``server.serve_forever()`` /
    ``server.shutdown()`` / ``server.server_close()``.  The bound port is
    ``server.server_address[1]``.
    """
    handler = _make_handler(service)

    class Server(ThreadingHTTPServer):
        daemon_threads = True

        def handle_error(self, request, client_address):  # noqa: N802
            # A client disconnect that escapes the handler (e.g. the
            # request line was never completed) is not a server error
            # either — count it instead of printing a traceback.
            exc = sys.exc_info()[1]
            if isinstance(exc, (BrokenPipeError, ConnectionResetError)):
                service.note_dropped_response()
                return
            super().handle_error(request, client_address)

    return Server((host, port), handler)


def serve_forever(service: GenerationService, host: str, port: int) -> None:
    """Blocking convenience for the CLI: start workers, serve, clean up."""
    server = build_server(service, host, port)
    service.start()
    try:
        server.serve_forever()
    finally:
        server.server_close()
        service.stop(drain=False)


def _make_handler(service: GenerationService):
    registry: ModelRegistry = service.registry

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # TCP_NODELAY on every accepted socket plus a buffered wfile that
        # _json flushes once: status line, headers and body leave in one
        # send.  With Nagle on, a body sent after a separate header
        # segment waits for the client's delayed ACK (~40 ms on Linux) on
        # every keep-alive response.
        disable_nagle_algorithm = True
        wbufsize = _WRITE_BUFFER_BYTES

        # Quiet per-request stderr logging; /metrics is the observable.
        def log_message(self, format: str, *args) -> None:
            pass

        def parse_request(self) -> bool:
            # Called once per request on a keep-alive connection.
            self._body_read = False
            return super().parse_request()

        def handle_expect_100(self) -> bool:
            # The client holds its body back until it sees the interim
            # 100, which the buffered wfile would otherwise keep.
            accepted = super().handle_expect_100()
            self.wfile.flush()
            return accepted

        # -- plumbing --------------------------------------------------
        def _json(self, status: int, payload: dict, headers: dict | None = None) -> None:
            body = json.dumps(payload).encode("utf-8")
            try:
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                for name, value in (headers or {}).items():
                    self.send_header(name, value)
                if self._body_unread():
                    # Unread body bytes would be parsed as the next
                    # request on this connection; close it instead.
                    self.send_header("Connection", "close")
                self.end_headers()
                self.wfile.write(body)
                self.wfile.flush()
            except (BrokenPipeError, ConnectionResetError):
                # The client hung up mid-response.  That is their
                # prerogative, not a server error: swallow it (no handler
                # traceback spam) and account for it in /metrics.
                service.note_dropped_response()
                self.close_connection = True
                # The buffered wfile still holds the bytes the failed send
                # could not deliver.  Close it and leave the stdlib's own
                # closing flushes an empty sink, so the same disconnect is
                # not raised (and counted) again.
                with contextlib.suppress(OSError):
                    self.wfile.close()
                self.wfile = io.BytesIO()

        def _body_unread(self) -> bool:
            if self._body_read:
                return False
            length = self.headers.get("Content-Length", "0").strip()
            return length != "0" or "Transfer-Encoding" in self.headers

        def _read_body(self) -> dict:
            length = int(self.headers.get("Content-Length", 0))
            if length <= 0:
                raise ValueError("request body required")
            if length > _MAX_BODY_BYTES:
                raise ValueError("request body too large")
            raw = self.rfile.read(length)
            self._body_read = True
            try:
                document = json.loads(raw.decode("utf-8"))
            except RecursionError:
                raise ValueError("request body is nested too deeply") from None
            if not isinstance(document, dict):
                raise ValueError("request body must be a JSON object")
            return document

        # -- routes ----------------------------------------------------
        def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
            if self.path == "/healthz":
                self._json(
                    200,
                    {
                        "status": "ok",
                        "models": len(registry.names()),
                        "workers": service.workers,
                        "worker_processes": service.worker_processes,
                        "queue_depth": service.queue_depth,
                    },
                )
            elif self.path == "/models":
                self._json(200, {"models": registry.describe_all()})
            elif self.path == "/metrics":
                self._json(200, service.metrics())
            else:
                self._json(404, {"error": f"no such endpoint {self.path}"})

        def do_POST(self) -> None:  # noqa: N802 (stdlib naming)
            if self.path != "/generate":
                self._json(404, {"error": f"no such endpoint {self.path}"})
                return
            try:
                document = self._read_body()
                request = _parse_request(document)
            except (ValueError, TypeError) as exc:
                self._json(400, {"error": str(exc)})
                return
            try:
                result = service.generate(request)
            except KeyError as exc:
                self._json(404, {"error": str(exc.args[0])})
                return
            except ValueError as exc:
                self._json(400, {"error": str(exc)})
                return
            except Overloaded as exc:
                # RFC 9110 §10.2.3: Retry-After carries integer seconds —
                # clients may ignore a fractional value.  Round up (never
                # to 0, which would invite an immediate retry storm); the
                # precise hint stays in the JSON body.
                retry_after = max(1, math.ceil(exc.retry_after_s))
                self._json(
                    503,
                    {
                        "error": "server overloaded, request queue is full",
                        "retry_after_s": exc.retry_after_s,
                    },
                    headers={"Retry-After": str(retry_after)},
                )
                return
            except TimeoutError as exc:
                self._json(504, {"error": str(exc)})
                return
            except Exception as exc:  # worker-side failure
                self._json(500, {"error": f"generation failed: {exc!r}"})
                return
            graph = result.graph
            self._json(
                200,
                {
                    "model": request.model,
                    "seed": request.seed,
                    "num_nodes": graph.num_nodes,
                    "num_edges": graph.num_edges,
                    "edges": graph.edge_array().tolist(),
                    "cache_hit": result.cache_hit,
                    "latency_s": result.total_s,
                },
            )

    return Handler


def _parse_request(document: dict) -> GenerationRequest:
    """Validate the /generate body shape (types only; the service checks
    model existence and parameter names)."""
    known = {"model", "seed", "num_nodes", "params"}
    unknown = set(document) - known
    if unknown:
        raise ValueError(f"unknown request fields {sorted(unknown)}")
    model = document.get("model")
    if not isinstance(model, str) or not model:
        raise ValueError("'model' must be a non-empty string")
    seed = document.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ValueError("'seed' must be an integer")
    num_nodes = document.get("num_nodes")
    if num_nodes is not None and (
        not isinstance(num_nodes, int) or isinstance(num_nodes, bool)
    ):
        raise ValueError("'num_nodes' must be an integer or null")
    params = document.get("params", {})
    if not isinstance(params, dict):
        raise ValueError("'params' must be an object")
    return GenerationRequest(
        model=model, seed=seed, num_nodes=num_nodes, params=params
    )
