"""Stdlib HTTP API over the rating engine.

A thin JSON layer (stdlib only, no runtime dependencies) exposing the
portal surface of Fig. 1:

==========================  ===============================================
``POST /ratings``           submit one rating
``GET /products/{id}/score``  trust-weighted score of a product
``GET /raters/{id}/trust``  current trust in a rater
``GET /healthz``            liveness + uptime
``GET /metrics``            Prometheus text exposition
``GET /stats``              the engine's ``snapshot_stats()`` as JSON
``GET /ensemble``           detector ensemble config + counters
``GET /storage``            storage tiers + WAL segments (``storage_stats()``)
==========================  ===============================================

``POST /ratings`` accepts ``{"rater_id": int, "product_id": int,
"value": float}`` plus optional ``time`` (seconds since engine start
when omitted) and ``rating_id`` (auto-assigned when omitted).  Invalid
payloads return 400; rejected ratings (out of time order for their
product) return 409 with the reason; behind a cluster coordinator
(``repro serve --workers N``) accepted ratings return **202** -- the
rating is durably logged and queued, with detection applied
asynchronously by the owning worker.

The connection model is HTTP/1.0, one request per connection.
:data:`HANDLER_THREADS` threads block in ``accept()`` on the listening
socket; each reads one request from the connection it accepted
(bounded by :data:`MAX_LINE_BYTES`, :data:`MAX_HEADERS` and a
:data:`CONNECTION_TIMEOUT_S` socket timeout), answers it with one
write, and closes it.  No thread is started per connection.  While
every handler is busy, new connections wait in a
:data:`LISTEN_BACKLOG`-deep listen queue.

The ``engine`` may be any object with the :class:`RatingEngine`
serving surface -- in particular
:class:`~repro.service.cluster.coordinator.ClusterCoordinator`.  When
it offers ``render_metrics()`` (the coordinator does, to refresh
per-worker gauges), ``GET /metrics`` uses that instead of the bare
registry render.

``serve`` installs SIGTERM/SIGINT handlers so ``kill <pid>`` and
Ctrl-C both take the drain-then-exit path: the listening socket stops
accepting first (no new acks), every in-flight request is answered,
then the engine flushes, snapshots, and closes -- an acked rating is
never dropped by a graceful stop.
"""

from __future__ import annotations

import json
import re
import signal
import socket
import socketserver
import threading
import time
from http.server import BaseHTTPRequestHandler
from typing import Dict, List, Optional, Tuple

from repro.errors import ReproError, UnknownProductError
from repro.ratings.models import Rating, fresh_rating_id
from repro.service.engine import RatingEngine

__all__ = ["RatingServiceServer", "make_server", "serve"]

# Durability contract (checked by lint rule DP02): a 2xx response to
# POST /ratings may only be sent after the rating reached the WAL.
__effect_contracts__ = {
    "orderings": {"_Handler.do_POST": [["wal_append", "ack"]]},
}

_SCORE_RE = re.compile(r"^/products/(-?\d+)/score$")
_TRUST_RE = re.compile(r"^/raters/(-?\d+)/trust$")

MAX_BODY_BYTES = 1 << 20

#: Threads accepting and serving connections, one connection each.
HANDLER_THREADS = 8
#: Connections the kernel queues while every handler thread is busy.
LISTEN_BACKLOG = 128
#: Longest request line or header line, in bytes.
MAX_LINE_BYTES = 1 << 16
#: Most header lines one request may carry.
MAX_HEADERS = 100
#: Socket timeout per connection, so an idle client cannot hold a
#: handler thread.
CONNECTION_TIMEOUT_S = 5.0


class RatingServiceServer(socketserver.TCPServer):
    """A fixed pool of accepting handler threads bound to one engine.

    :meth:`serve_forever` runs :data:`HANDLER_THREADS` threads, each
    looping ``accept()`` -> serve that connection -> close it.
    :meth:`shutdown` stops accepting and returns once every in-flight
    request has been answered; a connection still sending its request
    holds the stop until it finishes, or until one read has waited
    :data:`CONNECTION_TIMEOUT_S`.
    """

    allow_reuse_address = True
    request_queue_size = LISTEN_BACKLOG

    def __init__(self, address: Tuple[str, int], engine: RatingEngine, quiet: bool = True):
        super().__init__(address, _Handler)
        self.engine = engine
        self.quiet = quiet
        self.started = time.monotonic()
        self._stopping = False
        self._pool: List[threading.Thread] = []
        self._pool_lock = threading.Lock()

    def serve_forever(self) -> None:  # type: ignore[override]
        """Serve on the handler pool until :meth:`shutdown`."""
        with self._pool_lock:
            if self._stopping:
                return
            self._pool = [
                threading.Thread(
                    target=self._serve_connections, name=f"http-{i}", daemon=True
                )
                for i in range(HANDLER_THREADS)
            ]
            for thread in self._pool:
                thread.start()
        for thread in self._pool:
            thread.join()

    def _serve_connections(self) -> None:
        while not self._stopping:
            try:
                conn, address = self.socket.accept()
            except OSError:
                continue  # woken by shutdown(), or the peer reset first
            try:
                self.finish_request(conn, address)
            except Exception:  # noqa: BLE001 - socketserver's boundary:
                # report and keep the pool thread serving.
                self.handle_error(conn, address)
            finally:
                self.shutdown_request(conn)

    def shutdown(self) -> None:
        """Stop accepting; return once every in-flight request is answered."""
        with self._pool_lock:
            self._stopping = True
        try:
            # Wakes every thread blocked in accept() (EINVAL on Linux).
            self.socket.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        for thread in self._pool:
            thread.join()

    def server_close(self) -> None:
        self.shutdown()
        super().server_close()


class _Handler(BaseHTTPRequestHandler):
    """Routes portal requests onto the engine, one request per connection."""

    server: RatingServiceServer  # narrowed for type checkers
    timeout = CONNECTION_TIMEOUT_S
    headers: Dict[str, str]  # lower-cased field name -> value

    # -- plumbing ---------------------------------------------------------

    def handle(self) -> None:
        """Read one request, dispatch it to ``do_<METHOD>``, answer it."""
        self.command = None
        try:
            problem = self._read_head()
        except OSError:
            return  # timed out or reset before a whole request arrived
        if problem is not None:
            self._send_json(problem[0], {"error": problem[1]})
        elif self.command is not None:  # None: closed without a request
            getattr(self, "do_" + self.command)()

    def _read_head(self) -> Optional[Tuple[int, str]]:
        """Parse the request line and headers; the error status to answer."""
        line = self.rfile.readline(MAX_LINE_BYTES + 1)
        if not line:
            return None
        self.requestline = line.decode("iso-8859-1").rstrip("\r\n")
        words = self.requestline.split()
        if (
            len(line) > MAX_LINE_BYTES
            or len(words) != 3
            or not words[2].startswith("HTTP/1.")
        ):
            return 400, "malformed request line"
        self.headers = {}
        for _ in range(MAX_HEADERS + 1):
            line = self.rfile.readline(MAX_LINE_BYTES + 1)
            if line in (b"\r\n", b"\n", b""):
                break
            name, colon, value = line.decode("iso-8859-1").partition(":")
            if (
                len(line) > MAX_LINE_BYTES
                or not colon
                or not name
                or name != name.strip()  # empty, padded, or folded
            ):
                return 400, "malformed header line"
            self.headers[name.lower()] = value.strip()
        else:
            return 400, f"more than {MAX_HEADERS} header lines"
        method, self.path, self.request_version = words
        if not hasattr(self, "do_" + method):
            return 501, f"unsupported method {method}"
        if "transfer-encoding" in self.headers:
            return 501, "Transfer-Encoding is not supported; send Content-Length"
        self.command = method
        return None

    def _respond(self, status: int, content_type: str, body: bytes) -> None:
        """Status line, headers and body in one write."""
        head = (
            f"HTTP/1.0 {status} {self.responses[status][0]}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Date: {self.date_time_string()}\r\n\r\n"
        )
        self.wfile.write(head.encode("latin-1") + body)
        if not self.server.quiet:
            self.log_request(status, len(body))

    def _send_json(self, status: int, payload: dict) -> None:
        self._respond(status, "application/json", json.dumps(payload).encode("utf-8"))

    def _send_text(self, status: int, text: str, content_type: str) -> None:
        self._respond(status, content_type, text.encode("utf-8"))

    # -- GET --------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802
        engine = self.server.engine
        if self.path == "/healthz":
            self._send_json(
                200,
                {
                    "status": "ok",
                    "uptime_seconds": time.monotonic() - self.server.started,
                    "n_accepted": engine.n_accepted,
                },
            )
            return
        if self.path == "/metrics":
            render = getattr(engine, "render_metrics", None)
            text = render() if render is not None else engine.metrics.render()
            self._send_text(
                200, text, "text/plain; version=0.0.4; charset=utf-8"
            )
            return
        if self.path == "/stats":
            self._send_json(200, engine.snapshot_stats())
            return
        if self.path == "/ensemble":
            self._send_json(200, engine.ensemble_stats())
            return
        if self.path == "/storage":
            self._send_json(200, engine.storage_stats())
            return
        match = _SCORE_RE.match(self.path)
        if match:
            product_id = int(match.group(1))
            try:
                score = engine.score(product_id)
            except UnknownProductError:
                self._send_json(404, {"error": f"unknown product {product_id}"})
                return
            self._send_json(200, {"product_id": product_id, "score": score})
            return
        match = _TRUST_RE.match(self.path)
        if match:
            rater_id = int(match.group(1))
            self._send_json(
                200, {"rater_id": rater_id, "trust": engine.trust(rater_id)}
            )
            return
        self._send_json(404, {"error": f"no route for {self.path}"})

    # -- POST -------------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802
        if self.path != "/ratings":
            self._send_json(404, {"error": f"no route for {self.path}"})
            return
        try:
            length = int(self.headers.get("content-length", "0"))
        except ValueError:
            self._send_json(400, {"error": "bad Content-Length"})
            return
        if length <= 0 or length > MAX_BODY_BYTES:
            self._send_json(400, {"error": "body required (max 1 MiB)"})
            return
        try:
            raw = self.rfile.read(length)
        except OSError:  # timed out or reset inside the body
            raw = b""
        if len(raw) < length:
            self._send_json(400, {"error": "body shorter than Content-Length"})
            return
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError as exc:
            self._send_json(400, {"error": f"invalid JSON: {exc}"})
            return
        if not isinstance(payload, dict):
            self._send_json(400, {"error": "body must be a JSON object"})
            return
        rating, error = self._parse_rating(payload)
        if rating is None:
            self._send_json(400, {"error": error})
            return
        try:
            result = self.server.engine.submit(rating)
        except ReproError as exc:
            self._send_json(400, {"accepted": False, "error": str(exc)})
            return
        if not result.accepted:
            self._send_json(409, {"accepted": False, "error": result.reason})
            return
        # 202 for cluster ingest: durably logged + queued, detection is
        # asynchronous.  201 for the in-process engine: fully applied.
        self._send_json(
            202 if result.queued else 201,
            {
                "accepted": True,
                "seq": result.seq,
                "rating_id": rating.rating_id,
                "flagged": result.flagged,
                "queued": result.queued,
            },
        )

    def _parse_rating(self, payload: dict) -> Tuple[Optional[Rating], Optional[str]]:
        try:
            rater_id = int(payload["rater_id"])
            product_id = int(payload["product_id"])
            value = float(payload["value"])
        except (KeyError, TypeError, ValueError) as exc:
            return None, f"need integer rater_id/product_id and float value: {exc}"
        when = payload.get("time")
        if when is None:
            when = time.monotonic() - self.server.started
        rating_id = payload.get("rating_id")
        if rating_id is None:
            rating_id = fresh_rating_id()
        try:
            rating = Rating(
                rating_id=int(rating_id),
                rater_id=rater_id,
                product_id=product_id,
                value=value,
                time=float(when),
            )
        except (ReproError, TypeError, ValueError) as exc:
            return None, str(exc)
        return rating, None


def make_server(
    engine: RatingEngine, host: str = "127.0.0.1", port: int = 8080, quiet: bool = True
) -> RatingServiceServer:
    """Build a server (``port=0`` binds an ephemeral port for tests)."""
    return RatingServiceServer((host, port), engine, quiet=quiet)


def serve(
    engine: RatingEngine,
    host: str = "127.0.0.1",
    port: int = 8080,
    quiet: bool = False,
) -> None:
    """Serve until SIGTERM/SIGINT; drains and closes the engine on exit.

    The stop path is ordered for durability: stop accepting requests
    (no new acks can race the drain) and wait for the requests already
    accepted to be answered, then ``engine.close()`` -- which
    flushes pending work, takes a final snapshot, and for a cluster
    coordinator drains every worker queue and shuts the workers down.
    Every acked rating is therefore applied-or-WAL-durable before the
    process exits.
    """
    server = make_server(engine, host=host, port=port, quiet=quiet)

    def request_stop(signum, frame):  # noqa: ARG001 - signal signature
        # shutdown() waits for every in-flight request; keep the
        # handler itself short and let a helper thread wait.
        threading.Thread(target=server.shutdown, daemon=True).start()

    previous = {}
    try:
        for signum in (signal.SIGTERM, signal.SIGINT):
            previous[signum] = signal.signal(signum, request_stop)
    except ValueError:
        pass  # not the main thread (tests); Ctrl-C still works below
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        server.server_close()
        try:
            # Final snapshot while the engine is still open (close()
            # releases the WAL); the coordinator also snapshots inside
            # close(), but doing it here surfaces failures loudly
            # instead of swallowing them in best-effort shutdown.
            if getattr(engine, "wal", None) is not None:
                engine.snapshot()
        finally:
            engine.close()


def start_background(
    engine: RatingEngine, host: str = "127.0.0.1", port: int = 0
) -> Tuple[RatingServiceServer, threading.Thread]:
    """Start a server on a daemon thread (used by tests and notebooks)."""
    server = make_server(engine, host=host, port=port)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread
