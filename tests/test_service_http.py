"""Tests for the stdlib HTTP API of the rating service."""

from __future__ import annotations

import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.errors import ReproError
from repro.service import RatingEngine, ServiceConfig
from repro.service import http as http_mod
from repro.service.http import start_background


@pytest.fixture()
def service():
    engine = RatingEngine(
        ServiceConfig(detector_window=12, detector_order=2)
    )
    server, _thread = start_background(engine)
    base = f"http://127.0.0.1:{server.server_address[1]}"
    yield engine, base
    server.shutdown()
    server.server_close()


def _raw(base, data, timeout=10.0, keep_open=False):
    """Send raw bytes on one connection, then (unless ``keep_open``) end
    the sending side; (status, JSON body) of the reply."""
    port = int(base.rsplit(":", 1)[1])
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(data)
        if not keep_open:
            sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.0 "), head
    return int(head.split(b" ", 2)[1]), json.loads(body)


_RATING = b'{"rater_id": 1, "product_id": 1, "value": 0.5, "time": 1.0}'


def _get(url):
    try:
        with urllib.request.urlopen(url) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _get_text(url):
    with urllib.request.urlopen(url) as response:
        return response.status, response.headers.get("Content-Type"), response.read().decode()


def _post(url, payload, raw=None):
    data = raw if raw is not None else json.dumps(payload).encode()
    request = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"}, method="POST"
    )
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestRatingsEndpoint:
    def test_submit_and_score(self, service):
        engine, base = service
        status, body = _post(
            f"{base}/ratings",
            {"rater_id": 1, "product_id": 7, "value": 0.8, "time": 1.0},
        )
        assert status == 201
        assert body["accepted"] is True and body["seq"] == 0
        _post(f"{base}/ratings", {"rater_id": 2, "product_id": 7, "value": 0.7, "time": 2.0})
        status, body = _get(f"{base}/products/7/score")
        assert status == 200
        assert body["score"] == pytest.approx(0.75)
        assert engine.n_accepted == 2

    def test_out_of_order_conflict(self, service):
        _engine, base = service
        _post(f"{base}/ratings", {"rater_id": 1, "product_id": 3, "value": 0.5, "time": 5.0})
        status, body = _post(
            f"{base}/ratings", {"rater_id": 1, "product_id": 3, "value": 0.5, "time": 1.0}
        )
        assert status == 409
        assert "out-of-order" in body["error"]

    def test_server_assigns_time_and_id(self, service):
        _engine, base = service
        status, body = _post(f"{base}/ratings", {"rater_id": 5, "product_id": 9, "value": 0.4})
        assert status == 201
        assert isinstance(body["rating_id"], int)

    def test_invalid_value_rejected(self, service):
        _engine, base = service
        status, body = _post(
            f"{base}/ratings", {"rater_id": 1, "product_id": 1, "value": 1.7}
        )
        assert status == 400
        assert "lie in [0, 1]" in body["error"]

    def test_malformed_json_rejected(self, service):
        _engine, base = service
        status, body = _post(f"{base}/ratings", None, raw=b"{nope")
        assert status == 400
        assert "invalid JSON" in body["error"]

    def test_missing_fields_rejected(self, service):
        _engine, base = service
        status, _body = _post(f"{base}/ratings", {"value": 0.5})
        assert status == 400

    def test_engine_rejection_maps_to_400(self, service, monkeypatch):
        """A ReproError raised inside engine.submit must come back as a
        400 JSON body, not kill the handler thread mid-request."""
        engine, base = service

        def _refuse(rating):
            raise ReproError("engine refused this rating")

        monkeypatch.setattr(engine, "submit", _refuse)
        status, body = _post(
            f"{base}/ratings",
            {"rater_id": 1, "product_id": 1, "value": 0.5, "time": 1.0},
        )
        assert status == 400
        assert body["accepted"] is False
        assert "engine refused" in body["error"]
        # The server survives and keeps answering.
        monkeypatch.undo()
        status, _ = _post(
            f"{base}/ratings",
            {"rater_id": 1, "product_id": 1, "value": 0.5, "time": 2.0},
        )
        assert status == 201


class TestReadEndpoints:
    def test_unknown_product_404(self, service):
        _engine, base = service
        status, body = _get(f"{base}/products/404404/score")
        assert status == 404

    def test_trust_defaults_to_prior(self, service):
        _engine, base = service
        status, body = _get(f"{base}/raters/12345/trust")
        assert status == 200
        assert body["trust"] == 0.5

    def test_healthz(self, service):
        _engine, base = service
        status, body = _get(f"{base}/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["uptime_seconds"] >= 0

    def test_stats(self, service):
        _engine, base = service
        status, body = _get(f"{base}/stats")
        assert status == 200
        assert body["n_accepted"] == body["n_ratings"] == 0

    def test_unknown_route_404(self, service):
        _engine, base = service
        assert _get(f"{base}/nope")[0] == 404
        assert _post(f"{base}/nope", {})[0] == 404


class TestMetricsEndpoint:
    def test_prometheus_parseable_text(self, service):
        _engine, base = service
        _post(f"{base}/ratings", {"rater_id": 1, "product_id": 1, "value": 0.5, "time": 0.0})
        status, content_type, text = _get_text(f"{base}/metrics")
        assert status == 200
        assert content_type.startswith("text/plain")
        # Minimal exposition-format parse: every non-comment line is
        # "name{labels} value" with a float-parseable value, and every
        # family carries a TYPE line.
        families = set()
        samples = 0
        for line in text.strip().splitlines():
            if line.startswith("# TYPE "):
                _, _, name, metric_type = line.split(" ", 3)
                assert metric_type in ("counter", "gauge", "histogram")
                families.add(name)
            elif not line.startswith("#"):
                name_part, value_part = line.rsplit(" ", 1)
                float(value_part)  # must parse
                base_name = name_part.split("{", 1)[0]
                for suffix in ("_bucket", "_sum", "_count"):
                    if base_name.endswith(suffix):
                        base_name = base_name[: -len(suffix)]
                        break
                assert base_name in families
                samples += 1
        assert "repro_ratings_accepted_total" in families
        assert "repro_ingest_latency_seconds" in families
        assert samples > 10


class TestRequestParsing:
    """Raw-socket requests against the limits of the lean HTTP/1.0 parser."""

    @pytest.mark.parametrize(
        "request_bytes, status",
        [
            (b"garbage\r\n\r\n", 400),
            (b"GET /healthz\r\n\r\n", 400),
            (b"GET /healthz HTTP/2.0\r\n\r\n", 400),
            (b"GET /" + b"a" * http_mod.MAX_LINE_BYTES + b" HTTP/1.0\r\n\r\n", 400),
            (b"GET /healthz HTTP/1.0\r\nno colon here\r\n\r\n", 400),
            (b"GET /healthz HTTP/1.0\r\n folded: header\r\n\r\n", 400),
            (b"GET /healthz HTTP/1.0\r\n: empty name\r\n\r\n", 400),
            (
                b"GET /healthz HTTP/1.0\r\nX-Big: "
                + b"b" * http_mod.MAX_LINE_BYTES
                + b"\r\n\r\n",
                400,
            ),
            (
                b"GET /healthz HTTP/1.0\r\n"
                + b"".join(
                    b"X-H%d: v\r\n" % i for i in range(http_mod.MAX_HEADERS + 1)
                )
                + b"\r\n",
                400,
            ),
            (
                b"POST /ratings HTTP/1.0\r\nTransfer-Encoding: chunked\r\n\r\n"
                b"3\r\n{}\n\r\n0\r\n\r\n",
                501,
            ),
            (b"PUT /ratings HTTP/1.0\r\n\r\n", 501),
            (b"DELETE /ratings HTTP/1.0\r\n\r\n", 501),
            (b"POST /ratings HTTP/1.0\r\n\r\n", 400),
            (b"POST /ratings HTTP/1.0\r\nContent-Length: abc\r\n\r\n", 400),
            (b"POST /ratings HTTP/1.0\r\nContent-Length: 60\r\n\r\n{}", 400),
            (b"POST /ratings HTTP/1.0\r\nContent-Length: -5\r\n\r\n", 400),
            (
                b"POST /ratings HTTP/1.0\r\nContent-Length: %d\r\n\r\n"
                % (http_mod.MAX_BODY_BYTES + 1),
                400,
            ),
        ],
        ids=[
            "bad-request-line",
            "no-version",
            "http2-version",
            "request-line-too-long",
            "header-without-colon",
            "folded-header",
            "empty-header-name",
            "header-line-too-long",
            "too-many-headers",
            "transfer-encoding",
            "put",
            "delete",
            "post-without-length",
            "post-bad-length",
            "post-body-cut-short",
            "post-negative-length",
            "post-body-too-large",
        ],
    )
    def test_rejected(self, service, request_bytes, status):
        engine, base = service
        got, body = _raw(base, request_bytes)
        assert got == status
        assert "error" in body
        assert engine.n_accepted == 0
        # The handler thread is free again.
        assert _raw(base, b"GET /healthz HTTP/1.0\r\n\r\n")[0] == 200

    def test_most_headers_allowed(self, service):
        _engine, base = service
        headers = b"".join(
            b"X-H%d: v\r\n" % i for i in range(http_mod.MAX_HEADERS)
        )
        assert _raw(base, b"GET /healthz HTTP/1.0\r\n" + headers + b"\r\n")[0] == 200

    def test_header_names_are_case_insensitive(self, service):
        engine, base = service
        status, body = _raw(
            base,
            b"POST /ratings HTTP/1.1\r\ncOnTeNt-LeNgTh: %d\r\n\r\n" % len(_RATING)
            + _RATING,
        )
        assert status == 201 and body["accepted"] is True
        assert engine.n_accepted == 1

    def test_connection_closed_without_a_request(self, service):
        _engine, base = service
        port = int(base.rsplit(":", 1)[1])
        socket.create_connection(("127.0.0.1", port)).close()
        assert _raw(base, b"GET /healthz HTTP/1.0\r\n\r\n")[0] == 200

    def test_response_is_one_write(self, service, monkeypatch):
        _engine, base = service
        writes = []
        setup = http_mod._Handler.setup

        def counting_setup(handler):
            setup(handler)
            write = handler.wfile.write

            def counted(data):
                writes.append(len(data))
                return write(data)

            handler.wfile.write = counted

        monkeypatch.setattr(http_mod._Handler, "setup", counting_setup)
        assert _raw(base, b"GET /healthz HTTP/1.0\r\n\r\n")[0] == 200
        status, _ = _raw(
            base,
            b"POST /ratings HTTP/1.0\r\nContent-Length: %d\r\n\r\n" % len(_RATING)
            + _RATING,
        )
        assert status == 201
        assert len(writes) == 2

    def test_fixed_handler_pool(self, service, monkeypatch):
        """Concurrent requests are served by the pool's threads; no
        thread is started per connection."""
        _engine, base = service
        served_by = []
        setup = http_mod._Handler.setup

        def recording_setup(handler):
            served_by.append(threading.current_thread())
            setup(handler)

        monkeypatch.setattr(http_mod._Handler, "setup", recording_setup)
        clients = [
            threading.Thread(
                target=lambda: [
                    _raw(base, b"GET /healthz HTTP/1.0\r\n\r\n") for _ in range(10)
                ]
            )
            for _ in range(4)
        ]
        for client in clients:
            client.start()
        for client in clients:
            client.join()
        assert len(served_by) == 40
        threads = set(served_by)
        assert len(threads) <= http_mod.HANDLER_THREADS
        assert all(thread.name.startswith("http-") for thread in threads)


class TestConnectionLifecycle:
    def test_idle_connections_time_out(self, monkeypatch):
        """One more idle connection than the pool has threads cannot
        starve a real request: each idle one times out."""
        monkeypatch.setattr(http_mod._Handler, "timeout", 0.2)
        engine = RatingEngine(ServiceConfig(detector_window=12, detector_order=2))
        server, _thread = start_background(engine)
        port = server.server_address[1]
        idle = [
            socket.create_connection(("127.0.0.1", port))
            for _ in range(http_mod.HANDLER_THREADS + 1)
        ]
        try:
            start = time.monotonic()
            status, body = _raw(
                f"http://127.0.0.1:{port}", b"GET /healthz HTTP/1.0\r\n\r\n"
            )
            assert status == 200 and body["status"] == "ok"
            assert time.monotonic() - start < 5.0
        finally:
            for sock in idle:
                sock.close()
            server.shutdown()
            server.server_close()


    def test_stalled_body_times_out_with_400(self, monkeypatch):
        monkeypatch.setattr(http_mod._Handler, "timeout", 0.2)
        engine = RatingEngine(ServiceConfig(detector_window=12, detector_order=2))
        server, _thread = start_background(engine)
        try:
            status, body = _raw(
                f"http://127.0.0.1:{server.server_address[1]}",
                b"POST /ratings HTTP/1.0\r\nContent-Length: 60\r\n\r\n{",
                keep_open=True,
            )
            assert status == 400
            assert "shorter than Content-Length" in body["error"]
            assert engine.n_accepted == 0
        finally:
            server.shutdown()
            server.server_close()


class TestGracefulStop:
    def test_stop_answers_the_in_flight_post(self, monkeypatch):
        """shutdown() + server_close() stop accepting at once but return
        only after the POST already inside engine.submit got its 2xx."""
        engine = RatingEngine(ServiceConfig(detector_window=12, detector_order=2))
        server, _thread = start_background(engine)
        base = f"http://127.0.0.1:{server.server_address[1]}"
        entered = threading.Event()
        release = threading.Event()
        submit = engine.submit

        def blocked_submit(rating):
            entered.set()
            release.wait(10)
            return submit(rating)

        monkeypatch.setattr(engine, "submit", blocked_submit)
        reply = {}
        poster = threading.Thread(
            target=lambda: reply.update(
                result=_raw(
                    base,
                    b"POST /ratings HTTP/1.0\r\nContent-Length: %d\r\n\r\n"
                    % len(_RATING)
                    + _RATING,
                )
            )
        )
        poster.start()
        assert entered.wait(5)
        closed = threading.Event()

        def stop():
            server.shutdown()
            server.server_close()
            closed.set()

        stopper = threading.Thread(target=stop)
        stopper.start()
        try:
            time.sleep(0.2)
            assert not closed.is_set()
            # Already stopped accepting: a new connection is refused.
            with pytest.raises(OSError):
                _raw(base, b"GET /healthz HTTP/1.0\r\n\r\n", timeout=2.0)
            assert not closed.is_set()
        finally:
            release.set()
            poster.join(10)
            stopper.join(10)
        assert closed.is_set()
        status, body = reply["result"]
        assert status == 201 and body["accepted"] is True
        assert engine.n_accepted == 1
        engine.close()
