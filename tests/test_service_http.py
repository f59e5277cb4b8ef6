"""Tests for the stdlib HTTP API of the rating service."""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.errors import ReproError
from repro.service import RatingEngine, ServiceConfig
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
