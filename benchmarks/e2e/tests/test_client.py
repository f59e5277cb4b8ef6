"""Lane pinning keeps per-product order; the generator stays within two connections."""

from __future__ import annotations

import json
import random
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from benchmarks.e2e.client import LANES, Op, lane_of, run_lanes


class _Recorder(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self) -> None:
        super().__init__(("127.0.0.1", 0), _Handler)
        self.lock = threading.Lock()
        self.arrivals = []
        self.active = 0
        self.max_active = 0
        self.jitter = random.Random(7)


class _Handler(BaseHTTPRequestHandler):
    def log_message(self, format, *args):  # noqa: A002
        pass

    def do_POST(self):  # noqa: N802
        server = self.server
        with server.lock:
            server.active += 1
            server.max_active = max(server.max_active, server.active)
            delay = server.jitter.random() * 0.004
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        time.sleep(delay)  # uneven service times reorder unpinned requests
        with server.lock:
            server.arrivals.append((body["product_id"], body["n"]))
            server.active -= 1
        payload = b'{"ok": true}'
        self.send_response(202)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)


def test_pinned_lanes_preserve_per_product_order():
    server = _Recorder()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        ops = []
        for n in range(120):
            product = n % 5
            body = json.dumps({"product_id": product, "n": n}).encode()
            ops.append(Op(due=n * 0.0005, lane=lane_of(product), method="POST", path="/", body=body))
        run_lanes(server.server_address[1], ops)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()
    assert all(op.ok for op in ops)
    assert len(server.arrivals) == 120
    for product in range(5):
        seen = [n for p, n in server.arrivals if p == product]
        assert seen == sorted(seen)
    assert server.max_active <= LANES


def test_open_loop_latency_is_charged_from_the_due_time():
    """A request stuck behind a slow one on its lane is late, and the
    lateness is the server's, not the generator's."""
    server = _Recorder()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        body = json.dumps({"product_id": 0, "n": 0}).encode()
        ops = [Op(due=0.0, lane=0, method="POST", path="/", body=body) for _ in range(20)]
        start = run_lanes(server.server_address[1], ops)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    last = ops[-1]
    assert last.done - start > last.done - last.sent  # queued behind earlier ops
    assert max(op.lateness for op in ops) < 0.05


def test_a_failed_read_your_write_does_not_fail_its_post():
    from benchmarks.e2e.workloads import Result, _count, _from_due

    op = Op(due=0.0, lane=0, method="POST", path="/ratings", follow="/products/0/score")
    op.status, op.done = 202, 1.5
    op.follow_error = "ConnectionResetError: reset"
    assert op.ok and not op.follow_ok
    result = Result("ingest")
    _count(result, [op])
    assert (result.attempted, result.failed) == (2, 1)
    assert _from_due([op], start=1.0) == [0.5]
