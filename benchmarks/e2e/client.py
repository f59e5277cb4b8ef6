"""The load generator: two pinned lanes of HTTP/1.0 requests.

The benchmark process is the only client.  It runs one thread per
lane and never more than :data:`LANES` connections at once (the box
has two cores, and the server answers HTTP/1.0, so each request opens
and closes its own connection).  Every operation is pinned to lane
``product_id % LANES``: a lane sends its operations one at a time in
schedule order, so the ratings of one product reach the server in
time order even though two lanes run concurrently -- the server
rejects a rating older than its product's newest.

Open loop: an operation is due at a fixed offset from the start and is
sent at that time or, if its lane is still busy, as soon as the lane
frees up.  Latency is timed from the **due** time, so a stall is
charged to every request it delays.  ``lateness`` records how late the
generator itself was -- the send time minus the later of the due time
and the moment the lane became free -- which is the harness's own
error, not the server's.  A closed loop is the same code with every
operation due at offset 0.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

__all__ = ["LANES", "Op", "http_request", "lane_of", "run_lanes"]

LANES = 2

#: Seconds before a request counts as failed (and as missing every
#: latency limit: a failed request's latency is reported as this).
TIMEOUT_S = 10.0


@dataclass
class Op:
    """One scheduled request and, once run, its outcome.

    ``follow`` names a GET sent on the same lane right after this
    request succeeds (the read-your-write probe); its outcome lands in
    the ``follow_*`` fields, so ``ok`` and ``error`` always describe
    this request alone.
    """

    due: float
    lane: int
    method: str
    path: str
    body: Optional[bytes] = None
    follow: Optional[str] = None
    sent: float = 0.0
    done: float = 0.0
    lateness: float = 0.0
    connect_s: float = 0.0
    status: int = 0
    payload: Optional[dict] = None
    error: Optional[str] = None
    follow_done: float = 0.0
    follow_status: int = 0
    follow_payload: Optional[dict] = None
    follow_error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None and 200 <= self.status < 300

    @property
    def follow_ok(self) -> bool:
        return self.follow_error is None and 200 <= self.follow_status < 300


def lane_of(product_id: int) -> int:
    """The lane (connection slot) a product's operations are pinned to."""
    return product_id % LANES


def http_request(
    port: int, method: str, path: str, body: Optional[bytes] = None
) -> tuple:
    """One HTTP/1.0 exchange; returns ``(status, payload, connect_seconds)``.

    Raises ``OSError`` (including timeouts) on connection failures and
    ``ValueError`` on an unparsable response.
    """
    start = time.monotonic()
    sock = socket.create_connection(("127.0.0.1", port), timeout=TIMEOUT_S)
    connected = time.monotonic()
    try:
        head = f"{method} {path} HTTP/1.0\r\nHost: 127.0.0.1\r\n"
        if body is not None:
            head += (
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
            )
        sock.sendall(head.encode("ascii") + b"\r\n" + (body or b""))
        chunks = []
        while True:
            data = sock.recv(65536)
            if not data:
                break
            chunks.append(data)
    finally:
        sock.close()
    header, _, content = b"".join(chunks).partition(b"\r\n\r\n")
    status = int(header.split(b" ", 2)[1])
    payload = json.loads(content) if content else None
    return status, payload, connected - start


def _run_op(port: int, op: Op) -> None:
    try:
        op.status, op.payload, op.connect_s = http_request(
            port, op.method, op.path, op.body
        )
    except (OSError, ValueError, IndexError) as exc:
        op.error = f"{type(exc).__name__}: {exc}"
    op.done = time.monotonic()
    if op.follow is not None and op.ok:
        try:
            op.follow_status, op.follow_payload, _ = http_request(
                port, "GET", op.follow
            )
        except (OSError, ValueError, IndexError) as exc:
            op.follow_error = f"{type(exc).__name__}: {exc}"
        op.follow_done = time.monotonic()


def _lane(port: int, ops: Sequence[Op], start: float) -> None:
    free_at = start
    for op in ops:
        due = start + op.due
        wait = due - time.monotonic()
        if wait > 0:
            time.sleep(wait)
        op.sent = time.monotonic()
        op.lateness = op.sent - max(due, free_at)
        _run_op(port, op)
        free_at = max(op.done, op.follow_done)


def run_lanes(port: int, ops: Sequence[Op]) -> float:
    """Run ``ops`` on their lanes; returns the absolute start time.

    Each lane keeps its operations in schedule order.  Blocks until
    every operation has completed or failed.
    """
    lanes: List[List[Op]] = [[] for _ in range(LANES)]
    for op in sorted(ops, key=lambda o: o.due):
        lanes[op.lane].append(op)
    start = time.monotonic() + 0.05
    threads = [
        threading.Thread(target=_lane, args=(port, lane, start), daemon=True)
        for lane in lanes
        if lane
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return start
