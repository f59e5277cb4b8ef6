"""Length-prefixed JSON framing over ``multiprocessing.connection``.

One frame = one JSON object, UTF-8 encoded, carried as a single
``send_bytes``/``recv_bytes`` unit (the stdlib connection layer adds
the length prefix and never delivers a torn frame).  JSON rather than
pickle keeps the protocol inspectable and closed against arbitrary
code execution if the socket is ever misused; the ``authkey`` HMAC
handshake of :class:`multiprocessing.connection.Listener` rejects
strangers before the first frame.

Every message is a dict with a ``"type"`` key.  Coordinator -> worker:
``ingest`` (batched ``[coordinator_seq, rating_dict]`` entries),
``rpc`` (id + op), ``trust`` (reply to a digest, carrying under
``changed`` only the trusts changed since the worker's last reply),
``welcome`` (reply to ``hello``, carrying the full trust table under
``table``).  Worker ->
coordinator: ``connect``, ``hello`` (post-recovery watermark),
``digest`` (trust flush digest), ``processed`` (cumulative ingest
credit), ``reply`` (rpc response).

Float fidelity: ``json`` round-trips Python floats bit-for-bit
(repr-based shortest-form encoding), which is what lets the cluster
make bit-for-bit state guarantees across the wire.
"""

from __future__ import annotations

import json
from multiprocessing.connection import Connection
from typing import Any, Dict

__all__ = ["send_msg", "recv_msg"]


def send_msg(conn: Connection, msg: Dict[str, Any]) -> None:
    """Send one JSON frame (not thread-safe; callers hold a write lock)."""
    conn.send_bytes(json.dumps(msg, separators=(",", ":")).encode("utf-8"))


def recv_msg(conn: Connection) -> Dict[str, Any]:
    """Receive one JSON frame (raises ``EOFError`` on a closed peer)."""
    return json.loads(conn.recv_bytes().decode("utf-8"))
