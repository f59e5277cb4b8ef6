"""Cluster worker process: an engine behind a socket.

``worker_main`` is the spawn target for one worker.  The worker owns a
plain :class:`~repro.service.engine.RatingEngine` (its own
WAL subdirectory and tiered store, its own detector ensemble) built in
**trust-delegate mode**: the engine has no trust ledger of its own;
every trust flush becomes a digest frame sent to the coordinator's
:class:`~repro.service.ledger.TrustLedger`, whose reply (the trusts
changed since this worker's last one) the engine merges into the
mirror it serves its reads from.

Startup sequence (identical for a cold start and a post-crash
restart, which is what makes supervision simple):

1. connect to the coordinator and send ``connect`` -- the connection
   must exist *before* recovery because replayed flushes re-emit their
   digests through it (the coordinator deduplicates by digest seq);
2. recover (or freshly create) the engine from the worker's WAL
   subdirectory;
3. read the **watermark** -- the highest coordinator sequence number
   this worker has durably processed -- from ``client_meta["g"]``: the
   snapshot carries it for the prefix, and the recovery replay merges
   the ``{"g": ...}`` meta of every WAL row since, so the one replay
   that rebuilds the engine also yields the watermark;
4. send ``hello`` with the watermark; the coordinator replies
   ``welcome`` with the current trust table (without this a recovered
   worker would serve scores from an empty mirror until its next
   flush) and then redelivers every owned ingest-WAL entry above the
   watermark;
5. run the frame loop: apply each ``ingest`` frame through
   ``engine.submit`` inside one :meth:`RatingEngine.group_commit`
   (passing each entry's coordinator seq as its ``wal_meta``, which
   the engine also merges into ``client_meta``, rejected entries
   included), answer ``rpc`` frames, and report cumulative
   ``processed`` counts for the coordinator's credit-based
   backpressure window.  The frame's WAL rows are fsynced once, when
   its group closes, and ``processed`` is sent only after that; a
   trust digest leaving mid-frame syncs the rows before it first.  A
   power loss can therefore take at most the frame not yet reported,
   which redelivery above the watermark restores.

A dropped coordinator connection is treated as a crash of the pair:
the worker syncs what it has and exits; recovery truth lives in the
WALs on both sides.
"""

from __future__ import annotations

import collections
import queue
import sys
import threading
import traceback
from multiprocessing.connection import Client, Connection
from pathlib import Path
from typing import Dict, Optional

from repro.errors import UnknownProductError
from repro.ratings.models import Rating
from repro.service.cluster.framing import recv_msg, send_msg
from repro.service.config import ServiceConfig
from repro.service.engine import RatingEngine
from repro.service.wal import rating_from_dict, wal_exists

__all__ = ["worker_main"]


def _watermark(engine: RatingEngine) -> int:
    """Highest coordinator seq this worker has processed (-1 = none)."""
    return int(engine.client_meta.get("g", -1))


class _WorkerRuntime:
    """The worker process's threads, queues, and engine."""

    def __init__(self, index: int, conn: Connection) -> None:
        self.index = index
        self.conn = conn
        self.engine: Optional[RatingEngine] = None
        self._send_lock = threading.Lock()
        # Replies to synchronous sends (digest -> trust, hello ->
        # welcome) bypass the work queue so the engine can block on
        # them mid-flush while ingest frames keep queueing behind.
        self._control: "queue.Queue[dict]" = queue.Queue()
        self._work: "collections.deque[dict]" = collections.deque()
        self._work_ready = threading.Condition()
        self._processed = 0  # cumulative ingest entries applied

    # -- transport ---------------------------------------------------------

    def send(self, msg: dict) -> None:
        with self._send_lock:
            send_msg(self.conn, msg)

    def recv_loop(self) -> None:
        """Socket -> queues; runs on a daemon thread.

        Never blocks on anything but the socket itself: the work deque
        is unbounded in-process, and is bounded in practice by the
        coordinator's credit window (it stops sending when
        ``sent - processed`` exceeds the queue depth).
        """
        while True:
            try:
                msg = recv_msg(self.conn)
            except (EOFError, OSError):
                msg = {"type": "coordinator_lost"}
            kind = msg.get("type")
            if kind in ("trust", "welcome"):
                self._control.put(msg)
            else:
                with self._work_ready:
                    self._work.append(msg)
                    self._work_ready.notify()
            if kind == "coordinator_lost":
                self._control.put(msg)
                return

    def next_work(self) -> dict:
        with self._work_ready:
            while not self._work:
                self._work_ready.wait()
            return self._work.popleft()

    # -- engine hooks ------------------------------------------------------

    def trust_delegate(self, digest: dict) -> Dict[int, float]:
        """Ship one flush digest; block for the trusts that changed."""
        self.send({"type": "digest", "worker": self.index, "digest": digest})
        reply = self._control.get()
        if reply.get("type") != "trust":
            raise EOFError("coordinator connection lost mid-flush")
        return {int(k): float(v) for k, v in reply["changed"].items()}

    # -- frame handlers ----------------------------------------------------

    def handle_ingest(self, msg: dict) -> None:
        assert self.engine is not None
        # One WAL fsync for the whole frame, when the group closes --
        # before the frame is reported processed below.
        with self.engine.group_commit():
            for g, row in msg["entries"]:
                self.engine.submit(rating_from_dict(row), wal_meta={"g": int(g)})
        self._processed += len(msg["entries"])
        self.send(
            {"type": "processed", "worker": self.index, "n": self._processed}
        )

    def handle_rpc(self, msg: dict) -> bool:
        """Answer one rpc frame; returns False when the loop should end."""
        assert self.engine is not None
        op = msg["op"]
        reply: dict = {"type": "reply", "id": msg["id"]}
        keep_running = True
        try:
            if op == "score":
                try:
                    reply["value"] = self.engine.score(int(msg["product_id"]))
                except UnknownProductError:
                    reply["error"] = "unknown_product"
            elif op == "has_product":
                reply["value"] = self.engine.has_product(int(msg["product_id"]))
            elif op == "flush":
                self.engine.flush()
                reply["ok"] = True
            elif op == "stats":
                reply["value"] = self.engine.snapshot_stats()
            elif op == "storage":
                reply["value"] = self.engine.storage_stats()
            elif op == "ensemble":
                reply["value"] = self.engine.ensemble_stats()
            elif op == "prepare_snapshot":
                # Phase 1: flush so the coordinator's snapshot covers
                # every digest this worker will ever emit for its
                # current WAL contents.  No ingest frames can arrive
                # between prepare and commit -- the coordinator holds
                # its route lock across the whole protocol.
                self.engine.flush()
                reply["ok"] = True
            elif op == "commit_snapshot":
                # Phase 2: persist local state; the reported watermark
                # lets the coordinator GC its ingest WAL.
                self.engine.snapshot()
                reply["watermark"] = _watermark(self.engine)
            elif op == "shutdown":
                # close() flushes first, so the final digests reach the
                # coordinator while its reader still serves replies.
                self.engine.close()
                reply["ok"] = True
                keep_running = False
            else:
                reply["error"] = f"unknown rpc op {op!r}"
        except Exception as exc:  # noqa: BLE001 - rpc boundary: the
            # coordinator turns this into a ReproError; the worker
            # process must survive a failing query.
            reply["error"] = f"{type(exc).__name__}: {exc}"
        self.send(reply)
        return keep_running

    def run(self) -> None:
        while True:
            msg = self.next_work()
            kind = msg["type"]
            if kind == "ingest":
                self.handle_ingest(msg)
            elif kind == "rpc":
                if not self.handle_rpc(msg):
                    return
            elif kind == "coordinator_lost":
                # Crash semantics by design: durable truth is in the
                # WALs.  Sync what we have and leave.
                if self.engine is not None and self.engine.wal is not None:
                    self.engine.wal.sync()
                return


def worker_main(index: int, address: str, authkey: bytes, config: dict) -> None:
    """Process entry point for worker ``index`` (spawn target).

    ``config`` is the worker's own engine config
    (:meth:`ServiceConfig.worker_config` output) as a plain dict --
    spawn pickles the args, and a dict keeps the pickle surface
    minimal.
    """
    try:
        worker_config = ServiceConfig.from_dict(config)
        conn = Client(address, authkey=authkey)
        runtime = _WorkerRuntime(index, conn)
        runtime.send({"type": "connect", "worker": index})
        receiver = threading.Thread(
            target=runtime.recv_loop, name=f"worker-{index}-recv", daemon=True
        )
        receiver.start()
        assert worker_config.wal_dir is not None
        wal_dir = Path(worker_config.wal_dir)
        if wal_exists(wal_dir):
            engine = RatingEngine.recover(
                wal_dir,
                config=worker_config,
                trust_delegate=runtime.trust_delegate,
            )
        else:
            engine = RatingEngine(
                config=worker_config, trust_delegate=runtime.trust_delegate
            )
        watermark = _watermark(engine)
        runtime.engine = engine
        runtime.send({"type": "hello", "worker": index, "watermark": watermark})
        welcome = runtime._control.get()
        if welcome.get("type") != "welcome":
            raise EOFError("coordinator connection lost during handshake")
        engine.install_trust_mirror(
            {int(k): float(v) for k, v in welcome["table"].items()}
        )
        runtime.run()
    except Exception:  # noqa: BLE001 - process boundary: leave a trace
        traceback.print_exc(file=sys.stderr)
        sys.exit(1)
