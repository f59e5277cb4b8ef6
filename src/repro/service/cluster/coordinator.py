"""The cluster coordinator: durable async ingest over worker processes.

:class:`ClusterCoordinator` presents the :class:`RatingEngine` serving
surface (``submit``/``score``/``trust``/``snapshot_stats``/...) while
fanning the actual work out to ``cluster_workers`` engine processes (:mod:`repro.service.cluster.worker`), so AR refits and
ensemble sweeps run on real parallel cores instead of time-slicing one
GIL.

**Ack path** (the latency-critical line): ``submit`` appends the
rating to the coordinator's own ingest WAL (group-committed every
``cluster_ack_fsync_every`` appends) and enqueues it on the owning
worker's bounded queue -- the ack means *durably queued*, detection
and trust updates happen asynchronously in the worker
(:attr:`SubmitResult.queued`).  A full queue blocks the submit:
backpressure, not unbounded memory.

**Trust** is coordinator-side: workers send per-flush digests
(provided counts, combined suspicion, flagged counts) to the
coordinator's :class:`~repro.service.ledger.TrustLedger` -- the same
code the in-process engine applies its own digests with -- and receive
in reply the trusts changed since their last reply, which they merge
into their read mirror (a (re)connecting worker gets the full table
in ``welcome``).  Digests carry the worker's deterministic flush
counter, so redelivered digests after a crash are recognized and
skipped while the reply still refreshes the worker's read mirror.

**Failure model**: every acked rating is in the ingest WAL.  Workers
log each applied entry's coordinator sequence number as its WAL meta
(snapshots keep the highest in ``client_meta``), and report that
*watermark*, as the worker's recovery replay rebuilt it, on
(re)connect; the coordinator redelivers owned entries above it.  A
worker death therefore costs a restart + bounded replay, never an
acked rating: the supervisor restarts the process, the worker recovers
its engine from its own WAL, and redelivery closes the gap.  A worker
fsyncs its log once per ingest frame (a group commit) and reports the
frame ``processed`` only after that fsync, so a power loss takes at
most the one frame it had not yet reported, and redelivery restores
that frame too.

**Snapshots** are a two-phase, cluster-wide protocol (see
:meth:`snapshot`): pause ingest, drain, have every worker flush
(phase 1 -- so the coordinator state about to be written covers every
digest the workers' durable state can regenerate), write the
coordinator snapshot, then have every worker snapshot locally
(phase 2) and garbage-collect the ingest WAL up to the lowest
watermark.  Writing the coordinator state *between* the two phases is
what makes a crash at any point recoverable without losing or
double-applying a digest.
"""

from __future__ import annotations

import itertools
import logging
import os
import queue
import tempfile
import threading
import time
from multiprocessing import get_context
from multiprocessing.connection import Connection, Listener
from pathlib import Path
from typing import Dict, List, Optional

from repro.errors import ConfigurationError, ReproError, UnknownProductError
from repro.ratings.models import Rating
from repro.service.cluster.framing import recv_msg, send_msg
from repro.service.cluster.ring import ConsistentHashRing
from repro.service.cluster.worker import worker_main
from repro.service.config import ServiceConfig
from repro.service.engine import GROUP_COMMIT_MAX, SubmitResult
from repro.service.ledger import TrustLedger
from repro.service.metrics import MetricsRegistry
from repro.service.wal import (
    WriteAheadLog,
    latest_snapshot,
    prune_snapshots,
    rating_to_dict,
    read_snapshot,
    replay_wal,
    write_snapshot,
)

__all__ = ["ClusterCoordinator"]

logger = logging.getLogger(__name__)

# Durability contracts (lint rules DP01-DP03): an ack may only follow
# the rating's append to the ingest WAL, and the snapshot protocol
# syncs the WAL before writing state and only GCs segments the written
# snapshot (plus the workers' own snapshots) covers.
__effect_contracts__ = {
    "ack_providers": ["ClusterCoordinator._ack"],
    "orderings": {
        "ClusterCoordinator.submit": [["wal_append", "ack"]],
        "ClusterCoordinator.snapshot": [
            ["wal_fsync", "snapshot_write"],
            ["snapshot_write", "wal_gc"],
        ],
    },
}

#: Sentinel closing a worker's send queue.
_STOP = object()

_HELLO_TIMEOUT = 300.0
_RPC_TIMEOUT = 120.0


class _WorkerHandle:
    """Coordinator-side state for one worker process.

    Credit-window fields (``sent``/``processed``/``busy``) are guarded
    by the ``credit`` condition; the rest is mutated only under the
    route/restart locks or before the worker is visible.
    """

    def __init__(self, index: int, depth: int) -> None:
        self.index = index
        self.process = None
        self.conn: Optional[Connection] = None
        self.queue: "queue.Queue" = queue.Queue(maxsize=depth)
        self.send_lock = threading.Lock()
        self.credit = threading.Condition()
        self.sent = 0  # entries sent on the current connection
        self.processed = 0  # entries the worker confirmed applying
        self.busy = False  # sender holds a popped, unsent batch
        self.discard = False  # drop queued entries (redelivery owns them)
        self.watermark = -1  # highest coordinator seq worker durably holds
        self.hello = threading.Event()
        self.up = False
        self.reader: Optional[threading.Thread] = None
        self.sender: Optional[threading.Thread] = None


class ClusterCoordinator:
    """Multi-process serving tier behind the engine's interface.

    Args:
        config: cluster config -- ``cluster_workers >= 1`` and a
            ``wal_dir`` are required; per-worker engine configs are
            derived via :meth:`ServiceConfig.worker_config`.
        metrics: registry for coordinator-side metrics (ack latency,
            per-worker queue depth and liveness, ingest WAL fsyncs).

    The constructor doubles as recovery: if the coordinator
    subdirectory holds a snapshot, the trust ledger (including the
    per-worker digest dedup seqs) is restored from it, workers recover
    their own engines from their WAL subdirectories, and the
    handshake's watermark exchange redelivers whatever the workers
    missed.
    """

    def __init__(
        self,
        config: ServiceConfig,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if config.cluster_workers < 1:
            raise ConfigurationError(
                "ClusterCoordinator needs cluster_workers >= 1 "
                "(use RatingEngine for the in-process tier)"
            )
        assert config.wal_dir is not None  # enforced by ServiceConfig
        self.config = config
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.ring = ConsistentHashRing(config.cluster_workers)
        # Digest origins are worker indexes.
        self._ledger = TrustLedger(config)
        self._route_lock = threading.RLock()
        self._restart_lock = threading.Lock()
        self._rpc_ids = itertools.count(1)
        self._rpcs: Dict[int, tuple] = {}
        self._rpcs_lock = threading.Lock()
        self._closing = False
        self._started = time.monotonic()

        m = self.metrics
        # Help texts come from metrics.SHARED_FAMILIES.  Acks and the
        # ingest WAL are the coordinator's own; rejections, refits and
        # flags mirror worker totals; trust updates count applied
        # worker digests.
        self._m_latency = m.histogram("repro_ingest_latency_seconds")
        self._m_accepted = m.counter("repro_ratings_accepted_total")
        self._m_rejected = m.counter("repro_ratings_rejected_total")
        self._m_refits = m.counter("repro_ar_refits_total")
        self._m_flagged = m.counter("repro_windows_flagged_total")
        self._m_trust_updates = m.counter("repro_trust_updates_total")
        self._m_fsync = m.histogram("repro_wal_fsync_seconds")
        self._m_wal_segments = m.gauge("repro_wal_segments")
        self._m_queue_depth = [
            m.gauge(
                "repro_ingest_queue_depth",
                "Acked ratings waiting in a worker's bounded ingest queue.",
                labels={"worker": str(i)},
            )
            for i in range(config.cluster_workers)
        ]
        self._m_worker_up = [
            m.gauge(
                "repro_worker_up",
                "1 while the worker process is connected and serving.",
                labels={"worker": str(i)},
            )
            for i in range(config.cluster_workers)
        ]

        coordinator_dir = Path(config.wal_dir) / "coordinator"
        state: Optional[dict] = None
        snapshot_path = latest_snapshot(coordinator_dir)
        if snapshot_path is not None:
            state = read_snapshot(snapshot_path)
            saved = ServiceConfig.from_dict(state["config"])
            if saved.cluster_workers != config.cluster_workers:
                raise ConfigurationError(
                    f"WAL directory was written by a "
                    f"{saved.cluster_workers}-worker cluster; resizing to "
                    f"{config.cluster_workers} workers is not supported "
                    f"(the hash ring would reroute owned products)"
                )
            self._ledger.load_state(state)
        self.wal: WriteAheadLog = WriteAheadLog(
            coordinator_dir,
            fsync_every=config.cluster_ack_fsync_every,
            segment_entries=config.wal_segment_entries,
            on_fsync=self._m_fsync.observe,
            on_rotate=self._m_wal_segments.set,
        )
        self._m_wal_segments.set(self.wal.n_segments)

        self._handles = [
            _WorkerHandle(i, config.cluster_queue_depth)
            for i in range(config.cluster_workers)
        ]

        # AF_UNIX socket in a private temp dir: path length stays under
        # the sockaddr_un limit no matter how deep wal_dir nests.
        self._sockdir = tempfile.mkdtemp(prefix="repro-cluster-")
        self._address = os.path.join(self._sockdir, "coordinator.sock")
        self._authkey = os.urandom(16)
        self._listener = Listener(self._address, "AF_UNIX", authkey=self._authkey)
        self._ctx = get_context("spawn")

        started = False
        try:
            for handle in self._handles:
                self._spawn(handle)
            pending: Dict[int, Connection] = {}
            for _ in self._handles:
                index, conn = self._accept(timeout=_HELLO_TIMEOUT)
                pending[index] = conn
            if sorted(pending) != list(range(len(self._handles))):
                raise ReproError(
                    f"cluster handshake mismatch: got connects from "
                    f"{sorted(pending)}"
                )
            for handle in self._handles:
                handle.conn = pending[handle.index]
                self._start_reader(handle)
            for handle in self._handles:
                self._await_hello(handle)
            self._reconcile_lost_tail()
            for handle in self._handles:
                self._welcome(handle)
                self._redeliver(handle)
                handle.up = True
                self._m_worker_up[handle.index].set(1.0)
            for handle in self._handles:
                self._start_sender(handle)
            started = True
        finally:
            if not started:
                self._teardown_transport()

    # -- process / transport plumbing -------------------------------------

    def _spawn(self, handle: _WorkerHandle) -> None:
        worker_config = self.config.worker_config(handle.index)
        handle.process = self._ctx.Process(
            target=worker_main,
            args=(
                handle.index,
                self._address,
                self._authkey,
                worker_config.to_dict(),
            ),
            name=f"repro-cluster-worker-{handle.index}",
        )
        handle.process.start()

    def _accept(self, timeout: float) -> tuple:
        """Accept one worker connection and read its ``connect`` frame."""
        result: dict = {}
        done = threading.Event()

        def run() -> None:
            try:
                conn = self._listener.accept()
                msg = recv_msg(conn)
                result["conn"] = conn
                result["index"] = int(msg["worker"])
            except Exception as exc:  # noqa: BLE001 - reported below
                result["error"] = exc
            done.set()

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        if not done.wait(timeout) or "conn" not in result:
            codes = {
                h.index: (h.process.exitcode if h.process is not None else None)
                for h in self._handles
            }
            raise ReproError(
                f"cluster worker failed to connect within {timeout:.0f}s "
                f"(worker exit codes: {codes}; error: {result.get('error')})"
            )
        return result["index"], result["conn"]

    def _start_reader(self, handle: _WorkerHandle) -> None:
        handle.reader = threading.Thread(
            target=self._reader_loop,
            args=(handle, handle.conn),
            name=f"cluster-reader-{handle.index}",
            daemon=True,
        )
        handle.reader.start()

    def _start_sender(self, handle: _WorkerHandle) -> None:
        handle.sender = threading.Thread(
            target=self._sender_loop,
            args=(handle,),
            name=f"cluster-sender-{handle.index}",
            daemon=True,
        )
        handle.sender.start()

    def _await_hello(self, handle: _WorkerHandle) -> None:
        if not handle.hello.wait(_HELLO_TIMEOUT):
            exitcode = (
                handle.process.exitcode if handle.process is not None else None
            )
            raise ReproError(
                f"cluster worker {handle.index} did not finish recovery "
                f"within {_HELLO_TIMEOUT:.0f}s (exit code: {exitcode})"
            )

    def _reconcile_lost_tail(self) -> None:
        """Keep ingest sequence numbers unique across a torn WAL tail.

        A coordinator crash can lose the unsynced tail of the ingest
        WAL -- acks inside the ``cluster_ack_fsync_every`` group-commit
        window -- while the owning workers already applied and logged
        those very entries.  A worker fsyncs each ingest frame as one
        group before it reports the frame ``processed``, so after a
        power loss its log holds every frame it reported and may lack
        only the one it was applying.  The entries the worker logs
        kept are safe there; the danger is sequence reuse: a
        fresh append would hand a new rating a sequence number some
        worker has already stamped on an old one, aliasing the two in
        every watermark/redelivery computation from then on.  Pad the
        log with control rows (bounded by the fsync window) so the
        next real append lands above every worker's watermark.
        """
        top = max(handle.watermark for handle in self._handles)
        lost = top + 1 - self.wal.n_entries
        if lost <= 0:
            return
        logger.warning(
            "ingest WAL lost %d acked entries to a crash (worker "
            "watermark %d, WAL end %d); padding to keep sequence "
            "numbers unique",
            lost,
            top,
            self.wal.n_entries,
        )
        for _ in range(lost):
            self.wal.append_control({"lost_ack_tail": True})
        self.wal.sync()

    def _welcome(self, handle: _WorkerHandle) -> None:
        """Push the full trust table so a recovered worker's read
        mirror is warm before it serves a single score."""
        table = self._ledger.welcome(handle.index)
        with handle.send_lock:
            send_msg(handle.conn, {"type": "welcome", "table": table})

    def _teardown_transport(self) -> None:
        """Best-effort cleanup for a failed startup or final close."""
        for handle in self._handles:
            if handle.conn is not None:
                try:
                    handle.conn.close()
                except OSError:
                    pass
            if handle.process is not None and handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=10)
        try:
            self._listener.close()
        except OSError:
            pass
        try:
            # Ephemeral rendezvous socket in a mkdtemp dir -- losing
            # the unlink to a power failure is harmless, so no
            # directory fsync is owed here.
            os.unlink(self._address)  # repro: lint-disable[DP01]
        except OSError:
            pass
        try:
            os.rmdir(self._sockdir)
        except OSError:
            pass

    # -- background threads -------------------------------------------------

    def _reader_loop(self, handle: _WorkerHandle, conn: Connection) -> None:
        """Dispatch frames from one worker connection until it drops."""
        while True:
            try:
                msg = recv_msg(conn)
            except (EOFError, OSError):
                break
            kind = msg.get("type")
            if kind == "digest":
                self._apply_digest(handle, msg["digest"], conn)
            elif kind == "hello":
                handle.watermark = int(msg["watermark"])
                handle.hello.set()
            elif kind == "processed":
                with handle.credit:
                    handle.processed = int(msg["n"])
                    handle.credit.notify_all()
            elif kind == "reply":
                self._complete_rpc(msg)
        if conn is not handle.conn:
            return  # superseded by a restart; the new reader owns the handle
        self._on_worker_down(handle)

    def _sender_loop(self, handle: _WorkerHandle) -> None:
        """Drain the bounded queue into batched ingest frames.

        Honors the credit window (``sent - processed`` never exceeds
        the queue depth, so worker-side buffering stays bounded) and
        the ``discard`` flag: while a worker is down its acked entries
        are simply dropped here -- the ingest WAL owns them and the
        restart path redelivers everything above the watermark, so
        discarding can never lose an acked rating, and it is what
        keeps a full queue from deadlocking the restart.
        """
        while True:
            item = self.queue_get(handle)
            stop = item is _STOP
            batch: List[list] = [] if stop else [item]
            while not stop and len(batch) < GROUP_COMMIT_MAX:
                try:
                    extra = handle.queue.get_nowait()
                except queue.Empty:
                    break
                if extra is _STOP:
                    stop = True
                    break
                batch.append(extra)
            if batch and not handle.discard:
                try:
                    self._send_ingest(handle, batch)
                except (OSError, ValueError):
                    pass  # worker dropped mid-send; redelivery owns the batch
            with handle.credit:
                handle.busy = False
                handle.credit.notify_all()
            if stop:
                return

    def queue_get(self, handle: _WorkerHandle):
        """Blocking pop that marks the handle busy atomically-enough:
        the ``busy`` flag is raised before this returns, so drain loops
        never observe an empty queue while a batch is in flight."""
        item = handle.queue.get()
        with handle.credit:
            handle.busy = True
        return item

    def _send_ingest(self, handle: _WorkerHandle, batch: List[list]) -> None:
        with handle.credit:
            while (
                not handle.discard
                and handle.sent - handle.processed + len(batch)
                > self.config.cluster_queue_depth
            ):
                handle.credit.wait(0.1)
            if handle.discard:
                return
        with handle.send_lock:
            send_msg(handle.conn, {"type": "ingest", "entries": batch})
        with handle.credit:
            handle.sent += len(batch)

    def _apply_digest(
        self, handle: _WorkerHandle, digest: dict, conn: Connection
    ) -> None:
        """Apply one worker flush digest and reply with the trusts
        that changed since the worker's last reply.

        Redelivered digests (replays after a crash) change nothing but
        are still answered, so the worker's mirror refreshes.
        """
        new, changed = self._ledger.apply(digest, handle.index)
        if new:
            self._m_trust_updates.inc()
        with handle.send_lock:
            send_msg(conn, {"type": "trust", "changed": changed})

    # -- supervision ---------------------------------------------------------

    def _on_worker_down(self, handle: _WorkerHandle) -> None:
        if self._closing:
            return
        handle.up = False
        self._m_worker_up[handle.index].set(0.0)
        with handle.credit:
            handle.discard = True
            handle.credit.notify_all()
        self._fail_rpcs(handle)
        try:
            self._restart_worker(handle)
        except Exception:  # noqa: BLE001 - supervisor boundary: a failed
            # restart leaves the worker down (acked entries stay safe in
            # the ingest WAL and redeliver on the next successful start).
            logger.exception("cluster worker %d restart failed", handle.index)

    def _fail_rpcs(self, handle: _WorkerHandle) -> None:
        with self._rpcs_lock:
            doomed = [
                rid
                for rid, (owner, _, _) in self._rpcs.items()
                if owner is handle
            ]
            for rid in doomed:
                _, event, slot = self._rpcs.pop(rid)
                slot["msg"] = {"error": f"worker {handle.index} connection lost"}
                event.set()

    def _restart_worker(self, handle: _WorkerHandle) -> None:
        """Supervisor: respawn a dead worker and close its ingest gap.

        Holding the route lock across the respawn freezes the ingest
        WAL end, so the redelivery range ``(watermark, end)`` is exact;
        the discarding sender has already drained (or is draining) the
        bounded queue, so waiting on it cannot deadlock against a
        blocked submit.
        """
        with self._restart_lock:
            logger.warning("cluster worker %d died; restarting", handle.index)
            if handle.conn is not None:
                try:
                    handle.conn.close()
                except OSError:
                    pass
            if handle.process is not None:
                handle.process.join(timeout=30)
            with self._route_lock:
                self._drain_handle(handle)
                handle.hello.clear()
                with handle.credit:
                    handle.sent = 0
                    handle.processed = 0
                self._spawn(handle)
                index, conn = self._accept(timeout=_HELLO_TIMEOUT)
                if index != handle.index:
                    raise ReproError(
                        f"restart handshake: expected worker {handle.index}, "
                        f"got {index}"
                    )
                handle.conn = conn
                self._start_reader(handle)
                self._await_hello(handle)
                self._welcome(handle)
                self._redeliver(handle)
                with handle.credit:
                    handle.discard = False
                    handle.credit.notify_all()
                handle.up = True
                self._m_worker_up[handle.index].set(1.0)
                logger.warning(
                    "cluster worker %d recovered (watermark %d)",
                    handle.index,
                    handle.watermark,
                )

    def _redeliver(self, handle: _WorkerHandle) -> None:
        """Resend owned ingest-WAL entries above the worker's watermark.

        Callers hold the route lock, so ``wal.n_entries`` is frozen and
        every replayed entry either reached the worker durably (``<=``
        watermark, skipped) or is resent here in original ack order.
        Re-sent entries the worker *did* process but could not fsync
        are re-applied idempotently: rejected ones reject again
        deterministically, and accepted ones were lost with the WAL
        tail they would have occupied -- after a power loss, at most
        the one ingest frame whose group commit had not yet synced,
        which the worker had therefore not reported ``processed``.
        """
        self.wal.sync()
        end = self.wal.n_entries
        start = handle.watermark + 1
        if start >= end:
            return
        batch: List[list] = []
        resent = 0
        for seq, rating in replay_wal(self.wal.directory, start=start):
            if self.ring.owner(rating.product_id) != handle.index:
                continue
            batch.append([seq, rating_to_dict(rating)])
            resent += 1
            if len(batch) >= GROUP_COMMIT_MAX:
                self._send_ingest_direct(handle, batch)
                batch = []
        if batch:
            self._send_ingest_direct(handle, batch)
        if resent:
            logger.info(
                "cluster worker %d: redelivered %d entries from seq %d",
                handle.index,
                resent,
                start,
            )

    def _send_ingest_direct(self, handle: _WorkerHandle, batch: List[list]) -> None:
        """Redelivery send: same credit window, but never discards."""
        with handle.credit:
            while (
                handle.sent - handle.processed + len(batch)
                > self.config.cluster_queue_depth
            ):
                handle.credit.wait(0.1)
        with handle.send_lock:
            send_msg(handle.conn, {"type": "ingest", "entries": batch})
        with handle.credit:
            handle.sent += len(batch)

    def _drain_handle(self, handle: _WorkerHandle, timeout: float = 600.0) -> None:
        """Wait until the worker's queue is empty and all sent entries
        are confirmed applied (or discarded).  Route lock held."""
        deadline = time.monotonic() + timeout
        while True:
            with handle.credit:
                idle = handle.queue.empty() and not handle.busy and (
                    handle.discard or handle.sent <= handle.processed
                )
            if idle:
                return
            if time.monotonic() > deadline:
                raise ReproError(
                    f"cluster worker {handle.index} failed to drain within "
                    f"{timeout:.0f}s"
                )
            time.sleep(0.001)

    # -- rpc ----------------------------------------------------------------

    def _rpc(
        self,
        handle: _WorkerHandle,
        op: str,
        timeout: float = _RPC_TIMEOUT,
        **kwargs,
    ) -> dict:
        if not handle.up:
            raise ReproError(f"cluster worker {handle.index} is down")
        rpc_id = next(self._rpc_ids)
        event = threading.Event()
        slot: dict = {}
        with self._rpcs_lock:
            self._rpcs[rpc_id] = (handle, event, slot)
        try:
            with handle.send_lock:
                send_msg(
                    handle.conn, {"type": "rpc", "id": rpc_id, "op": op, **kwargs}
                )
        except (OSError, ValueError) as exc:
            with self._rpcs_lock:
                self._rpcs.pop(rpc_id, None)
            raise ReproError(
                f"cluster worker {handle.index} unreachable: {exc}"
            ) from exc
        if not event.wait(timeout):
            with self._rpcs_lock:
                self._rpcs.pop(rpc_id, None)
            raise ReproError(
                f"cluster worker {handle.index} rpc {op!r} timed out "
                f"after {timeout:.0f}s"
            )
        msg = slot["msg"]
        error = msg.get("error")
        if error == "unknown_product":
            raise UnknownProductError(
                f"product {kwargs.get('product_id')} is not registered"
            )
        if error:
            raise ReproError(f"cluster worker {handle.index} {op}: {error}")
        return msg

    def _complete_rpc(self, msg: dict) -> None:
        with self._rpcs_lock:
            entry = self._rpcs.pop(int(msg["id"]), None)
        if entry is None:
            return  # timed out and abandoned
        _, event, slot = entry
        slot["msg"] = msg
        event.set()

    # -- ingest ---------------------------------------------------------------

    def submit(self, rating: Rating) -> SubmitResult:
        """Durably log one rating and queue it to its owning worker.

        The ack means *durably queued*: the rating is in the ingest WAL,
        handed to the OS before the ack (so a process kill keeps it)
        and fsynced every ``cluster_ack_fsync_every`` appends, and it
        will reach the owning worker even across worker crashes.
        Rejection (out-of-order time) happens asynchronously at the
        worker, so an acked rating can still be refused later --
        mirroring any at-least-once ingestion pipeline.  A full worker
        queue blocks here (backpressure).
        """
        return self.submit_many([rating])[0]

    def _ack(self, seq: int) -> SubmitResult:
        """Acknowledge a durably-queued rating (lint DP02 ack provider)."""
        self._m_accepted.inc()
        return SubmitResult(accepted=True, seq=seq, queued=True)

    def submit_many(self, ratings) -> List[SubmitResult]:
        """Ingest a batch as :meth:`submit` does; one result per rating.

        Each chunk of :data:`GROUP_COMMIT_MAX` ratings is handed to the
        OS in one write, before its acks.
        """
        results: List[SubmitResult] = []
        iterator = iter(ratings)
        while True:
            chunk = list(itertools.islice(iterator, GROUP_COMMIT_MAX))
            if not chunk:
                return results
            start = time.perf_counter()
            seqs = []
            for position, rating in enumerate(chunk, 1):
                if self._closing:
                    raise ReproError("cluster is shutting down")
                handle = self._handles[self.ring.owner(rating.product_id)]
                with self._route_lock:
                    seq = self.wal.append(rating)
                    if position == len(chunk):
                        # The write goes before the put: the GIL it
                        # releases would otherwise go to the sender
                        # thread the put wakes, and the ack would wait
                        # for that thread's frame.
                        self.wal.flush()
                    handle.queue.put([seq, rating_to_dict(rating)])
                seqs.append(seq)
            for seq in seqs:
                results.append(self._ack(seq))
                self._m_latency.observe(time.perf_counter() - start)

    @property
    def n_accepted(self) -> int:
        """Ratings ever acked (= ingest WAL entries)."""
        return self.wal.n_entries

    @property
    def n_workers(self) -> int:
        return len(self._handles)

    # -- queries --------------------------------------------------------------

    def _owner_handle(self, product_id: int) -> _WorkerHandle:
        return self._handles[self.ring.owner(product_id)]

    def _wait_applied(self, handle: _WorkerHandle, timeout: float = 30.0) -> None:
        """Best-effort read-your-writes: let the worker catch up to the
        entries already queued before serving the read."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with handle.credit:
                caught_up = handle.queue.empty() and not handle.busy and (
                    handle.sent <= handle.processed
                )
            if caught_up or not handle.up:
                return
            time.sleep(0.001)

    def score(self, product_id: int) -> Optional[float]:
        """Trust-weighted score from the owning worker.

        Waits (bounded) for the worker to apply already-acked entries
        first, so a score read right after an ack sees the rating.
        """
        handle = self._owner_handle(product_id)
        self._wait_applied(handle)
        return self._rpc(handle, "score", product_id=int(product_id))["value"]

    def has_product(self, product_id: int) -> bool:
        """True when the owning worker has seen the product."""
        handle = self._owner_handle(product_id)
        self._wait_applied(handle)
        return bool(
            self._rpc(handle, "has_product", product_id=int(product_id))["value"]
        )

    def trust(self, rater_id: int) -> float:
        """Current trust in a rater (authoritative, coordinator-side)."""
        return self._ledger.trust(rater_id)

    def trust_table(self) -> Dict[int, float]:
        """rater_id -> trust for every rater with a record."""
        return self._ledger.trust_table()

    def detected_malicious(self) -> List[int]:
        """Raters currently below the detection threshold."""
        return self._ledger.detected_malicious()

    def suspicion_table(self) -> Dict[int, float]:
        """rater_id -> combined suspicion mass ever applied via digests."""
        return self._ledger.suspicion_table()

    def _await_workers(self, deadline: float) -> None:
        """Block until every worker is up (a restart may be in flight).

        Must be called *without* the route lock: a supervisor restart
        needs that lock to finish, so waiting while holding it would
        deadlock against the recovery this wait is waiting for.
        """
        while True:
            down = [h.index for h in self._handles if not h.up]
            if not down:
                return
            if time.monotonic() > deadline:
                raise ReproError(f"cluster workers {down} did not recover")
            time.sleep(0.005)

    def flush(self, timeout: float = 600.0) -> None:
        """Drain every queue and flush every worker's pending tallies.

        Rides out worker restarts: if a worker dies mid-flush (or was
        already mid-restart when flush was called), waits for the
        supervisor to bring it back and retries, failing only after
        ``timeout`` seconds without a full healthy pass.
        """
        deadline = time.monotonic() + timeout
        while True:
            self._await_workers(deadline)
            try:
                with self._route_lock:
                    for handle in self._handles:
                        self._drain_handle(handle)
                    for handle in self._handles:
                        self._rpc(handle, "flush")
                return
            except ReproError:
                # Only a concurrent worker death is retryable; a worker
                # that answered with an error would fail again anyway.
                if all(h.up for h in self._handles) or time.monotonic() > deadline:
                    raise

    def _merge_ensembles(self, per_worker: List[dict]) -> dict:
        """One ensemble view from per-worker ones: config from the
        first, ``n_evictions`` summed per source."""
        if not per_worker:
            return {"combiner": self.config.ensemble_combiner, "sources": {}}
        merged = per_worker[0]
        for stats in per_worker[1:]:
            for name, source in stats["sources"].items():
                merged["sources"][name]["n_evictions"] += source["n_evictions"]
        return merged

    def _poll(self, op: str) -> List[Optional[dict]]:
        """``op``'s rpc value per worker; None where the worker is down
        or fails to answer."""
        values: List[Optional[dict]] = []
        for handle in self._handles:
            try:
                values.append(self._rpc(handle, op)["value"])
            except ReproError:
                values.append(None)
        return values

    def _worker_entries(self, op: str) -> List[dict]:
        """``{"worker": i, "up": ...}`` plus ``op``'s value, per worker."""
        return [
            {"worker": index, "up": value is not None, **(value or {})}
            for index, value in enumerate(self._poll(op))
        ]

    def ensemble_stats(self) -> dict:
        """Merged detector-ensemble config + counters across workers."""
        return self._merge_ensembles(
            [value for value in self._poll("ensemble") if value is not None]
        )

    def snapshot_stats(self) -> dict:
        """Cluster-wide counters: coordinator view + per-worker stats."""
        workers = self._worker_entries("stats")
        up = [stats for stats in workers if stats["up"]]
        totals = {
            field: sum(int(stats[field]) for stats in up)
            for field in ("n_rejected", "n_products", "ar_evaluations", "windows_flagged")
        }
        self._m_rejected.inc_to(totals["n_rejected"])
        self._m_flagged.inc_to(totals["windows_flagged"])
        self._m_refits.inc_to(totals["ar_evaluations"])
        uptime = time.monotonic() - self._started
        accepted = self.n_accepted
        n_raters, trust_updates = self._ledger.counts()
        return {
            "uptime_seconds": uptime,
            "n_accepted": accepted,
            "n_rejected": totals["n_rejected"],
            "n_products": totals["n_products"],
            "n_raters": n_raters,
            "n_workers": len(self._handles),
            "ar_evaluations": totals["ar_evaluations"],
            "windows_flagged": totals["windows_flagged"],
            "trust_updates": trust_updates,
            "ratings_per_second": accepted / uptime if uptime > 0 else 0.0,
            "workers": workers,
            "ensemble": self._merge_ensembles([stats["ensemble"] for stats in up]),
            "wal_entries": self.wal.n_entries,
        }

    def storage_stats(self) -> dict:
        """Tier occupancy per worker plus the coordinator's ingest WAL."""
        workers = self._worker_entries("storage")
        cold = sum(int(stats.get("cold_ratings", 0)) for stats in workers)
        pending = sum(int(stats.get("pending_ratings", 0)) for stats in workers)
        segments = self.wal.segments()
        self._m_wal_segments.set(len(segments))
        return {
            "backend": self.config.store_backend,
            "cold_ratings": cold,
            "pending_ratings": pending,
            "workers": workers,
            "wal": {
                "directory": str(self.wal.directory),
                "n_entries": self.wal.n_entries,
                "first_seq": self.wal.first_seq,
                "n_segments": len(segments),
                "segment_entries": self.wal.segment_entries,
                "segments": [
                    {"start": start, "file": path.name}
                    for start, path in segments
                ],
                "gc_enabled": bool(self.config.wal_gc),
            },
        }

    def render_metrics(self) -> str:
        """Refresh per-worker gauges and render the Prometheus text."""
        for handle in self._handles:
            self._m_queue_depth[handle.index].set(handle.queue.qsize())
            self._m_worker_up[handle.index].set(1.0 if handle.up else 0.0)
        return self.metrics.render()

    # -- durability -----------------------------------------------------------

    def _state_dict(self) -> dict:
        return {
            "version": 1,
            "config": self.config.to_dict(),
            "wal_position": self.wal.n_entries,
            **self._ledger.state_dict(),
        }

    def snapshot(self) -> Path:
        """Cluster-wide two-phase snapshot; returns the coordinator's path.

        Under the route lock (no new acks) and after a full drain:

        1. **prepare** -- every worker flushes, so every digest its
           durable WAL can ever regenerate is applied here *before*
           the coordinator state is written;
        2. the coordinator writes its own snapshot (trust records,
           suspicion totals, per-worker digest dedup seqs);
        3. **commit** -- every worker snapshots locally and reports
           its watermark;
        4. the ingest WAL is GC'd below the lowest watermark (each
           entry at or below it is durably inside some worker's
           snapshot+WAL) and superseded coordinator snapshots pruned.

        A crash between 2 and 3 is safe: workers replay their WALs and
        re-emit post-snapshot digests, which the restored dedup seqs
        admit exactly once.  A crash between 1 and 2 merely loses the
        coordinator's progress -- the previous snapshot plus
        redelivered digests still reconstruct the same state.
        """
        self._await_workers(time.monotonic() + _RPC_TIMEOUT)
        with self._route_lock:
            for handle in self._handles:
                self._drain_handle(handle)
            for handle in self._handles:
                self._rpc(handle, "prepare_snapshot", timeout=_RPC_TIMEOUT)
            # fsync under the route lock on purpose: releasing it first
            # would let new appends blur the snapshot's cut point.
            self.wal.sync()  # repro: lint-disable[CC02]
            state = self._state_dict()
            path = write_snapshot(self.wal.directory, state)
            watermarks = []
            for handle in self._handles:
                reply = self._rpc(handle, "commit_snapshot", timeout=_RPC_TIMEOUT)
                watermarks.append(int(reply["watermark"]))
            if self.config.wal_gc:
                horizon = min(watermarks) + 1
                if horizon > 0:
                    # GC (and its directory fsync) stays under the
                    # route lock so the watermark-derived horizon
                    # cannot race a concurrent append's rotation.
                    self.wal.gc(horizon)  # repro: lint-disable[CC02]
                prune_snapshots(self.wal.directory, keep=1)
            return path

    def close(self) -> None:
        """Drain, snapshot, stop every worker, and release the WAL."""
        if self._closing:
            return
        try:
            self.flush()
        except ReproError:
            logger.exception("cluster close: flush failed")
        try:
            self.snapshot()
        except (ReproError, ConfigurationError):
            logger.exception("cluster close: final snapshot failed")
        self._closing = True
        for handle in self._handles:
            handle.queue.put(_STOP)
        for handle in self._handles:
            if handle.sender is not None:
                handle.sender.join(timeout=30)
            if handle.up:
                try:
                    self._rpc(handle, "shutdown", timeout=_RPC_TIMEOUT)
                except ReproError:
                    logger.exception(
                        "cluster close: worker %d shutdown rpc failed",
                        handle.index,
                    )
            handle.up = False
        self._teardown_transport()
        self.wal.close()
