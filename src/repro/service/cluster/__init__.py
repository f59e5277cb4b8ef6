"""Multi-process sharded serving tier.

The cluster escapes the GIL by running ``cluster_workers``
:class:`~repro.service.engine.RatingEngine` processes behind a
:class:`~repro.service.cluster.coordinator.ClusterCoordinator` that
routes products over a consistent-hash ring, acks ratings after its
own WAL append (async ingest), aggregates trust centrally from worker
flush digests, and supervises worker restarts with watermark-based
redelivery so a crash never loses an acked rating.

Transport is pure stdlib: ``multiprocessing.connection`` over an
AF_UNIX socket with HMAC handshake, carrying length-prefixed JSON
frames (:mod:`repro.service.cluster.framing`).
"""

from repro.service.cluster.coordinator import ClusterCoordinator
from repro.service.cluster.framing import recv_msg, send_msg
from repro.service.cluster.ring import ConsistentHashRing
from repro.service.cluster.worker import worker_main

__all__ = [
    "ClusterCoordinator",
    "ConsistentHashRing",
    "recv_msg",
    "send_msg",
    "worker_main",
]
