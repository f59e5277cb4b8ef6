"""Production serving subsystem: the long-running rating platform.

Everything before this package was batch -- re-processing intervals
offline.  ``repro.service`` is the live half of the paper's Fig. 1
portal: a thread-safe :class:`RatingEngine` streaming ratings
through a pluggable online detector ensemble
(:mod:`repro.service.ensemble`: the paper's AR signal model, an
incremental co-rating collusion graph, online iterative filtering)
and batched Procedure 2 trust updates, segmented write-ahead-log
durability with atomic snapshots and segment garbage collection
(:mod:`repro.service.wal`), tiered rating storage (rating rows in
sqlite, :mod:`repro.ratings.tiered`), dependency-free
Prometheus metrics (:mod:`repro.service.metrics`), and a stdlib JSON
HTTP API (:mod:`repro.service.http`).

When one process is not enough, :mod:`repro.service.cluster` runs the
same engine as a multi-process sharded tier -- a coordinator process
acking ratings from its own WAL and routing them to engine worker
processes over a consistent-hash ring (true multi-core scaling, no
GIL contention between workers).  Processes are the only partitioning
mechanism: one in-process engine is one partition.

Run it from the command line::

    repro serve --port 8080 --wal-dir ./wal
    repro serve --port 8080 --workers 4 --wal-dir ./wal   # multi-process
    repro replay trace.csv

or embed it::

    from repro.service import RatingEngine, ServiceConfig
    engine = RatingEngine(ServiceConfig(wal_dir="./wal"))
    engine.submit(rating)
    engine.score(rating.product_id)
"""

from repro.service.config import ServiceConfig
from repro.service.engine import RatingEngine, SubmitResult
from repro.service.ensemble import OnlineSuspicionSource
from repro.service.http import RatingServiceServer, make_server, serve
from repro.service.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.service.wal import (
    WriteAheadLog,
    latest_snapshot,
    list_segments,
    prune_snapshots,
    read_snapshot,
    replay_wal,
    wal_exists,
    write_snapshot,
)

__all__ = [
    "ServiceConfig",
    "RatingEngine",
    "SubmitResult",
    "OnlineSuspicionSource",
    "RatingServiceServer",
    "make_server",
    "serve",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "WriteAheadLog",
    "latest_snapshot",
    "list_segments",
    "prune_snapshots",
    "read_snapshot",
    "replay_wal",
    "wal_exists",
    "write_snapshot",
]
