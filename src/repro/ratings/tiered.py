"""Durable rating storage: the full rating history in sqlite.

The in-memory rating store keeps every rating as a Python object
forever, so a long-running service's resident memory -- and the cost
of anything that walks full history -- grows without bound.
:class:`TieredRatingBackend` bounds that by keeping the bounded part
of the rating database (product and rater registries, in
:class:`~repro.ratings.store.RatingStore`) in RAM and moving the
unbounded part -- the rating rows -- to disk, the "quality repository"
shape the paper's MySQL-backed simulator (and related reputation
systems) assume.  The rows live in an sqlite3 database (stdlib, one
file per engine), keyed by their global write-ahead-log sequence
number, so recovery can line the database up against a WAL suffix
exactly.

Inserts are buffered and committed in batches of
:data:`COMMIT_EVERY`; a commit is durable (``synchronous=FULL``),
which is what makes it safe for the serving tier to garbage-collect
WAL segments older than the last snapshot.  Every read flushes the
insert buffer and queries sqlite, so reads always see every write.
"""

from __future__ import annotations

import sqlite3
import threading
from pathlib import Path
from typing import List, Optional, Union

from repro.errors import ConfigurationError
from repro.ratings.backend import RatingStoreBackend
from repro.ratings.models import Rating

__all__ = ["TieredRatingBackend"]

#: Buffered inserts per sqlite transaction.  Each commit is durable
#: (``synchronous=FULL``), so this trades the durable lag of the store
#: against one fsync per commit; engine snapshots commit regardless.
COMMIT_EVERY = 2048

_SCHEMA = """
CREATE TABLE IF NOT EXISTS ratings (
    seq        INTEGER PRIMARY KEY,
    rating_id  INTEGER NOT NULL,
    rater_id   INTEGER NOT NULL,
    product_id INTEGER NOT NULL,
    value      REAL    NOT NULL,
    time       REAL    NOT NULL,
    unfair     INTEGER NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_ratings_product ON ratings (product_id, seq);
CREATE INDEX IF NOT EXISTS idx_ratings_rater   ON ratings (rater_id, seq);
"""


def _rating_from_row(row: tuple) -> Rating:
    return Rating(
        rating_id=int(row[0]),
        rater_id=int(row[1]),
        product_id=int(row[2]),
        value=float(row[3]),
        time=float(row[4]),
        unfair=bool(row[5]),
    )


_SELECT_COLUMNS = "rating_id, rater_id, product_id, value, time, unfair"


class TieredRatingBackend(RatingStoreBackend):
    """Full rating history in sqlite, keyed by sequence number.

    The name (and ``store_backend="tiered"``) refers to the RAM/disk
    split: registries stay in RAM, rating rows live on disk.

    Args:
        path: sqlite database file (created with parents); ``None``
            uses an in-memory database -- same semantics, no
            durability, handy for tests and WAL-less engines.

    Thread safety: a single internal lock guards the connection and
    the insert buffer, so one backend may be shared by readers while
    an owner writes.  (Inside the serving engine every call
    additionally happens under the engine lock.)
    """

    name = "tiered"

    # Lint contract (CC03): all mutable store state is owned by _lock.
    _GUARDED_BY = {
        "_conn": "_lock",
        "_pending": "_lock",
        "_pending_new": "_lock",
        "_n_total": "_lock",
        "_n_committed": "_lock",
        "_next_seq": "_lock",
    }

    def __init__(self, path: Optional[Union[str, Path]] = None) -> None:
        self._path = Path(path) if path is not None else None
        self._lock = threading.Lock()
        if self._path is not None:
            self._path.parent.mkdir(parents=True, exist_ok=True)
        target = str(self._path) if self._path is not None else ":memory:"
        self._conn = sqlite3.connect(target, check_same_thread=False)
        self._conn.executescript(_SCHEMA)
        if self._path is not None:
            # WAL journaling keeps readers cheap; FULL synchronous makes
            # each commit a real durability point (the WAL-segment GC
            # horizon depends on it).
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=FULL")
        self._pending: List[tuple] = []
        self._pending_new = 0
        self._load_existing()

    # -- startup / recovery ------------------------------------------------

    def _load_existing(self) -> None:
        """Derive counters from whatever the database already holds.

        Callers hold ``_lock``; the ``__init__`` call is single-threaded
        (no other thread can see the backend during construction).
        """
        row = self._conn.execute(
            "SELECT COUNT(*), COALESCE(MAX(seq), -1) FROM ratings"
        ).fetchone()
        self._n_total = int(row[0])
        self._n_committed = int(row[0])
        self._next_seq = int(row[1]) + 1

    def truncate_from(self, seq: int) -> int:
        """Delete every row with sequence >= ``seq``; returns rows kept.

        Recovery calls this to roll the store back to exactly the
        state a snapshot covers before the WAL suffix is re-processed
        (re-ingested rows re-insert under their original sequence
        numbers, so the operation is idempotent).
        """
        if seq < 0:
            raise ConfigurationError(f"truncate_from needs seq >= 0, got {seq}")
        with self._lock:
            self._commit_locked()
            self._conn.execute("DELETE FROM ratings WHERE seq >= ?", (int(seq),))
            self._conn.commit()
            self._load_existing()
            return self._n_total

    def product_ids(self) -> List[int]:
        """Distinct product ids present in storage (sorted)."""
        with self._lock:
            self._commit_locked()
            return sorted(
                int(pid)
                for (pid,) in self._conn.execute(
                    "SELECT DISTINCT product_id FROM ratings"
                )
            )

    def rater_ids(self) -> List[int]:
        """Distinct rater ids present in storage (sorted)."""
        with self._lock:
            self._commit_locked()
            return sorted(
                int(rid)
                for (rid,) in self._conn.execute(
                    "SELECT DISTINCT rater_id FROM ratings"
                )
            )

    # -- writes ------------------------------------------------------------

    def add(self, rating: Rating, seq: Optional[int] = None) -> None:
        with self._lock:
            if seq is None:
                seq = self._next_seq
            seq = int(seq)
            row = (
                seq,
                rating.rating_id,
                rating.rater_id,
                rating.product_id,
                rating.value,
                rating.time,
                1 if rating.unfair else 0,
            )
            if seq >= self._next_seq or not self._seq_known_locked(seq):
                self._next_seq = max(self._next_seq, seq + 1)
                self._pending_new += 1
                self._n_total += 1
            # A known seq is an idempotent re-ingest (a replayed WAL
            # suffix): its row refreshes the original key at commit
            # and the counters stay untouched.
            self._pending.append(row)
            if len(self._pending) >= COMMIT_EVERY:
                self._commit_locked()

    def _seq_known_locked(self, seq: int) -> bool:
        """True when ``seq`` is already buffered or committed (lock held)."""
        if any(pending[0] == seq for pending in self._pending):
            return True
        return (
            self._conn.execute(
                "SELECT 1 FROM ratings WHERE seq = ?", (seq,)
            ).fetchone()
            is not None
        )

    def _commit_locked(self) -> None:
        if not self._pending:
            return
        self._conn.executemany(
            "INSERT OR REPLACE INTO ratings "
            "(seq, rating_id, rater_id, product_id, value, time, unfair) "
            "VALUES (?, ?, ?, ?, ?, ?, ?)",
            self._pending,
        )
        self._conn.commit()
        self._n_committed += self._pending_new
        self._pending = []
        self._pending_new = 0

    def commit(self) -> None:
        """Flush buffered inserts through a durable sqlite commit."""
        with self._lock:
            self._commit_locked()

    def close(self) -> None:
        """Commit any buffered rows and close the connection."""
        with self._lock:
            self._commit_locked()
            self._conn.close()

    # -- reads -------------------------------------------------------------

    @property
    def n_ratings(self) -> int:
        with self._lock:
            return self._n_total

    def product_ratings(self, product_id: int) -> List[Rating]:
        with self._lock:
            self._commit_locked()
            rows = self._conn.execute(
                f"SELECT {_SELECT_COLUMNS} FROM ratings "
                "WHERE product_id = ? ORDER BY seq",
                (int(product_id),),
            ).fetchall()
        return [_rating_from_row(row) for row in rows]

    def rater_ratings(self, rater_id: int) -> List[Rating]:
        with self._lock:
            self._commit_locked()
            rows = self._conn.execute(
                f"SELECT {_SELECT_COLUMNS} FROM ratings "
                "WHERE rater_id = ? ORDER BY seq",
                (int(rater_id),),
            ).fetchall()
        return [_rating_from_row(row) for row in rows]

    def all_ratings(self) -> List[Rating]:
        with self._lock:
            self._commit_locked()
            rows = self._conn.execute(
                f"SELECT {_SELECT_COLUMNS} FROM ratings ORDER BY seq"
            ).fetchall()
        return [_rating_from_row(row) for row in rows]

    def has_rated(self, rater_id: int, product_id: int) -> bool:
        with self._lock:
            self._commit_locked()
            row = self._conn.execute(
                "SELECT 1 FROM ratings WHERE rater_id = ? AND product_id = ? "
                "LIMIT 1",
                (int(rater_id), int(product_id)),
            ).fetchone()
            return row is not None

    def clear(self) -> None:
        with self._lock:
            self._pending = []
            # Dropping buffered rows must also drop their commit credit,
            # or the next _commit_locked inflates _n_committed by the
            # number of rows cleared here (visible in stats()).
            self._pending_new = 0
            self._conn.execute("DELETE FROM ratings")
            self._conn.commit()
            self._load_existing()

    # -- telemetry ---------------------------------------------------------

    def stats(self) -> dict:
        with self._lock:
            payload = {
                "backend": self.name,
                "cold_ratings": self._n_committed,
                "pending_ratings": len(self._pending),
                "path": str(self._path) if self._path is not None else None,
            }
        if self._path is not None and self._path.exists():
            payload["cold_bytes"] = self._path.stat().st_size
        return payload
