"""Durability for the rating service: segmented WAL + snapshots.

The serving engine must survive a crash with its trust and suspicion
state intact, and must recover in time bounded by the work since its
last snapshot -- never by total history.  Two stdlib-only mechanisms
provide that:

* :class:`WriteAheadLog` -- an append-only JSON-Lines log of every
  *accepted* rating, written before the rating mutates any in-memory
  state.  The log is split into numbered **segments**
  (``wal-000000000012.jsonl`` holds entries from sequence 12 up), a
  new segment starting every ``segment_entries`` appends.  Replaying
  the log through a fresh engine reproduces the exact pre-crash
  state, because the whole pipeline is deterministic in arrival
  order.  Segments whose every entry is covered by the latest durable
  snapshot (and, with a durable rating backend, by the cold storage
  tier) can be garbage-collected with :meth:`WriteAheadLog.gc`, so
  disk usage and recovery time stay proportional to the suffix since
  the last snapshot.
* Snapshots -- periodic JSON dumps of the engine's bounded state
  (trust records, the per-source state of the detector ensemble,
  pending batch tallies, counters) written atomically via
  ``os.replace`` followed by a **directory fsync**, so a power loss
  after the rename cannot silently lose the file.  A snapshot records
  the WAL position it covers, so recovery only has to *re-process*
  the WAL suffix.

Crash tolerance at the byte level:

* A crash mid-append can leave one torn (truncated) final line in the
  newest segment.  :func:`replay_wal` tolerates exactly that -- the
  torn trailing line is logged and dropped -- and
  :class:`WriteAheadLog` truncates it away on open so a later append
  can never concatenate onto the partial record.  Corruption anywhere
  else still fails recovery loudly.
* Opening a WAL derives its entry count from segment names plus the
  newest segment only (O(segment), not O(history)), and takes an
  exclusive ``wal.lock`` so two engines can never silently interleave
  appends into one directory.

File layout inside a WAL directory::

    wal-000000000000.jsonl      entries [0, 12)   (rotated, GC-able)
    wal-000000000012.jsonl      entries [12, ...) (active segment)
    wal.lock                    exclusive-owner lockfile
    snapshot-000000000420.json  state through the first 420 WAL entries
    store/                      cold tier of the tiered rating backend

Recovery (:meth:`repro.service.engine.RatingEngine.recover`) loads the
highest-numbered snapshot and replays the WAL from its position.
"""

from __future__ import annotations

import json
import logging
import os
import re
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path
from typing import Callable, Iterator, List, Optional, Tuple, Union

try:  # POSIX-only; the lockfile degrades to advisory-absent elsewhere
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from repro.errors import ConfigurationError
from repro.ratings.models import Rating

__all__ = [
    "WriteAheadLog",
    "rating_to_dict",
    "rating_from_dict",
    "replay_wal",
    "replay_wal_meta",
    "write_snapshot",
    "read_snapshot",
    "latest_snapshot",
    "list_snapshots",
    "prune_snapshots",
    "list_segments",
    "wal_exists",
    "WAL_LOCK_FILENAME",
]

# Domain contracts checked by `repro lint` (rule family DI): sequence
# positions and GC horizons are non-negative; rotation/batching knobs
# are positive counts.
__lint_contracts__ = {
    "WriteAheadLog.__init__": {
        "params": {"fsync_every": "[1, inf)", "segment_entries": "[1, inf)"},
    },
    "WriteAheadLog.gc": {"params": {"horizon": "[0, inf)"}},
    "replay_wal": {"params": {"start": "[0, inf)"}},
    "replay_wal_meta": {"params": {"start": "[0, inf)"}},
    "prune_snapshots": {"params": {"keep": "[1, inf)"}},
}

logger = logging.getLogger(__name__)

PathLike = Union[str, Path]

WAL_LOCK_FILENAME = "wal.lock"
_SEGMENT_RE = re.compile(r"^wal-(\d{12})\.jsonl$")
_SNAPSHOT_RE = re.compile(r"^snapshot-(\d{12})\.json$")


def rating_to_dict(rating: Rating) -> dict:
    """JSON-ready dict for one rating (inverse of :func:`rating_from_dict`)."""
    return asdict(rating)


def rating_from_dict(row: dict) -> Rating:
    """Rebuild a rating from its WAL/snapshot dict form."""
    try:
        return Rating(
            rating_id=int(row["rating_id"]),
            rater_id=int(row["rater_id"]),
            product_id=int(row["product_id"]),
            value=float(row["value"]),
            time=float(row["time"]),
            unfair=bool(row.get("unfair", False)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"malformed WAL rating {row!r}: {exc}") from exc


# -- directory plumbing ----------------------------------------------------


def _fsync_dir(directory: Path) -> None:
    """Flush a directory's entry table (renames/creates/unlinks)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - directory fsync unsupported
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - e.g. fsync on dirs not permitted
        pass
    finally:
        os.close(fd)


def _segment_path(directory: Path, start: int) -> Path:
    return directory / f"wal-{start:012d}.jsonl"


def list_segments(directory: PathLike) -> List[Tuple[int, Path]]:
    """``(first_seq, path)`` per segment, oldest first."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    found = []
    for entry in directory.iterdir():
        match = _SEGMENT_RE.match(entry.name)
        if match:
            found.append((int(match.group(1)), entry))
    return sorted(found)


def wal_exists(directory: PathLike) -> bool:
    """True when a directory holds WAL segments or snapshots."""
    directory = Path(directory)
    if not directory.is_dir():
        return False
    return bool(list_segments(directory)) or latest_snapshot(directory) is not None


def _scan_segment(path: Path) -> Tuple[int, int, Optional[str]]:
    """Inspect one segment's tail: ``(n_entries, valid_bytes, torn)``.

    ``n_entries`` counts the non-blank lines that are safe to replay;
    ``valid_bytes`` is the byte length of that prefix; ``torn``
    describes a truncated/garbled *final* record when one exists (the
    signature of a crash mid-append).  Corruption before the final
    record is not this function's business -- replay detects it.
    """
    data = path.read_bytes()
    if not data:
        return 0, 0, None
    if data.endswith(b"\n"):
        body, partial = data, b""
    else:
        cut = data.rfind(b"\n") + 1
        body, partial = data[:cut], data[cut:]
    lines = body.split(b"\n")[:-1] if body else []
    n_entries = sum(1 for line in lines if line.strip())
    if partial:
        return n_entries, len(body), f"{len(partial)}-byte partial final line"
    # A torn write can also persist a garbled-but-newline-terminated
    # final record; validate just that one line (O(1), not O(segment)).
    offset = len(body)
    for line in reversed(lines):
        offset -= len(line) + 1  # the line plus its newline
        if not line.strip():
            continue
        try:
            json.loads(line)
        except json.JSONDecodeError:
            return n_entries - 1, offset, "unparseable final line"
        break
    return n_entries, len(data), None


class WriteAheadLog:
    """Append-only segmented JSONL log of accepted ratings.

    Args:
        path: the WAL directory; created (with parents) if absent.
        fsync_every: ``os.fsync`` after every N appends (1 = maximum
            durability, larger values trade a bounded tail of possibly
            lost ratings for throughput).  Inside a
            :meth:`group_commit` block the fsync is deferred to the
            block's end.
        segment_entries: start a new segment after this many entries in
            the current one.  Smaller segments give the garbage
            collector finer granularity at the cost of more files.
        on_fsync: optional callback receiving each fsync's duration in
            seconds (the engine feeds this into a histogram).
        on_rotate: optional callback receiving the segment count after
            each rotation or garbage collection (the engine feeds this
            into the ``repro_wal_segments`` gauge).

    Opening the directory takes an exclusive ``wal.lock`` (via
    ``flock``): a second engine opening the same WAL fails fast with
    :class:`~repro.errors.ConfigurationError` instead of silently
    interleaving appends.  Opening also repairs a torn final line left
    by a crash mid-append -- the partial record is logged, truncated
    away, and the next append starts on a clean boundary.

    **Group commit.**  Inside :meth:`group_commit` every row is still
    written and flushed to the OS where the ``fsync_every`` policy
    would fsync it, so a *process* crash keeps the same rows as
    without the group; only the ``os.fsync`` waits, for one sync when
    the outermost block exits.  A *power loss* can therefore take the
    rows of an open group.  The callers' invariant is that nothing
    leaves the process before the rows it depends on are fsynced: an
    explicit :meth:`sync` inside the block fsyncs at once, and the
    engine calls it before a trust digest or a snapshot leaves.
    """

    # Lint contract (CC03): the append path's state is owned by _lock.
    _GUARDED_BY = {
        "_count": "_lock",
        "_since_sync": "_lock",
        "_handle": "_lock",
        "_segment_start": "_lock",
        "_segment_count": "_lock",
        "_segment_starts": "_lock",
        "_group_depth": "_lock",
    }

    def __init__(
        self,
        path: PathLike,
        fsync_every: int = 1,
        segment_entries: int = 100_000,
        on_fsync: Optional[Callable[[float], None]] = None,
        on_rotate: Optional[Callable[[int], None]] = None,
    ) -> None:
        if fsync_every < 1:
            raise ConfigurationError(f"fsync_every must be >= 1, got {fsync_every}")
        if segment_entries < 1:
            raise ConfigurationError(
                f"segment_entries must be >= 1, got {segment_entries}"
            )
        self._directory = Path(path)
        self._directory.mkdir(parents=True, exist_ok=True)
        self.fsync_every = int(fsync_every)
        self.segment_entries = int(segment_entries)
        self._on_fsync = on_fsync
        self._on_rotate = on_rotate
        self._lock = threading.Lock()
        self._lock_fd = self._acquire_lockfile()
        try:
            self._cleanup_stale_tmp()
            self._open_segments()
        except Exception:
            self._release_lockfile()
            raise

    # -- open-time housekeeping -------------------------------------------

    def _acquire_lockfile(self) -> Optional[int]:
        """Take the directory's exclusive owner lock (fail fast if held)."""
        if fcntl is None:  # pragma: no cover - non-POSIX platforms
            return None
        lock_path = self._directory / WAL_LOCK_FILENAME
        fd = os.open(lock_path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            os.close(fd)
            raise ConfigurationError(
                f"WAL directory {self._directory} is locked by another engine "
                f"(stale engines release {WAL_LOCK_FILENAME} when they exit)"
            ) from None
        os.ftruncate(fd, 0)
        os.write(fd, f"{os.getpid()}\n".encode("ascii"))
        return fd

    def _release_lockfile(self) -> None:
        if self._lock_fd is not None:
            os.close(self._lock_fd)  # closing the fd drops the flock
            self._lock_fd = None

    def _cleanup_stale_tmp(self) -> None:
        """Remove snapshot temp files left by a crash mid-write."""
        removed = False
        for stale in self._directory.glob("*.json.tmp"):
            logger.warning("WAL %s: removing stale temp file %s", self._directory, stale.name)
            stale.unlink(missing_ok=True)
            removed = True
        if removed:
            # Make the removals durable: without a directory fsync a
            # power failure can resurrect the half-written temp files.
            _fsync_dir(self._directory)

    def _open_segments(self) -> None:
        """Index segments, repair the newest one's tail, open for append.

        Only the newest segment is read (its name gives the sequence
        base, its lines the offset), so opening costs O(one segment)
        regardless of total history.  Runs single-threaded during
        construction -- no appender can exist yet.
        """
        segments = list_segments(self._directory)
        if not segments:
            segments = [(0, _segment_path(self._directory, 0))]
            segments[0][1].touch()
            _fsync_dir(self._directory)
        self._segment_starts = [start for start, _ in segments]
        start, newest = segments[-1]
        n_entries, valid_bytes, torn = _scan_segment(newest)
        if torn is not None:
            logger.warning(
                "WAL %s: dropping torn final record (%s) left by a crash "
                "mid-append", newest.name, torn
            )
            with newest.open("r+b") as handle:
                handle.truncate(valid_bytes)
                handle.flush()
                os.fsync(handle.fileno())
        self._segment_start = start
        self._segment_count = n_entries
        self._count = start + n_entries
        self._since_sync = 0
        self._group_depth = 0
        self._handle = newest.open("a", encoding="utf-8")
        if n_entries:
            # A crashed predecessor may have left its newest appends in
            # the page cache only; make them durable here, since sync()
            # skips a log with no appends since its last fsync.
            os.fsync(self._handle.fileno())

    # -- introspection ----------------------------------------------------

    @property
    def directory(self) -> Path:
        """The WAL directory."""
        return self._directory

    @property
    def path(self) -> Path:
        """The active (newest) segment file."""
        with self._lock:
            return _segment_path(self._directory, self._segment_start)

    @property
    def n_entries(self) -> int:
        """Entries ever logged (existing + appended; GC does not lower it)."""
        with self._lock:
            return self._count

    @property
    def n_segments(self) -> int:
        """Segment files currently on disk."""
        with self._lock:
            return len(self._segment_starts)

    @property
    def first_seq(self) -> int:
        """Sequence number of the oldest entry still on disk."""
        with self._lock:
            return self._segment_starts[0]

    def segments(self) -> List[Tuple[int, Path]]:
        """``(first_seq, path)`` per live segment, oldest first."""
        with self._lock:
            return [
                (start, _segment_path(self._directory, start))
                for start in self._segment_starts
            ]

    # -- writing ----------------------------------------------------------

    def append(self, rating: Rating, meta: Optional[dict] = None) -> int:
        """Append one rating; returns its zero-based sequence number.

        ``meta`` is an optional JSON-serializable dict stored alongside
        the rating under a ``"meta"`` key.  Readers that only want the
        rating (:func:`replay_wal`, :func:`rating_from_dict`) ignore
        it; :func:`replay_wal_meta` surfaces it.  The cluster tier uses
        this to persist each entry's coordinator sequence number in the
        worker's local log.
        """
        row = rating_to_dict(rating)
        if meta is not None:
            row["meta"] = meta
        return self._write(row)

    def append_control(self, payload: dict) -> int:
        """Append a non-rating **control row**; returns its sequence number.

        Control rows record replayable events that are not ratings --
        every engine writes a ``{"flush": 0}`` marker at each trust
        flush, so a recovering engine flushes at exactly the positions
        the live one did, whatever triggered the flush.  They share
        the rating rows' sequence space (so snapshot positions and GC
        horizons stay consistent) and the same rotation/fsync policy.
        :func:`replay_wal` skips them; :func:`replay_wal_meta` yields
        them as ``(seq, None, {"control": payload})``.
        """
        return self._write({"control": payload})

    def _write(self, row: dict) -> int:
        """Append one JSON row under the lock; rotate and fsync per policy."""
        line = json.dumps(row, separators=(",", ":"))
        with self._lock:
            if self._handle.closed:
                raise ConfigurationError(f"WAL {self._directory} is closed")
            if self._segment_count >= self.segment_entries:
                self._rotate_locked()
            self._handle.write(line + "\n")
            seq = self._count
            self._count += 1
            self._segment_count += 1
            self._since_sync += 1
            if self._since_sync >= self.fsync_every:
                if self._group_depth:
                    self._handle.flush()  # to the OS; fsync at group end
                else:
                    self._sync_locked()
        return seq

    @contextmanager
    def group_commit(self) -> Iterator[None]:
        """Defer fsyncs to one :meth:`sync` when the block exits.

        Blocks nest; only the outermost exit syncs.  The group covers
        every append made while it is open, so callers serialize their
        appends around it (the engine holds its lock for the block).
        """
        with self._lock:
            self._group_depth += 1
        try:
            yield
        finally:
            with self._lock:
                self._group_depth -= 1
                if (
                    not self._group_depth
                    and not self._handle.closed
                    and self._since_sync
                ):
                    self._sync_locked()

    def _rotate_locked(self) -> None:
        """Seal the active segment and start the next one.

        The old segment is synced before the cutover so rotation never
        weakens durability, and the directory is fsynced after the new
        file is created so the rotation itself survives a power loss.
        """
        self._sync_locked()
        self._handle.close()
        self._segment_start = self._count
        self._segment_count = 0
        new_path = _segment_path(self._directory, self._segment_start)
        self._handle = new_path.open("a", encoding="utf-8")
        _fsync_dir(self._directory)
        self._segment_starts.append(self._segment_start)
        if self._on_rotate is not None:
            self._on_rotate(len(self._segment_starts))

    def _sync_locked(self) -> None:
        start = time.perf_counter()
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._since_sync = 0
        if self._on_fsync is not None:
            self._on_fsync(time.perf_counter() - start)

    def flush(self) -> None:
        """Hand buffered appends to the OS, without an fsync: a process
        kill keeps them, a power loss can still take them."""
        with self._lock:
            if not self._handle.closed:
                self._handle.flush()

    def sync(self) -> None:
        """Flush and fsync any appends not yet fsynced (no-op if none).

        Fsyncs at once, inside a :meth:`group_commit` block too.
        """
        with self._lock:
            if not self._handle.closed and self._since_sync:
                self._sync_locked()

    def close(self) -> None:
        """Sync, close the active segment, and release the owner lock."""
        with self._lock:
            if not self._handle.closed:
                self._sync_locked()
                self._handle.close()
            self._release_lockfile()

    def __del__(self) -> None:
        # Best-effort resource release for dropped (never-closed)
        # instances -- without it the raw lockfile fd would pin the
        # directory's flock for the rest of the process.  No fsync:
        # a dropped WAL is crash semantics, not a clean shutdown.
        handle = getattr(self, "_handle", None)
        if handle is not None and not handle.closed:
            try:
                handle.close()
            except OSError:  # pragma: no cover - interpreter teardown
                pass
        if getattr(self, "_lock_fd", None) is not None:
            self._release_lockfile()

    # -- garbage collection ------------------------------------------------

    def gc(self, horizon: int) -> int:
        """Delete segments whose every entry lies below ``horizon``.

        ``horizon`` is a WAL position that recovery will never read
        behind -- the latest durable snapshot's position, *provided*
        the rating rows themselves live in durable cold storage (the
        tiered backend).  The active segment is never deleted.
        Returns the number of segments removed.
        """
        if horizon < 0:
            raise ConfigurationError(f"gc horizon must be >= 0, got {horizon}")
        removed = 0
        with self._lock:
            while len(self._segment_starts) > 1:
                end = self._segment_starts[1]  # oldest segment covers [s0, s1)
                if end > horizon:
                    break
                oldest = self._segment_starts.pop(0)
                _segment_path(self._directory, oldest).unlink(missing_ok=True)
                removed += 1
            if removed:
                _fsync_dir(self._directory)
                if self._on_rotate is not None:
                    self._on_rotate(len(self._segment_starts))
        return removed

    # -- reading ----------------------------------------------------------

    def replay(self, start: int = 0) -> Iterator[Tuple[int, Rating]]:
        """Yield ``(seq, rating)`` for entries on disk with ``seq >= start``."""
        return replay_wal(self._directory, start=start)


def replay_wal(path: PathLike, start: int = 0) -> Iterator[Tuple[int, Rating]]:
    """Stream ``(seq, rating)`` pairs from a WAL (empty if absent).

    ``path`` is a WAL directory.  Segments that end at or before
    ``start`` are skipped without being read, so replay cost is
    proportional to the suffix requested, not total history.

    Exactly one torn trailing record -- a crash mid-append -- is
    tolerated: it is logged and dropped.  A corrupt line anywhere else
    raises :class:`~repro.errors.ConfigurationError`, as does a gap
    between consecutive segments.

    Control rows (:meth:`WriteAheadLog.append_control`) occupy
    sequence numbers but carry no rating; they are skipped here.
    """
    if start < 0:
        raise ConfigurationError(f"replay start must be >= 0, got {start}")
    for seq, rating, _ in replay_wal_meta(path, start=start):
        if rating is not None:
            yield seq, rating


def replay_wal_meta(
    path: PathLike, start: int = 0
) -> Iterator[Tuple[int, Optional[Rating], Optional[dict]]]:
    """Like :func:`replay_wal`, but also yields each entry's ``meta``.

    Yields ``(seq, rating, meta)`` where ``meta`` is the dict passed to
    :meth:`WriteAheadLog.append` for that entry, or ``None`` for
    entries written without one.  Recovery merges it into the engine's
    ``client_meta``, which is how a cluster worker recovers the
    coordinator sequence number it has processed through.

    Control rows (:meth:`WriteAheadLog.append_control`) are yielded as
    ``(seq, None, {"control": payload})`` so replay-driven recovery can
    reproduce non-rating events (e.g. trust-digest flush markers) at
    their original positions.
    """
    if start < 0:
        raise ConfigurationError(f"replay start must be >= 0, got {start}")
    path = Path(path)
    segments = list_segments(path)
    if not segments:
        return
    if start < segments[0][0]:
        raise ConfigurationError(
            f"{path}: WAL replay from {start} requested but the oldest "
            f"segment starts at {segments[0][0]} -- the prefix was "
            f"garbage-collected (recovery must start from a snapshot that "
            f"covers it)"
        )
    last_index = len(segments) - 1
    expected: Optional[int] = None
    for index, (seg_start, seg_path) in enumerate(segments):
        if expected is not None and seg_start != expected:
            raise ConfigurationError(
                f"{seg_path.parent}: WAL gap -- segment {seg_path.name} starts "
                f"at {seg_start} but the previous segment ended at {expected}"
            )
        next_start = segments[index + 1][0] if index < last_index else None
        if next_start is not None and next_start <= start:
            expected = next_start  # fully below the requested suffix
            continue
        is_last = index == last_index
        tolerated = None
        if is_last:
            n_entries, _, tolerated = _scan_segment(seg_path)
            if tolerated is not None:
                logger.warning(
                    "WAL %s: ignoring torn final record (%s) during replay",
                    seg_path.name, tolerated,
                )
        seq = seg_start
        with seg_path.open("r", encoding="utf-8") as handle:
            for line_number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                if is_last and tolerated is not None and seq - seg_start >= n_entries:
                    break  # the torn tail
                if seq >= start:
                    try:
                        row = json.loads(line)
                    except json.JSONDecodeError as exc:
                        raise ConfigurationError(
                            f"{seg_path}:{line_number}: corrupt WAL line: {exc}"
                        ) from exc
                    if "control" in row:
                        yield seq, None, {"control": row["control"]}
                    else:
                        yield seq, rating_from_dict(row), row.get("meta")
                seq += 1
        expected = seq


# -- snapshots ------------------------------------------------------------


def _snapshot_path(directory: Path, wal_position: int) -> Path:
    return directory / f"snapshot-{wal_position:012d}.json"


def write_snapshot(directory: PathLike, state: dict) -> Path:
    """Atomically and durably write an engine state snapshot.

    The state dict must carry a ``wal_position`` key (number of WAL
    entries it covers); the snapshot is written to a temp file, fsynced,
    moved into place with ``os.replace``, and the directory is fsynced
    -- so readers never observe a torn snapshot and a power loss right
    after the rename cannot roll the file back.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    try:
        wal_position = int(state["wal_position"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"snapshot state needs a wal_position: {exc}") from exc
    final = _snapshot_path(directory, wal_position)
    tmp = final.with_suffix(".json.tmp")
    with tmp.open("w", encoding="utf-8") as handle:
        json.dump(state, handle, separators=(",", ":"))
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, final)
    _fsync_dir(directory)
    return final


def read_snapshot(path: PathLike) -> dict:
    """Load a snapshot written by :func:`write_snapshot`."""
    path = Path(path)
    try:
        with path.open("r", encoding="utf-8") as handle:
            state = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"unreadable snapshot {path}: {exc}") from exc
    if "wal_position" not in state:
        raise ConfigurationError(f"snapshot {path} lacks wal_position")
    return state


def list_snapshots(directory: PathLike) -> List[Path]:
    """Snapshot files in a WAL directory, oldest first."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    found = []
    for entry in directory.iterdir():
        if _SNAPSHOT_RE.match(entry.name):
            found.append(entry)
    return sorted(found)


def latest_snapshot(directory: PathLike) -> Optional[Path]:
    """The highest-position snapshot in a WAL directory, if any."""
    snapshots = list_snapshots(directory)
    return snapshots[-1] if snapshots else None


def prune_snapshots(directory: PathLike, keep: int = 1) -> int:
    """Delete snapshots superseded by the newest ``keep`` of them.

    Every snapshot below the latest is fully covered by it (recovery
    only ever loads the highest position), so the garbage collector
    prunes them together with the WAL segments behind the snapshot.
    Returns the number of files removed.
    """
    if keep < 1:
        raise ConfigurationError(f"prune_snapshots keep must be >= 1, got {keep}")
    directory = Path(directory)
    snapshots = list_snapshots(directory)
    stale = snapshots[:-keep] if len(snapshots) > keep else []
    for path in stale:
        path.unlink(missing_ok=True)
    if stale:
        _fsync_dir(directory)
    return len(stale)
