"""Tests for WAL durability, snapshots, and crash recovery."""

from __future__ import annotations

import json
import os
import tempfile
import threading
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.ratings.models import Rating
from repro.service import RatingEngine, ServiceConfig, WriteAheadLog
from repro.service.cluster.worker import _WorkerRuntime
from repro.service.wal import (
    latest_snapshot,
    list_segments,
    list_snapshots,
    rating_to_dict,
    read_snapshot,
    replay_wal,
    write_snapshot,
)
from tests.test_service_engine import BASE, make_stream


class TestWriteAheadLog:
    def test_append_replay_roundtrip(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        stream = make_stream(20)
        for rating in stream:
            wal.append(rating)
        wal.close()
        replayed = list(replay_wal(tmp_path))
        assert [seq for seq, _ in replayed] == list(range(20))
        assert [r for _, r in replayed] == stream

    def test_reopen_continues_sequence(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        assert wal.append(make_stream(1)[0]) == 0
        wal.close()
        wal = WriteAheadLog(tmp_path)
        assert wal.n_entries == 1
        assert wal.append(make_stream(2)[1]) == 1
        wal.close()

    def test_fsync_callback_fires(self, tmp_path):
        durations = []
        wal = WriteAheadLog(tmp_path, on_fsync=durations.append)
        wal.append(make_stream(1)[0])
        wal.close()
        assert durations and all(d >= 0 for d in durations)

    def test_batched_fsync(self, tmp_path):
        durations = []
        wal = WriteAheadLog(tmp_path, fsync_every=10, on_fsync=durations.append)
        for rating in make_stream(25):
            wal.append(rating)
        assert len(durations) == 2  # at 10 and 20
        wal.close()  # close syncs the tail
        assert len(durations) == 3

    def test_worker_flush_fsyncs_a_chunk_once(self, tmp_path):
        """A 64-rating submit_many is one group commit: the flush
        marker's sync() covers the whole chunk, and the group's end has
        nothing left to fsync."""
        engine = RatingEngine(
            ServiceConfig(wal_dir=str(tmp_path), batch_max_ratings=64),
            trust_delegate=lambda digest: {},
        )
        engine.submit_many(make_stream(64))
        fsyncs = engine.metrics.histogram("repro_wal_fsync_seconds").count
        assert engine.wal.n_entries == 65  # 64 ratings + one flush marker
        assert fsyncs == 1
        engine.close()

    @pytest.mark.parametrize("unfair", [False, True])
    def test_rating_to_dict_matches_asdict(self, unfair):
        rating = Rating(7, 3, 11, 0.625, time=2.5, unfair=unfair)
        assert list(rating_to_dict(rating).items()) == list(asdict(rating).items())

    def test_invalid_fsync_every(self, tmp_path):
        with pytest.raises(ConfigurationError):
            WriteAheadLog(tmp_path, fsync_every=0)

    def test_corrupt_line_raises(self, tmp_path):
        (tmp_path / "wal-000000000000.jsonl").write_text('{"rating_id": 0\nnot json\n')
        with pytest.raises(ConfigurationError):
            list(replay_wal(tmp_path))


@pytest.fixture
def fsynced(monkeypatch):
    """inode -> the file's size at its latest ``os.fsync``."""
    sizes = {}
    real_fsync = os.fsync

    def fsync(fd):
        real_fsync(fd)
        stat = os.fstat(fd)
        sizes[stat.st_ino] = stat.st_size

    monkeypatch.setattr(os, "fsync", fsync)
    return sizes


def _all_synced(wal, fsynced):
    """True when every byte written to the active segment is fsynced."""
    stat = wal.path.stat()
    return fsynced.get(stat.st_ino, 0) == stat.st_size


class TestGroupCommit:
    """One fsync per group; nothing leaves before its rows are durable."""

    def test_group_defers_fsync_to_the_outermost_exit(self, tmp_path, fsynced):
        durations = []
        wal = WriteAheadLog(tmp_path, on_fsync=durations.append)
        stream = make_stream(6)
        with wal.group_commit():
            with wal.group_commit():
                for rating in stream[:3]:
                    wal.append(rating)
            assert durations == []  # the inner exit does not sync
            wal.append(stream[3])
            # Each row already reached the OS: a process crash keeps it.
            assert len(list(replay_wal(tmp_path))) == 4
            assert not _all_synced(wal, fsynced)
        assert len(durations) == 1
        assert _all_synced(wal, fsynced)
        with wal.group_commit():
            wal.append(stream[4])
            wal.sync()  # an explicit sync inside a group fsyncs at once
            assert len(durations) == 2 and _all_synced(wal, fsynced)
        assert len(durations) == 2  # nothing left for the group's end
        wal.append(stream[5])  # outside a group: per fsync_every again
        assert len(durations) == 3
        wal.close()

    def test_single_submits_fsync_each_rating(self, tmp_path):
        engine = RatingEngine(ServiceConfig(wal_dir=str(tmp_path), **BASE))
        for rating in make_stream(20):
            engine.submit(rating)
        fsyncs = engine.metrics.histogram("repro_wal_fsync_seconds").count
        assert fsyncs == engine.wal.n_entries  # 20 ratings + 2 flush markers
        engine.close()

    def test_submit_many_fsyncs_once_per_chunk(self, tmp_path, fsynced):
        engine = RatingEngine(ServiceConfig(wal_dir=str(tmp_path), **BASE))
        results = engine.submit_many(iter(make_stream(150)))
        assert len(results) == 150 and all(r.accepted for r in results)
        # Chunks of 64, 64 and 22 ratings; returns after the last sync.
        assert engine.metrics.histogram("repro_wal_fsync_seconds").count == 3
        assert _all_synced(engine.wal, fsynced)
        engine.close()

    def test_digest_leaves_only_after_its_rows_are_synced(self, tmp_path, fsynced):
        """Delegate-mode flushes mid-group queue their digests, which
        leave after the group's fsync: a digest never depends on a row
        a power loss could still take."""
        unsynced_at_digest = []

        def delegate(digest):
            unsynced_at_digest.append(not _all_synced(engine.wal, fsynced))
            return {}

        engine = RatingEngine(
            ServiceConfig(wal_dir=str(tmp_path), **{**BASE, "batch_max_ratings": 10}),
            trust_delegate=delegate,
        )
        engine.submit_many(make_stream(64))  # one group, six flushes inside
        assert unsynced_at_digest == [False] * 6
        # One fsync for the group, its six flush markers included.
        assert engine.metrics.histogram("repro_wal_fsync_seconds").count == 1
        engine.close()

    def test_snapshot_in_a_group_releases_queued_digests_first(
        self, tmp_path, fsynced, monkeypatch
    ):
        """An automatic snapshot inside a delegate-mode group counts the
        digests queued before it as sent, so they leave (synced) before
        the snapshot is written: a crash after it would never replay
        their flush markers."""
        from repro.service import engine as engine_module

        sent = []  # (digest seq, every row fsynced when it left)
        written = []  # (digests the snapshot counts, digests sent by then)
        write_snapshot = engine_module.write_snapshot

        def recording_write(directory, state):
            written.append((state["n_trust_updates"], len(sent)))
            return write_snapshot(directory, state)

        monkeypatch.setattr(engine_module, "write_snapshot", recording_write)
        engine = RatingEngine(
            ServiceConfig(
                wal_dir=str(tmp_path),
                **{**BASE, "batch_max_ratings": 10, "snapshot_every": 25},
            ),
            trust_delegate=lambda digest: sent.append(
                (digest["seq"], _all_synced(engine.wal, fsynced))
            ),
        )
        engine.submit_many(make_stream(64))  # one group: 2 snapshots, 6 flushes
        assert written == [(2, 2), (5, 5)]
        assert sent == [(seq, True) for seq in range(1, 7)]
        engine.close()

    def test_worker_reports_processed_after_the_frame_fsync(self, tmp_path, fsynced):
        """The worker commits an ingest frame together with the ingest
        frames queued behind it when the group opens, up to the first
        rpc frame, as one group: one fsync, and one ``processed`` that
        leaves only once the group is fsynced.  A frame arriving while
        the group runs waits for the next group."""

        class FakeConnection:
            def __init__(self):
                self.sent = []

            def send_bytes(self, buf):
                msg = json.loads(buf)
                self.sent.append((msg, _all_synced(runtime.engine.wal, fsynced)))

        conn = FakeConnection()
        runtime = _WorkerRuntime(0, conn)
        engine = runtime.engine = RatingEngine(
            ServiceConfig(wal_dir=str(tmp_path), **{**BASE, "batch_max_ratings": 1000}),
            trust_delegate=lambda digest: None,
        )
        entries = [[g, rating_to_dict(r)] for g, r in enumerate(make_stream(100))]
        frames = [
            {"type": "ingest", "entries": entries[start : start + 20]}
            for start in range(0, 100, 20)
        ]
        rpc = {"type": "rpc", "op": "has_product", "id": 1, "product_id": 0}
        runtime._work.extend([frames[1], frames[2], rpc, frames[3]])
        runtime.handle_ingest(frames[0])
        assert list(runtime._work) == [rpc, frames[3]]  # stopped at the rpc
        fsyncs = engine.metrics.histogram("repro_wal_fsync_seconds")
        assert fsyncs.count == 1

        runtime.handle_rpc(runtime._work.popleft())
        submit = engine.submit
        arriving = [frames[4]]

        def arriving_submit(rating, wal_meta=None):
            if arriving:
                runtime._work.append(arriving.pop())  # arrives mid-group
            return submit(rating, wal_meta=wal_meta)

        engine.submit = arriving_submit
        runtime.handle_ingest(runtime._work.popleft())
        assert list(runtime._work) == [frames[4]]
        assert fsyncs.count == 2
        del engine.submit
        runtime.handle_ingest(runtime._work.popleft())
        assert fsyncs.count == 3
        assert [(msg["type"], msg.get("n"), synced) for msg, synced in conn.sent] == [
            ("processed", 60, True),
            ("reply", None, True),
            ("processed", 80, True),
            ("processed", 100, True),
        ]
        engine.close()


class TestSegments:
    def _fill(self, directory, n, segment_entries=10, **kwargs):
        wal = WriteAheadLog(directory, segment_entries=segment_entries, **kwargs)
        for rating in make_stream(n):
            wal.append(rating)
        return wal

    def test_rotation_creates_numbered_segments(self, tmp_path):
        wal = self._fill(tmp_path, 35, segment_entries=10)
        wal.close()
        segments = list_segments(tmp_path)
        assert [start for start, _ in segments] == [0, 10, 20, 30]
        assert [path.name for _, path in segments] == [
            "wal-000000000000.jsonl",
            "wal-000000000010.jsonl",
            "wal-000000000020.jsonl",
            "wal-000000000030.jsonl",
        ]
        replayed = list(replay_wal(tmp_path))
        assert [seq for seq, _ in replayed] == list(range(35))

    def test_rotation_callback_reports_segment_count(self, tmp_path):
        counts = []
        wal = self._fill(tmp_path, 35, segment_entries=10, on_rotate=counts.append)
        wal.close()
        assert counts == [2, 3, 4]

    def test_open_reads_only_the_last_segment(self, tmp_path):
        """Sealed segments are never opened on reopen: corrupt them all
        and the count must still come out right."""
        wal = self._fill(tmp_path, 35, segment_entries=10)
        wal.close()
        for start, path in list_segments(tmp_path)[:-1]:
            path.write_text("garbage that would not parse\n" * 10)
        reopened = WriteAheadLog(tmp_path, segment_entries=10)
        assert reopened.n_entries == 35
        assert reopened.append(make_stream(36)[35]) == 35
        reopened.close()

    def test_replay_from_start_of_later_segment(self, tmp_path):
        wal = self._fill(tmp_path, 35, segment_entries=10)
        wal.close()
        replayed = list(replay_wal(tmp_path, start=23))
        assert [seq for seq, _ in replayed] == list(range(23, 35))

    def test_gc_drops_covered_segments_only(self, tmp_path):
        wal = self._fill(tmp_path, 35, segment_entries=10)
        assert wal.gc(horizon=25) == 2  # [0,10) and [10,20) are covered
        assert [start for start, _ in wal.segments()] == [20, 30]
        assert wal.first_seq == 20
        assert wal.n_entries == 35
        with pytest.raises(ConfigurationError):
            list(replay_wal(tmp_path, start=5))
        assert len(list(replay_wal(tmp_path, start=25))) == 10
        wal.close()

    def test_gc_never_drops_the_active_segment(self, tmp_path):
        wal = self._fill(tmp_path, 35, segment_entries=10)
        assert wal.gc(horizon=1_000_000) == 3
        assert [start for start, _ in wal.segments()] == [30]
        wal.append(make_stream(36)[35])
        assert wal.n_entries == 36
        wal.close()

    def test_second_engine_fails_fast_on_locked_directory(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        with pytest.raises(ConfigurationError, match="locked"):
            WriteAheadLog(tmp_path)
        wal.close()
        reopened = WriteAheadLog(tmp_path)  # released on close
        reopened.close()

    def test_torn_partial_line_dropped_once(self, tmp_path):
        wal = self._fill(tmp_path, 12, segment_entries=10)
        wal.close()
        active = list_segments(tmp_path)[-1][1]
        with active.open("ab") as fh:
            fh.write(b'{"rating_id": 999, "torn')
        assert len(list(replay_wal(tmp_path))) == 12
        reopened = WriteAheadLog(tmp_path, segment_entries=10)
        assert reopened.n_entries == 12  # repaired: the tail is gone
        reopened.close()
        assert b"torn" not in active.read_bytes()

    def test_torn_unparseable_final_line_dropped_once(self, tmp_path):
        """A complete but garbled final line (newline made it to disk,
        the payload did not) is also a torn tail."""
        wal = self._fill(tmp_path, 12, segment_entries=10)
        wal.close()
        active = list_segments(tmp_path)[-1][1]
        with active.open("ab") as fh:
            fh.write(b'{"rating_id": 999, "garbled\n')
        assert len(list(replay_wal(tmp_path))) == 12
        reopened = WriteAheadLog(tmp_path, segment_entries=10)
        assert reopened.n_entries == 12
        reopened.close()

    def test_mid_segment_corruption_raises(self, tmp_path):
        """Only the *final* record may be torn; damage anywhere else is
        real corruption and must refuse to replay."""
        wal = self._fill(tmp_path, 8, segment_entries=100)
        wal.close()
        active = list_segments(tmp_path)[-1][1]
        lines = active.read_text().splitlines()
        lines[3] = '{"broken":'
        active.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigurationError):
            list(replay_wal(tmp_path))

    def test_stale_snapshot_tmp_removed_on_open(self, tmp_path):
        stale = tmp_path / "snapshot-000000000099.json.tmp"
        tmp_path.mkdir(exist_ok=True)
        stale.write_text('{"half": ')
        wal = WriteAheadLog(tmp_path)
        assert not stale.exists()
        wal.close()

    def test_stale_tmp_removal_is_made_durable(self, tmp_path, monkeypatch):
        """Removing stale temp files must be followed by a directory
        fsync, or a crash can resurrect the half-written files."""
        import repro.service.wal as wal_mod

        synced = []
        monkeypatch.setattr(
            wal_mod, "_fsync_dir", lambda path: synced.append(Path(path))
        )
        stale = tmp_path / "snapshot-000000000099.json.tmp"
        stale.write_text('{"half": ')
        wal = wal_mod.WriteAheadLog(tmp_path)
        assert not stale.exists()
        assert tmp_path in synced
        wal.close()

    def test_no_dir_fsync_when_no_stale_tmp(self, tmp_path, monkeypatch):
        import repro.service.wal as wal_mod

        synced = []
        monkeypatch.setattr(
            wal_mod, "_fsync_dir", lambda path: synced.append(Path(path))
        )
        wal = wal_mod.WriteAheadLog(tmp_path)
        # The open itself may fsync for segment creation, but never on
        # behalf of the (empty) stale-tmp sweep before any append.
        assert synced.count(tmp_path) <= 1
        wal.close()


class TestSnapshots:
    def test_atomic_write_and_read(self, tmp_path):
        state = {"wal_position": 42, "payload": [1, 2, 3]}
        path = write_snapshot(tmp_path, state)
        assert path.name == "snapshot-000000000042.json"
        assert read_snapshot(path) == state
        assert not list(tmp_path.glob("*.tmp"))

    def test_concurrent_writers_of_one_position_both_land(
        self, tmp_path, monkeypatch
    ):
        """Two automatic snapshots can capture the same WAL position and
        write at once: the first writer stalls mid-dump while the second
        writes and renames, and both must still land the file."""
        started, release = threading.Event(), threading.Event()
        dump = json.dump

        def stalling_dump(obj, fp, **kwargs):
            if threading.current_thread().name == "first-writer":
                started.set()
                release.wait(10)
            dump(obj, fp, **kwargs)

        monkeypatch.setattr(json, "dump", stalling_dump)
        state = {"wal_position": 7, "payload": [1, 2, 3]}
        errors = []

        def write():
            try:
                write_snapshot(tmp_path, state)
            except OSError as exc:
                errors.append(exc)

        first = threading.Thread(target=write, name="first-writer")
        first.start()
        try:
            assert started.wait(10)
            write_snapshot(tmp_path, state)
        finally:
            release.set()
            first.join(10)
        assert errors == []
        assert read_snapshot(tmp_path / "snapshot-000000000007.json") == state
        assert not list(tmp_path.glob("*.tmp"))

    def test_latest_picks_highest_position(self, tmp_path):
        write_snapshot(tmp_path, {"wal_position": 10})
        write_snapshot(tmp_path, {"wal_position": 200})
        write_snapshot(tmp_path, {"wal_position": 30})
        assert latest_snapshot(tmp_path).name == "snapshot-000000000200.json"
        assert len(list_snapshots(tmp_path)) == 3

    def test_snapshot_every_counts_accepted_ratings(self, tmp_path):
        """Flush markers take WAL positions, not snapshot turns."""
        engine = RatingEngine(
            ServiceConfig(
                wal_dir=str(tmp_path), snapshot_every=10, wal_gc=False, **BASE
            )
        )
        engine.submit_many(make_stream(30))
        snapshots = [read_snapshot(path) for path in list_snapshots(tmp_path)]
        assert [s["n_accepted"] for s in snapshots] == [10, 20, 30]
        assert snapshots[-1]["wal_position"] == 30 + 3  # 3 flush markers
        engine.close()

    def test_snapshot_size_is_flat_in_flushes(self, tmp_path):
        """Snapshots hold bounded state: over a fixed rater set, four
        times the flushes leave the file size flat (no per-rater,
        per-flush trust history is persisted)."""
        stream = make_stream(1600, seed=3)
        engine = RatingEngine(ServiceConfig(wal_dir=str(tmp_path), **BASE))
        engine.submit_many(stream[:400])
        engine.flush()
        early = engine.snapshot().stat().st_size
        engine.submit_many(stream[400:])
        engine.flush()
        late = engine.snapshot().stat().st_size
        engine.close()
        assert late < 1.1 * early

    def test_snapshot_with_trust_history_still_loads(self, tmp_path):
        """Older v3 snapshots persisted each record's trust history;
        recovery ignores the key and restores the same trust."""
        engine = RatingEngine(ServiceConfig(wal_dir=str(tmp_path), **BASE))
        engine.submit_many(make_stream(120, seed=4))
        engine.flush()
        path = engine.snapshot()
        trust = engine.trust_table()
        engine.close()
        state = json.loads(path.read_text())
        for record in state["trust"].values():
            record["history"] = [0.5, 0.6]
        path.write_text(json.dumps(state))
        recovered = RatingEngine.recover(tmp_path)
        assert recovered.trust_table() == trust
        recovered.close()

    def test_missing_wal_position_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            write_snapshot(tmp_path, {"no_position": 1})
        bad = tmp_path / "snapshot-000000000001.json"
        bad.write_text(json.dumps({"x": 1}))
        with pytest.raises(ConfigurationError):
            read_snapshot(bad)


class TestCrashRecovery:
    def _run_uninterrupted(self, wal_dir, stream):
        engine = RatingEngine(ServiceConfig(wal_dir=str(wal_dir), **BASE))
        engine.submit_many(stream)
        engine.flush()
        return engine

    def test_recovery_is_bit_for_bit(self, tmp_path):
        """Kill an engine mid-stream; recovery matches an uninterrupted
        run exactly -- same trust, same scores, same counters."""
        stream = make_stream(240, seed=1)
        baseline = self._run_uninterrupted(tmp_path / "a", stream)

        crash_dir = tmp_path / "b"
        crashed = RatingEngine(
            ServiceConfig(wal_dir=str(crash_dir), snapshot_every=50, **BASE)
        )
        crashed.submit_many(stream[:150])
        # Crash: drop the engine without flush/close.  Only the WAL's
        # owner lock is released (a dead process would release it too);
        # the WAL and the periodic snapshots are all that survive.
        crashed.wal.close()
        del crashed
        assert latest_snapshot(crash_dir) is not None

        recovered = RatingEngine.recover(crash_dir)
        assert recovered.n_accepted == 150
        recovered.submit_many(stream[150:])
        recovered.flush()

        assert recovered.trust_table() == baseline.trust_table()
        for product_id in range(3):
            assert recovered.score(product_id) == baseline.score(product_id)
        base_stats = baseline.snapshot_stats()
        rec_stats = recovered.snapshot_stats()
        for key in ("n_accepted", "ar_evaluations", "windows_flagged", "n_products"):
            assert rec_stats[key] == base_stats[key]

    def test_recovery_from_wal_alone(self, tmp_path):
        """With snapshots deleted, a full WAL replay still matches."""
        stream = make_stream(160, seed=2)
        baseline = self._run_uninterrupted(tmp_path / "a", stream)

        crash_dir = tmp_path / "b"
        crashed = RatingEngine(
            ServiceConfig(wal_dir=str(crash_dir), snapshot_every=40, **BASE)
        )
        crashed.submit_many(stream)
        crashed.wal.close()
        del crashed
        for snapshot in list_snapshots(crash_dir):
            snapshot.unlink()

        recovered = RatingEngine.recover(
            crash_dir, config=ServiceConfig(wal_dir=str(crash_dir), **BASE)
        )
        recovered.flush()
        assert recovered.n_accepted == 160
        assert recovered.trust_table() == baseline.trust_table()

    def test_recovered_engine_keeps_ordering_state(self, tmp_path):
        """Recovery restores per-product time cursors: stale ratings
        are still rejected afterwards."""
        wal_dir = tmp_path / "w"
        engine = RatingEngine(ServiceConfig(wal_dir=str(wal_dir), **BASE))
        engine.submit(Rating(0, 1, 0, 0.5, time=9.0))
        engine.snapshot()
        engine.wal.close()
        del engine
        recovered = RatingEngine.recover(wal_dir)
        assert not recovered.submit(Rating(1, 2, 0, 0.5, time=3.0)).accepted
        assert recovered.submit(Rating(2, 2, 0, 0.5, time=9.5)).accepted

    def test_recover_empty_directory_gives_fresh_engine(self, tmp_path):
        engine = RatingEngine.recover(tmp_path / "nothing")
        assert engine.n_accepted == 0

    def test_wal_shorter_than_snapshot_rejected(self, tmp_path):
        wal_dir = tmp_path / "w"
        engine = RatingEngine(ServiceConfig(wal_dir=str(wal_dir), **BASE))
        engine.submit_many(make_stream(30))
        engine.snapshot()
        engine.close()
        list_segments(wal_dir)[-1][1].write_text("")  # truncate the log
        with pytest.raises(ConfigurationError):
            RatingEngine.recover(wal_dir)

    def test_snapshot_requires_wal_dir(self):
        engine = RatingEngine(ServiceConfig(**BASE))
        with pytest.raises(ConfigurationError):
            engine.snapshot()

    def test_recovery_replay_rebuilds_the_client_meta_watermark(self, tmp_path):
        """Each submit's ``wal_meta`` is merged into ``client_meta``,
        rejected submits included; a snapshot keeps it and the replay
        of the WAL suffix rebuilds the rest (the cluster worker's
        redelivery watermark)."""
        config = ServiceConfig(wal_dir=str(tmp_path), **BASE)
        stream = make_stream(40)
        engine = RatingEngine(config)
        for g, rating in enumerate(stream[:20]):
            engine.submit(rating, wal_meta={"g": g})
        stale = Rating(99, 1, stream[19].product_id, 0.5, time=0.0)
        assert not engine.submit(stale, wal_meta={"g": 20}).accepted
        assert engine.client_meta == {"g": 20}
        engine.snapshot()
        for g, rating in enumerate(stream[20:], start=21):
            engine.submit(rating, wal_meta={"g": g})
        _crash(engine)
        assert RatingEngine.recover(tmp_path).client_meta == {"g": 40}

    # A recovered engine must flush where the live one did, whatever
    # triggered the flush: the count cadence, an explicit flush(), the
    # close() flush or the wall-clock deadline.

    def test_explicit_flush_mid_stream_then_crash(self, tmp_path):
        stream = make_stream(110, seed=3)
        config = ServiceConfig(wal_dir=str(tmp_path), **BASE)
        live = RatingEngine(config)
        cuts = [0, 13, 38, 62, 87, 100]  # none a multiple of the batch
        for start, stop in zip(cuts, cuts[1:]):
            live.submit_many(stream[start:stop])
            live.flush()
        live.submit_many(stream[100:])
        _crash(live)
        _assert_recovers_equal(live, RatingEngine.recover(tmp_path, config=config))

    def test_close_then_recover_without_snapshot(self, tmp_path):
        config = ServiceConfig(wal_dir=str(tmp_path), **BASE)
        live = RatingEngine(config)
        live.submit_many(make_stream(61, seed=4))  # 5 ratings pending
        live.close()
        _assert_recovers_equal(live, RatingEngine.recover(tmp_path, config=config))

    def test_deadline_flushes_recover_at_their_positions(self, tmp_path, monkeypatch):
        # A clock that advances at every reading: 10 ms while live, 1 s
        # during the replay, which must not flush on its own deadline.
        clock = {"now": 0.0, "step": 0.01}

        def monotonic():
            clock["now"] += clock["step"]
            return clock["now"]

        monkeypatch.setattr("repro.service.engine.time.monotonic", monotonic)
        config = ServiceConfig(
            wal_dir=str(tmp_path),
            **{**BASE, "batch_max_ratings": 10_000, "batch_max_seconds": 0.13},
        )
        live = RatingEngine(config)
        live.submit_many(make_stream(90, seed=5))
        assert live.snapshot_stats()["trust_updates"] > 5
        _crash(live)
        clock["step"] = 1.0
        _assert_recovers_equal(live, RatingEngine.recover(tmp_path, config=config))

    @settings(max_examples=25, deadline=None)
    @given(
        flush_at=st.lists(st.integers(min_value=1, max_value=79), max_size=6),
        snapshot_at=st.one_of(st.none(), st.integers(min_value=1, max_value=79)),
        backend=st.sampled_from(["memory", "tiered"]),
    )
    def test_any_flush_positions_recover_exactly(self, flush_at, snapshot_at, backend):
        stream = make_stream(80, seed=6)
        with tempfile.TemporaryDirectory() as wal_dir:
            config = ServiceConfig(wal_dir=wal_dir, store_backend=backend, **BASE)
            live = RatingEngine(config)
            for i, rating in enumerate(stream):
                live.submit(rating)
                if i + 1 in flush_at:
                    live.flush()
                if i + 1 == snapshot_at:
                    live.snapshot()
            _crash(live)
            recovered = RatingEngine.recover(wal_dir, config=config)
            _assert_recovers_equal(live, recovered)
            recovered.close()


def _crash(engine):
    """Drop an engine without flush/close; only its WAL lock goes."""
    engine.wal.close()


def _assert_recovers_equal(live, recovered):
    """The recovered engine's trust state equals the live engine's."""
    assert recovered.trust_table() == live.trust_table()
    assert recovered.suspicion_table() == live.suspicion_table()
    assert recovered.detected_malicious() == live.detected_malicious()
    rec, ref = recovered.snapshot_stats(), live.snapshot_stats()
    for key in ("trust_updates", "pending", "n_accepted"):
        assert rec[key] == ref[key], key
    for product_id in range(3):
        assert recovered.score(product_id) == live.score(product_id)
