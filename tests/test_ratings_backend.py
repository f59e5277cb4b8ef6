"""Tests for the pluggable rating-store backends.

The contract under test: `InMemoryBackend` and `TieredRatingBackend`
are observationally equivalent through both the `RatingStore` API and
the full `RatingEngine` pipeline, and the tiered backend is what
licenses WAL segment garbage collection.
"""

from __future__ import annotations

import pytest

from repro.ratings import (
    InMemoryBackend,
    Product,
    RaterClass,
    RaterProfile,
    RatingStore,
    TieredRatingBackend,
)
from repro.service import RatingEngine, ServiceConfig, list_segments
from repro.service.wal import list_snapshots
from tests.test_service_engine import BASE, make_stream


def _backends(tmp_path):
    return {
        "memory": InMemoryBackend(),
        "tiered": TieredRatingBackend(path=tmp_path / "tiered.sqlite"),
        "tiered-ram": TieredRatingBackend(path=None),
    }


def _populated_store(backend, stream):
    store = RatingStore(backend=backend)
    for pid in {r.product_id for r in stream}:
        store.add_product(Product(product_id=pid, quality=0.5))
    for rid in {r.rater_id for r in stream}:
        store.add_rater(
            RaterProfile(rater_id=rid, rater_class=RaterClass.RELIABLE)
        )
    for seq, rating in enumerate(stream):
        store.add_rating(rating, seq=seq)
    return store


class TestStoreEquivalence:
    def test_reads_agree_across_backends(self, tmp_path):
        """Every read comes off sqlite and agrees with the in-memory
        reference, in order."""
        stream = make_stream(120, n_products=4, n_raters=9, seed=3)
        stores = {
            name: _populated_store(backend, stream)
            for name, backend in _backends(tmp_path).items()
        }
        reference = stores.pop("memory")
        for name, store in stores.items():
            assert store.n_ratings == reference.n_ratings, name
            for pid in reference.product_ids:
                assert [
                    (r.rater_id, r.value, r.time)
                    for r in store.backend.product_ratings(pid)
                ] == [
                    (r.rater_id, r.value, r.time)
                    for r in reference.backend.product_ratings(pid)
                ], (name, pid)
            for rid in reference.rater_ids:
                assert [
                    (r.product_id, r.value, r.time)
                    for r in store.backend.rater_ratings(rid)
                ] == [
                    (r.product_id, r.value, r.time)
                    for r in reference.backend.rater_ratings(rid)
                ], (name, rid)
            for rating in stream[:20]:
                assert store.has_rated(rating.rater_id, rating.product_id)
            assert not store.has_rated(10_000, 0)

    def test_persistence_across_reopen(self, tmp_path):
        stream = make_stream(30, seed=5)
        path = tmp_path / "t.sqlite"
        backend = TieredRatingBackend(path=path)
        for seq, rating in enumerate(stream):
            backend.add(rating, seq=seq)
        backend.commit()
        backend.close()

        reopened = TieredRatingBackend(path=path)
        assert reopened.n_ratings == 30
        assert sorted(reopened.product_ids()) == sorted(
            {r.product_id for r in stream}
        )
        assert [r.value for r in reopened.all_ratings()] == [
            r.value for r in stream
        ]
        reopened.close()

    def test_clear_drops_pending_commit_credit(self, tmp_path):
        """clear() with uncommitted buffered rows must reset the pending
        counter: the cleared rows were never committed, so they must not
        inflate cold_ratings on the next commit."""
        stream = make_stream(20, seed=11)
        backend = TieredRatingBackend(path=tmp_path / "t.sqlite")
        for seq, rating in enumerate(stream[:10]):
            backend.add(rating, seq=seq)
        # Rows are buffered but not committed; clearing discards them.
        backend.clear()
        assert backend.n_ratings == 0
        for seq, rating in enumerate(stream[10:]):
            backend.add(rating, seq=seq)
        backend.commit()
        assert backend.stats()["cold_ratings"] == 10
        assert backend.n_ratings == 10
        backend.close()

    def test_truncate_from_rolls_back(self, tmp_path):
        stream = make_stream(50, seed=6)
        backend = TieredRatingBackend(path=tmp_path / "t.sqlite")
        for seq, rating in enumerate(stream):
            backend.add(rating, seq=seq)
        kept = backend.truncate_from(20)
        assert kept == 20
        assert backend.n_ratings == 20
        assert [r.value for r in backend.all_ratings()] == [
            r.value for r in stream[:20]
        ]

    def test_add_is_idempotent_by_seq(self, tmp_path):
        """INSERT OR REPLACE on seq: re-ingesting a replayed suffix
        must not duplicate rows."""
        stream = make_stream(20, seed=7)
        backend = TieredRatingBackend(path=tmp_path / "t.sqlite")
        for seq, rating in enumerate(stream):
            backend.add(rating, seq=seq)
        for seq, rating in enumerate(stream[10:], start=10):
            backend.add(rating, seq=seq)
        backend.commit()
        assert backend.stats()["cold_ratings"] == 20

    def test_clear_empties_both_tiers(self, tmp_path):
        backend = TieredRatingBackend(path=tmp_path / "t.sqlite")
        for seq, rating in enumerate(make_stream(15, seed=8)):
            backend.add(rating, seq=seq)
        backend.clear()
        assert backend.n_ratings == 0
        assert backend.all_ratings() == []
        assert backend.stats()["cold_ratings"] == 0


class TestEngineEquivalence:
    def test_memory_and_tiered_engines_agree(self, tmp_path):
        """Same stream through both backends (tiered: rows only in
        sqlite): identical trust, scores, and counters."""
        stream = make_stream(200, seed=9)
        engines = {}
        for name in ("memory", "tiered"):
            config = ServiceConfig(
                wal_dir=str(tmp_path / name),
                store_backend=name,
                **BASE,
            )
            engine = RatingEngine(config)
            engine.submit_many(stream)
            engine.flush()
            engines[name] = engine

        memory, tiered = engines["memory"], engines["tiered"]
        assert tiered.trust_table() == memory.trust_table()
        for pid in range(3):
            assert tiered.score(pid) == memory.score(pid)
        m_stats, t_stats = memory.snapshot_stats(), tiered.snapshot_stats()
        for key in ("n_accepted", "ar_evaluations", "windows_flagged",
                    "trust_updates", "n_products", "n_raters"):
            assert t_stats[key] == m_stats[key], key
        for engine in engines.values():
            engine.close()

    def test_storage_stats_shape(self, tmp_path):
        config = ServiceConfig(
            wal_dir=str(tmp_path), store_backend="tiered", **BASE
        )
        engine = RatingEngine(config)
        engine.submit_many(make_stream(60, seed=10))
        engine.flush()
        stats = engine.storage_stats()
        assert stats["backend"] == "tiered"
        assert stats["path"].endswith("ratings.sqlite")
        assert stats["cold_ratings"] + stats["pending_ratings"] == 60
        # 60 ratings plus one flush marker per trust update.
        trust_updates = engine.snapshot_stats()["trust_updates"]
        assert stats["wal"]["n_entries"] == 60 + trust_updates
        assert stats["wal"]["n_segments"] >= 1
        engine.close()


class TestWalGc:
    def test_tiered_snapshot_collects_covered_segments(self, tmp_path):
        """With durable cold tiers, snapshotting deletes every sealed
        segment the snapshot covers and keeps one snapshot."""
        config = ServiceConfig(
            wal_dir=str(tmp_path),
            store_backend="tiered",
            wal_segment_entries=25,
            **BASE,
        )
        engine = RatingEngine(config)
        engine.submit_many(make_stream(130, seed=11))
        engine.snapshot()
        starts = [start for start, _ in list_segments(tmp_path)]
        assert starts, "active segment always survives"
        assert min(starts) >= 100, starts
        assert engine.wal.first_seq == min(starts)
        assert len(list_snapshots(tmp_path)) == 1
        engine.close()

    def test_memory_backend_keeps_all_segments(self, tmp_path):
        """The memory backend rebuilds its store from the log, so GC
        must only prune snapshots, never segments."""
        config = ServiceConfig(
            wal_dir=str(tmp_path), wal_segment_entries=25, **BASE
        )
        engine = RatingEngine(config)
        engine.submit_many(make_stream(130, seed=11))
        engine.snapshot()
        starts = [start for start, _ in list_segments(tmp_path)]
        assert min(starts) == 0
        assert len(list_snapshots(tmp_path)) == 1
        engine.close()

    def test_gc_disabled_keeps_everything(self, tmp_path):
        config = ServiceConfig(
            wal_dir=str(tmp_path),
            store_backend="tiered",
            wal_segment_entries=25,
            wal_gc=False,
            snapshot_every=40,
            **BASE,
        )
        engine = RatingEngine(config)
        engine.submit_many(make_stream(130, seed=11))
        engine.snapshot()
        starts = [start for start, _ in list_segments(tmp_path)]
        assert min(starts) == 0
        assert len(list_snapshots(tmp_path)) >= 2
        engine.close()

    def test_recovery_after_gc(self, tmp_path):
        """Post-GC recovery: prefix from the cold tier, suffix from the
        surviving segments; result matches an uninterrupted run."""
        stream = make_stream(160, seed=12)
        reference = RatingEngine(
            ServiceConfig(
                wal_dir=str(tmp_path / "ref"), store_backend="tiered", **BASE
            )
        )
        reference.submit_many(stream)
        reference.flush()

        crash_dir = tmp_path / "crash"
        engine = RatingEngine(
            ServiceConfig(
                wal_dir=str(crash_dir),
                store_backend="tiered",
                wal_segment_entries=20,
                snapshot_every=50,
                **BASE,
            )
        )
        engine.submit_many(stream)
        assert engine.wal.first_seq > 0, "GC must have run for this test"
        engine.wal.close()  # crash: only the owner lock is released
        del engine

        recovered = RatingEngine.recover(crash_dir)
        recovered.flush()
        assert recovered.n_accepted == 160
        assert recovered.trust_table() == reference.trust_table()
        for pid in range(3):
            assert recovered.score(pid) == reference.score(pid)
        recovered.close()
        reference.close()

    def test_memory_recovery_refuses_gcd_log(self, tmp_path):
        """A memory-backend engine pointed at a GC'd log fails loudly
        instead of silently recovering a hole."""
        from repro.errors import ConfigurationError

        config = ServiceConfig(
            wal_dir=str(tmp_path),
            store_backend="tiered",
            wal_segment_entries=10,
            snapshot_every=30,
            **BASE,
        )
        engine = RatingEngine(config)
        engine.submit_many(make_stream(60, seed=13))
        assert engine.wal.first_seq > 0
        engine.close()
        for snapshot in list_snapshots(tmp_path):
            snapshot.unlink()
        with pytest.raises(ConfigurationError):
            RatingEngine.recover(
                tmp_path, config=ServiceConfig(wal_dir=str(tmp_path), **BASE)
            )
