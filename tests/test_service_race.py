"""Concurrency stress test: the invariant the lock rules protect.

Eight threads hammer one :class:`RatingEngine`, so all of them
contend on its single engine lock.  Two properties must survive the
interleaving:

1. **WAL order == apply order.**  The WAL is appended under the engine
   lock (a CC02 baseline entry in ``.lint-baseline.json`` exists
   precisely to preserve this), so replaying the WAL through a
   fresh engine single-threaded must land on *bit-for-bit identical*
   trust values -- exact float equality, not approximate.
2. **No lost updates.**  With ``forgetting_factor=1.0`` trust evidence
   is purely additive, so the final trust table and counters are
   invariant to how the flush batching interleaves; every accepted
   rating is tallied exactly once (the ``_GUARDED_BY`` declarations
   checked by lint rule CC03 are what make this hold).

Each thread owns one product, so per-product time ordering is
deterministic and no rating is rejected as out-of-order.
"""

from __future__ import annotations

import math
import sys
import threading

import numpy as np

from repro.ratings.models import Rating
from repro.service import RatingEngine, ServiceConfig
from repro.service.wal import list_snapshots

N_THREADS = 8
PER_THREAD = 120


def thread_ratings(thread_id, seed):
    """One thread's ratings: its own product, monotone times."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(PER_THREAD):
        value = 0.55 + 0.3 * math.sin((i + thread_id) / 9.0)
        value = float(np.clip(value + rng.normal(0, 0.05), 0, 1))
        out.append(
            Rating(
                rating_id=thread_id * PER_THREAD + i,
                rater_id=int(rng.integers(0, 12)),
                product_id=thread_id,
                value=round(value, 3),
                time=float(i),
            )
        )
    return out


def make_config(wal_dir):
    return ServiceConfig(
        batch_max_ratings=16,
        detector_window=12,
        detector_order=2,
        detector_stride=3,
        ensemble_thresholds=(0.2,),
        trust_forgetting_factor=1.0,
        wal_dir=str(wal_dir),
    )


def test_concurrent_submits_match_single_threaded_replay(tmp_path):
    engine = RatingEngine(make_config(tmp_path / "live"))
    batches = [thread_ratings(t, seed=100 + t) for t in range(N_THREADS)]

    barrier = threading.Barrier(N_THREADS)
    accepted = [0] * N_THREADS

    def worker(thread_id):
        barrier.wait()
        for rating in batches[thread_id]:
            result = engine.submit(rating)
            if result.accepted:
                accepted[thread_id] += 1

    threads = [
        threading.Thread(target=worker, args=(t,)) for t in range(N_THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    engine.flush()

    # Per-product times are monotone, so nothing may be rejected.
    assert accepted == [PER_THREAD] * N_THREADS
    assert engine.n_accepted == N_THREADS * PER_THREAD

    live_trust = engine.trust_table()
    live_stats = engine.snapshot_stats()
    engine.close()

    # Single-threaded replay of the live engine's own WAL.
    replayed = RatingEngine.recover(
        tmp_path / "live", config=make_config(tmp_path / "live")
    )
    replayed.flush()
    replay_trust = replayed.trust_table()
    replay_stats = replayed.snapshot_stats()
    replayed.close()

    # Exact equality: WAL order == apply order, and additive
    # evidence (forgetting=1.0) is invariant to flush partitioning.
    assert replay_trust == live_trust
    for key in ("n_accepted", "n_products", "n_raters", "windows_flagged"):
        assert replay_stats[key] == live_stats[key], key


def test_concurrent_totals_are_not_lost(tmp_path):
    """Engine counters under contention: every accepted rating counted once."""
    engine = RatingEngine(make_config(tmp_path / "wal"))
    batches = [thread_ratings(t, seed=7 + t) for t in range(N_THREADS)]
    threads = [
        threading.Thread(target=engine.submit_many, args=(batches[t],))
        for t in range(N_THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    engine.flush()
    stats = engine.snapshot_stats()
    assert stats["n_accepted"] == N_THREADS * PER_THREAD
    assert stats["n_products"] == N_THREADS
    assert engine.metrics.counter("repro_ratings_accepted_total").value == (
        N_THREADS * PER_THREAD
    )
    engine.close()


def test_snapshots_under_concurrent_submits_recover_exactly(tmp_path):
    """A snapshot captures its state under the engine lock and writes
    the file while other threads keep submitting; racing automatic
    snapshots (and the WAL GC behind them) must still leave a
    directory that recovers to the live engine's exact state."""
    wal_dir = tmp_path / "live"
    config = ServiceConfig.from_dict(
        {
            **make_config(wal_dir).to_dict(),
            "snapshot_every": 50,
            "store_backend": "tiered",
            "wal_segment_entries": 40,
        }
    )
    engine = RatingEngine(config)
    batches = [thread_ratings(t, seed=300 + t) for t in range(N_THREADS)]
    barrier = threading.Barrier(N_THREADS)

    def worker(thread_id):
        barrier.wait()
        for rating in batches[thread_id]:
            engine.submit(rating)

    threads = [
        threading.Thread(target=worker, args=(t,)) for t in range(N_THREADS)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    engine.flush()
    live_trust = engine.trust_table()
    live_scores = [engine.score(pid) for pid in range(N_THREADS)]
    assert engine.wal.first_seq > 0  # snapshots really garbage-collected
    engine.close()
    assert len(list_snapshots(wal_dir)) == 1

    recovered = RatingEngine.recover(wal_dir)
    recovered.flush()
    assert recovered.n_accepted == N_THREADS * PER_THREAD
    assert recovered.trust_table() == live_trust
    assert [recovered.score(pid) for pid in range(N_THREADS)] == live_scores
    recovered.close()
