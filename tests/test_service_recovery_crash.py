"""Real-process crash tests: SIGKILL the engine, recover, compare.

Unlike `tests/test_service_wal.py` (which simulates crashes by
dropping engine objects in-process), these tests run the engine in a
child interpreter and kill it with ``SIGKILL`` -- no atexit hooks, no
garbage collection, no chance to flush.  Every accepted rating
reaches the OS before it mutates state, and ``submit_many`` fsyncs
each chunk before it returns, so the
parent must recover **all** of them, bit-for-bit, from whatever the
kill left on disk: mid-segment, just after a rotation, or with a torn
trailing record.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.service import RatingEngine, ServiceConfig, list_segments
from tests.test_service_engine import BASE, make_stream

REPO_ROOT = Path(__file__).resolve().parents[1]
STREAM_SEED = 21
STREAM_LEN = 300

# Runs in a child interpreter; argv = wal_dir, n_submit, mode,
# store_backend, segment_entries, snapshot_every.  The child submits a
# deterministic prefix, optionally tears the WAL tail, then SIGKILLs
# itself mid-flight.
_CHILD = """
import os, signal, sys
from repro.service import RatingEngine, ServiceConfig
from tests.test_service_engine import BASE, make_stream

wal_dir, n, mode, backend, seg, snap = sys.argv[1:7]
config = ServiceConfig(
    wal_dir=wal_dir,
    store_backend=backend,
    wal_segment_entries=int(seg),
    snapshot_every=int(snap),
    **BASE,
)
engine = RatingEngine(config)
stream = make_stream({length}, seed={seed})
engine.submit_many(stream[: int(n)])
if mode == "torn":
    # A crash mid-append: partial JSON, no trailing newline.
    with open(engine.wal.path, "ab") as fh:
        fh.write(b'{{"rating_id": 99999, "rater_id": 1, "val')
        fh.flush()
        os.fsync(fh.fileno())
os.kill(os.getpid(), signal.SIGKILL)
""".format(length=STREAM_LEN, seed=STREAM_SEED)


def _kill_child(wal_dir, n, mode="clean", backend="memory", seg=1000, snap=0):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(REPO_ROOT / "src"), str(REPO_ROOT)])
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            _CHILD,
            str(wal_dir),
            str(n),
            mode,
            backend,
            str(seg),
            str(snap),
        ],
        env=env,
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == -signal.SIGKILL, proc.stderr


def _config(wal_dir, backend="memory", seg=1000, snap=0):
    return ServiceConfig(
        wal_dir=str(wal_dir),
        store_backend=backend,
        wal_segment_entries=seg,
        snapshot_every=snap,
        **BASE,
    )


def _reference(tmp_path, n, backend="memory"):
    """An uninterrupted engine over the same accepted prefix."""
    engine = RatingEngine(_config(tmp_path / "reference", backend=backend))
    engine.submit_many(make_stream(STREAM_LEN, seed=STREAM_SEED)[:n])
    return engine


def _assert_equivalent(recovered, reference):
    recovered.flush()
    reference.flush()
    assert recovered.n_accepted == reference.n_accepted
    assert recovered.trust_table() == reference.trust_table()
    for product_id in range(3):
        assert recovered.score(product_id) == reference.score(product_id)
    rec, ref = recovered.snapshot_stats(), reference.snapshot_stats()
    for key in ("n_accepted", "ar_evaluations", "windows_flagged",
                "trust_updates", "n_products", "n_raters"):
        assert rec[key] == ref[key], key


@pytest.mark.parametrize("backend", ["memory", "tiered"])
class TestSigkill:
    def test_kill_mid_segment(self, tmp_path, backend):
        """SIGKILL partway through a segment, with periodic snapshots
        (and, for tiered, segment GC) having run."""
        crash_dir = tmp_path / "crash"
        _kill_child(crash_dir, n=137, backend=backend, seg=25, snap=40)

        recovered = RatingEngine.recover(crash_dir)
        _assert_equivalent(recovered, _reference(tmp_path, 137, backend))
        recovered.close()

    def test_kill_right_after_rotation(self, tmp_path, backend):
        """The dangerous instant: a fresh segment holding one record."""
        crash_dir = tmp_path / "crash"
        _kill_child(crash_dir, n=61, backend=backend, seg=20)

        assert [s for s, _ in list_segments(crash_dir)] == [0, 20, 40, 60]
        recovered = RatingEngine.recover(
            crash_dir, config=_config(crash_dir, backend=backend, seg=20)
        )
        _assert_equivalent(recovered, _reference(tmp_path, 61, backend))
        recovered.close()

    def test_kill_with_torn_tail(self, tmp_path, backend):
        """A partial trailing record is dropped exactly once; every
        fsynced rating before it survives."""
        crash_dir = tmp_path / "crash"
        _kill_child(crash_dir, n=90, mode="torn", backend=backend, seg=40)

        recovered = RatingEngine.recover(
            crash_dir, config=_config(crash_dir, backend=backend, seg=40)
        )
        reference = _reference(tmp_path, 90, backend)
        _assert_equivalent(recovered, reference)
        recovered.close()

        # The repair truncated the torn bytes away: a second open sees
        # a clean log with the same entry count -- 90 ratings plus one
        # marker per flush, the recovered engine's final one included.
        from repro.service import WriteAheadLog

        wal = WriteAheadLog(crash_dir, segment_entries=40)
        assert wal.n_entries == 90 + reference.snapshot_stats()["trust_updates"]
        wal.close()

    def test_recovered_engine_continues_the_stream(self, tmp_path, backend):
        """Recovery is a working engine, not a read-only reconstruction:
        feeding the rest of the stream matches an uninterrupted run."""
        crash_dir = tmp_path / "crash"
        _kill_child(crash_dir, n=150, backend=backend, seg=30, snap=60)

        stream = make_stream(STREAM_LEN, seed=STREAM_SEED)
        recovered = RatingEngine.recover(crash_dir)
        recovered.submit_many(stream[150:])

        reference = RatingEngine(_config(tmp_path / "ref", backend=backend))
        reference.submit_many(stream)
        _assert_equivalent(recovered, reference)
        recovered.close()
