"""Span recorder for traced benchmark runs, loaded by every ``repro`` process.

The benchmark puts this directory first on ``PYTHONPATH`` of the
processes it starts and sets ``REPRO_E2E_TRACE_DIR``; Python imports
``sitecustomize`` at start-up, and cluster workers (spawned
interpreters with the same environment) inherit it.  Without the
variable the module does nothing.

It wraps each layer's entry points from outside -- the program's code
is not changed -- recording one span ``(name, start, end, id, parent,
key)`` per call.  ``parent`` is the innermost open span of the calling
thread; ``key`` joins spans across processes (the coordinator sequence
number ``g`` of a rating, carried in the worker's ``wal_meta``).
``time.monotonic()`` is one system-wide clock, so spans from different
processes share a time base.  Names a module imported by value (for
example ``coordinator.send_msg``) are patched as well.

Alongside spans it keeps the WAL fsync durations (through the
``on_fsync`` callback the WAL already takes), the size and type of
every framed cluster message, the coordinator's ingest queue depth
(sampled at 10 Hz from its public ``render_metrics()``), and, at exit,
each engine's ``metrics.render()`` text.  Everything stays in memory
and is written to ``<REPRO_E2E_TRACE_DIR>/trace-<pid>.json`` when an
engine closes and again at interpreter exit.
"""

from __future__ import annotations

import os
import sys

_TRACE_DIR = os.environ.get("REPRO_E2E_TRACE_DIR")

# multiprocessing's resource tracker is a helper interpreter in the same
# process group that never runs repro code; importing repro into it
# would add ~100 MB to the RSS the traced run reports.
_HELPER = any("resource_tracker" in arg for arg in getattr(sys, "orig_argv", ()))


def _install(trace_dir: str) -> None:
    import atexit
    import functools
    import inspect
    import itertools
    import json
    import multiprocessing
    import multiprocessing.connection as mpc
    import threading
    import time

    from repro.ratings.store import RatingStore
    from repro.service import engine as engine_mod
    from repro.service import http as http_mod
    from repro.service import wal as wal_mod
    from repro.service.cluster import coordinator as coordinator_mod
    from repro.service.cluster import framing as framing_mod
    from repro.service.cluster import worker as worker_mod
    from repro.service.ensemble.ar_source import ARSuspicionSource
    from repro.service.ensemble.cograph import CoRatingGraphSource
    from repro.service.ensemble.iterfilter import IterativeFilterSource
    from repro.trust.manager import TrustManager

    monotonic = time.monotonic
    local = threading.local()
    ids = itertools.count(1)
    spans: list = []
    fsyncs: list = []
    frames: list = []
    queue_depths: list = []
    # Strong references: the exit-time dump must still reach engines
    # whose owners dropped them.
    engines: list = []
    coordinators: list = []

    def record(name, fn, key=None):
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else 0
            sid = next(ids)
            stack.append(sid)
            result = None
            start = monotonic()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = monotonic()
                stack.pop()
                try:
                    tag = key(args, kwargs, result) if key is not None else None
                except Exception:  # noqa: BLE001 - a failed call has no key
                    tag = None
                spans.append((name, start, end, sid, parent, tag))

        return functools.update_wrapper(wrapper, fn)

    def patch(owner, attr, name, key=None):
        original = getattr(owner, attr)
        wrapped = record(name, original, key)
        setattr(owner, attr, wrapped)
        if inspect.ismodule(owner):
            for module in list(sys.modules.values()):
                if (
                    getattr(module, "__name__", "").startswith("repro")
                    and getattr(module, attr, None) is original
                ):
                    setattr(module, attr, wrapped)

    def submit_key(args, kwargs, result):
        meta = kwargs.get("wal_meta", args[2] if len(args) > 2 else None)
        return int(meta["g"]) if meta else None

    def wal_role(args, kwargs, result):
        return "coord" if args[0].directory.name == "coordinator" else "engine"

    patch(http_mod._Handler, "do_POST", "http.post")
    patch(http_mod._Handler, "do_GET", "http.get")
    patch(
        coordinator_mod.ClusterCoordinator,
        "submit",
        "coordinator.submit",
        key=lambda a, k, r: r.seq,
    )
    patch(coordinator_mod.ClusterCoordinator, "score", "coordinator.score")
    patch(
        framing_mod, "send_msg", "framing.send", key=lambda a, k, r: a[1].get("type")
    )
    patch(worker_mod._WorkerRuntime, "trust_delegate", "trust.delegate")
    patch(engine_mod.RatingEngine, "submit", "engine.submit", key=submit_key)
    patch(engine_mod.RatingEngine, "flush", "engine.flush")
    patch(engine_mod.RatingEngine, "score", "engine.score")
    patch(wal_mod.WriteAheadLog, "append", "wal.append", key=wal_role)
    patch(RatingStore, "add_rating", "store.add")
    patch(RatingStore, "stream", "store.stream")
    for label, cls in (
        ("ar", ARSuspicionSource),
        ("cograph", CoRatingGraphSource),
        ("iterfilter", IterativeFilterSource),
    ):
        patch(cls, "observe", f"ensemble.{label}.observe")
        patch(cls, "flush", f"ensemble.{label}.flush")
    patch(TrustManager, "update", "trust.update")

    # Frame sizes: send_msg hands its encoded frame to send_bytes, so a
    # send_bytes call inside an open framing.send span is that frame;
    # the span id links the size to the span's message type.
    original_send_bytes = mpc._ConnectionBase.send_bytes

    def send_bytes(self, buf, *args, **kwargs):
        stack = getattr(local, "stack", None)
        if stack:
            frames.append((stack[-1], len(buf)))
        return original_send_bytes(self, buf, *args, **kwargs)

    mpc._ConnectionBase.send_bytes = functools.update_wrapper(
        send_bytes, original_send_bytes
    )

    # WAL fsync durations, through the callback the WAL already offers.
    wal_init = wal_mod.WriteAheadLog.__init__
    wal_signature = inspect.signature(wal_init)

    def init_wal(self, *args, **kwargs):
        bound = wal_signature.bind(self, *args, **kwargs)
        bound.apply_defaults()
        downstream = bound.arguments["on_fsync"]
        directory = os.path.basename(str(bound.arguments["path"]))
        role = "coord" if directory == "coordinator" else "engine"

        def on_fsync(seconds):
            fsyncs.append((role, seconds))
            if downstream is not None:
                downstream(seconds)

        bound.arguments["on_fsync"] = on_fsync
        wal_init(*bound.args, **bound.kwargs)

    wal_mod.WriteAheadLog.__init__ = functools.update_wrapper(init_wal, wal_init)

    def dump() -> None:
        if coordinators:
            role = "coordinator"
        elif multiprocessing.parent_process() is not None:
            role = "worker"
        else:
            role = "engine"
        state = {
            "pid": os.getpid(),
            "role": role,
            "spans": list(spans),
            "fsyncs": list(fsyncs),
            "frames": list(frames),
            "queue_depths": list(queue_depths),
            "metrics": {
                "engine": [engine.metrics.render() for engine in engines],
                "coordinator": [c.metrics.render() for c in coordinators],
            },
        }
        path = os.path.join(trace_dir, f"trace-{os.getpid()}.json")
        tmp = path + ".tmp"
        with open(tmp, "w") as handle:
            json.dump(state, handle)
        os.replace(tmp, path)

    engine_init = engine_mod.RatingEngine.__init__
    engine_close = engine_mod.RatingEngine.close
    coordinator_init = coordinator_mod.ClusterCoordinator.__init__

    def init_engine(self, *args, **kwargs):
        engine_init(self, *args, **kwargs)
        engines.append(self)

    def close_engine(self):
        engine_close(self)
        dump()

    def sample_queue(coordinator) -> None:
        while True:
            depth = 0.0
            for line in coordinator.render_metrics().splitlines():
                if line.startswith("repro_ingest_queue_depth{"):
                    depth = max(depth, float(line.rsplit(" ", 1)[1]))
            queue_depths.append(depth)
            time.sleep(0.1)

    def init_coordinator(self, *args, **kwargs):
        coordinator_init(self, *args, **kwargs)
        coordinators.append(self)
        threading.Thread(target=sample_queue, args=(self,), daemon=True).start()

    engine_mod.RatingEngine.__init__ = functools.update_wrapper(init_engine, engine_init)
    engine_mod.RatingEngine.close = functools.update_wrapper(close_engine, engine_close)
    coordinator_mod.ClusterCoordinator.__init__ = functools.update_wrapper(
        init_coordinator, coordinator_init
    )
    atexit.register(dump)


if _TRACE_DIR and not _HELPER:
    _install(_TRACE_DIR)
