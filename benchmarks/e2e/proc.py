"""Subprocess hygiene for the system under test.

Every ``repro`` process the benchmark starts is a session leader
(``start_new_session=True``), so it and the cluster workers it spawns
share one process group that :func:`stop_group` can signal as a unit
on any exit path -- a crashed benchmark must not leave an orphaned
``repro serve --workers N`` behind.  :class:`RssMonitor` polls the
group's resident memory from ``/proc`` at 10 Hz.

All files live under a per-run work directory inside the benchmark's
own directory (``benchmarks/e2e/.e2e_work/run-*``);
``TMPDIR`` points there too, so the coordinator's rendezvous socket
does not land in the system temp directory.
"""

from __future__ import annotations

import os
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from benchmarks.e2e.client import http_request

__all__ = ["RssMonitor", "Server", "Workspace", "stop_group"]

#: Longest absolute TMPDIR that keeps ``<TMPDIR>/repro-cluster-XXXXXXXX/
#: coordinator.sock`` under the 107-byte AF_UNIX path limit.
_MAX_TMPDIR = 64

_LAUNCH_TIMEOUT_S = 60.0
_STOP_TIMEOUT_S = 30.0


def _stat_fields(pid: int) -> Optional[List[str]]:
    """Fields of ``/proc/<pid>/stat`` after the command name."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            raw = handle.read().decode("ascii", "replace")
    except OSError:
        return None
    return raw[raw.rfind(")") + 2 :].split()


def group_members(pgid: int) -> List[int]:
    """Live (non-zombie) processes in process group ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        # fields[0] = state, fields[2] = pgrp
        if fields and fields[0] != "Z" and int(fields[2]) == pgid:
            members.append(int(entry))
    return members


def _rss_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def stop_group(proc: subprocess.Popen, graceful: bool) -> None:
    """Stop a session leader and every process in its group, and wait.

    ``graceful`` sends SIGTERM to the leader first (``repro serve``
    drains, snapshots and shuts its workers down on SIGTERM); whatever
    is still alive afterwards is SIGKILLed as a group.  Returns only
    once no live process remains in the group.
    """
    pgid = proc.pid
    if graceful and proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=_STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            pass
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + _STOP_TIMEOUT_S
    while group_members(pgid) and time.monotonic() < deadline:
        time.sleep(0.01)


class RssMonitor:
    """Peak resident memory of one process group, polled at 10 Hz.

    ``peak_mb`` is the peak of the group's summed RSS;
    ``peak_leader_mb`` and ``peak_others_mb`` split it into the group
    leader (the coordinator or in-process engine) and everything else
    (cluster workers).
    """

    def __init__(self, pgid: int, interval: float = 0.1) -> None:
        self.pgid = pgid
        self.interval = interval
        self.peak_mb = 0.0
        self.peak_leader_mb = 0.0
        self.peak_others_mb = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _sample(self) -> None:
        leader = others = 0.0
        for pid in group_members(self.pgid):
            if pid == self.pgid:
                leader += _rss_mb(pid)
            else:
                others += _rss_mb(pid)
        self.peak_mb = max(self.peak_mb, leader + others)
        self.peak_leader_mb = max(self.peak_leader_mb, leader)
        self.peak_others_mb = max(self.peak_others_mb, others)

    def _run(self) -> None:
        while not self._stop.is_set():
            self._sample()
            self._stop.wait(self.interval)

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)


class Workspace:
    """A per-run directory under ``benchmarks/e2e/.e2e_work``, removed on exit.

    Also builds the environment every ``repro`` subprocess runs with:
    ``PYTHONPATH`` pointing at the checkout's ``src`` (plus the trace
    hook when tracing), and ``TMPDIR`` inside the workspace.  When the
    absolute workspace path is too long for a Unix socket path,
    subprocesses run with the workspace as their working directory
    and a relative ``TMPDIR``.
    """

    def __init__(self, root: Path) -> None:
        self.root = root
        base = root / "benchmarks" / "e2e" / ".e2e_work"
        base.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix="run-", dir=base))
        self._counter = 0
        self._procs: List[subprocess.Popen] = []

    def fresh_dir(self, prefix: str) -> Path:
        self._counter += 1
        path = self.path / f"{prefix}{self._counter}"
        path.mkdir()
        return path

    def env(self, trace_dir: Optional[Path] = None) -> Dict[str, str]:
        env = dict(os.environ)
        paths = [str(self.root / "src")]
        if trace_dir is not None:
            paths.insert(0, str(self.root / "benchmarks" / "e2e" / "tracehook"))
            env["REPRO_E2E_TRACE_DIR"] = str(trace_dir)
        else:
            env.pop("REPRO_E2E_TRACE_DIR", None)
        env["PYTHONPATH"] = os.pathsep.join(paths)
        absolute = str(self.path)
        env["TMPDIR"] = absolute if len(absolute) <= _MAX_TMPDIR else "."
        return env

    def popen(self, argv: Sequence[str], env: Dict[str, str], **kwargs) -> subprocess.Popen:
        """Start ``python -m repro <argv>`` as a new session leader."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *argv],
            env=env,
            cwd=self.path,
            start_new_session=True,
            **kwargs,
        )
        self._procs.append(proc)
        return proc

    def close(self) -> None:
        """Kill anything still running, then delete the directory."""
        for proc in self._procs:
            # A reaped leader's group was emptied by stop_group, and its
            # pid may since belong to someone else: leave it alone.
            if proc.returncode is None:
                stop_group(proc, graceful=False)
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            self.path.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    def __enter__(self) -> "Workspace":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Server:
    """One ``repro serve`` process group, up and answering ``/healthz``.

    ``repro serve`` reports the port it was asked for, not one it
    bound, so the harness picks a free port itself and retries with
    another when the server exits with ``EADDRINUSE``.
    """

    def __init__(self, workspace: Workspace, args: Sequence[str], env: Dict[str, str]):
        self.workspace = workspace
        self.args = list(args)
        self.env = env
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self.monitor: Optional[RssMonitor] = None

    def start(self, attempts: int = 5) -> float:
        """Launch and wait for ``/healthz`` 200; returns the launch seconds."""
        for _ in range(attempts):
            self.port = _free_port()
            log = self.workspace.fresh_dir("serve-") / "stderr.log"
            started = time.monotonic()
            with log.open("wb") as stderr_file:
                self.proc = self.workspace.popen(
                    ["serve", "--port", str(self.port), *self.args],
                    self.env,
                    stdout=subprocess.DEVNULL,
                    stderr=stderr_file,
                )
            self.monitor = RssMonitor(self.proc.pid)
            if self._await_health(started):
                return time.monotonic() - started
            self.monitor.stop()
            stop_group(self.proc, graceful=False)
            stderr = log.read_text(errors="replace")
            if "Address already in use" not in stderr:
                raise RuntimeError(
                    f"repro serve {' '.join(self.args)} failed to start "
                    f"(exit {self.proc.returncode}): {stderr.strip()[-2000:]}"
                )
        raise RuntimeError(f"no free port after {attempts} attempts")

    def _await_health(self, started: float) -> bool:
        while time.monotonic() - started < _LAUNCH_TIMEOUT_S:
            if self.proc.poll() is not None:
                return False
            try:
                status, _, _ = http_request(self.port, "GET", "/healthz")
                if status == 200:
                    return True
            except (OSError, ValueError, IndexError):
                pass
            time.sleep(0.005)
        return False

    def get(self, path: str) -> dict:
        status, payload, _ = http_request(self.port, "GET", path)
        if status != 200:
            raise RuntimeError(f"GET {path} returned {status}: {payload}")
        return payload

    def stop(self, graceful: bool = True) -> None:
        if self.monitor is not None:
            self.monitor.stop()
        if self.proc is not None:
            stop_group(self.proc, graceful=graceful)
