"""Where and how a benchmark result was produced.

:func:`provenance` is stamped into every result the benchmark writes,
so a number can always be traced back to the code (git sha and dirty
flag), the interpreter and numpy it ran on, the machine's size and how
busy it was at the start, the seed, and the time.
"""

from __future__ import annotations

import datetime
import os
import platform
import subprocess
from pathlib import Path
from typing import List, Optional

import numpy as np

__all__ = ["provenance", "warnings_for"]


def _git(root: Path, *args: str) -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", *args],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(root: Path, seed: int) -> dict:
    """The provenance record for a run from checkout ``root`` at ``seed``.

    ``git_sha`` and ``git_dirty`` are None unless ``root`` is the top of
    a git work tree (a checkout nested in some other repository must
    not report that repository's commit).
    """
    sha = status = None
    top = _git(root, "rev-parse", "--show-toplevel")
    if top is not None and Path(top).resolve() == root.resolve():
        sha = _git(root, "rev-parse", "HEAD")
        status = _git(root, "status", "--porcelain")
    return {
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "seed": seed,
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }


def warnings_for(record: dict) -> List[str]:
    """Warnings a reader of the result should see (an overloaded box)."""
    load = record["loadavg_start"][0]
    if load > record["affinity"]:
        return [
            f"1-minute load average {load:.2f} exceeds the {record['affinity']} "
            f"usable CPUs at start: timings are inflated by other work"
        ]
    return []
