"""Incremental analysis cache: skip re-analyzing unchanged files.

The cache is a single JSON manifest under ``.lint-cache/`` keyed by
content hashes, never mtimes, so it survives checkouts and touch(1):

* a **signature** covering the cache format version, the executed rule
  ids, the contract-registry digest, and the lint universe (the sorted
  relative paths of every linted file).  Any mismatch discards the
  manifest wholesale -- different rule sets or file sets never share
  entries;
* per linted file: its content hash, the content hashes of its
  **transitive import cone** at analysis time, and the raw findings
  each rule produced for it (suppression already resolved -- it is a
  function of the file text -- but baselining is recomputed fresh
  every run);
* the content hashes of every **external input** the executed rules
  declared (the DX reference roots: tests, benchmarks, examples).

Validity is per file: an entry is reusable iff its own hash and every
cone hash still match the current tree.  A changed file therefore
invalidates exactly itself plus its reverse import closure -- the
definition of "only dependents re-analyze".  Recording the cone
*transitively* keeps this sound: any change that could alter a file's
cone necessarily changes some file inside the old cone.

When nothing is invalid and no external input changed, the runner
reuses every finding without parsing a single file (the ``hit`` fast
path); otherwise it re-runs file- and cone-scoped rules over the
invalid files and global rules over everything (``partial``).  A
missing, corrupt, or signature-mismatched manifest is a ``cold`` run.
Writes are atomic (temp file + ``os.replace``).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional

__all__ = ["AnalysisCache", "CachePlan", "content_hash"]

_FORMAT_VERSION = 1
_MANIFEST_NAME = "analysis.json"


def content_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def compute_signature(
    rule_ids: List[str],
    contract_digest: str,
    universe: List[str],
    effects_digest: str = "",
) -> str:
    payload = {
        "format": _FORMAT_VERSION,
        "rules": sorted(rule_ids),
        "contracts": contract_digest,
        "effects": effects_digest,
        "universe": sorted(universe),
    }
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


@dataclass
class CachePlan:
    """What a run can reuse and what it must redo.

    Attributes:
        status: ``"cold"`` (no usable manifest), ``"hit"`` (everything
            reusable), or ``"partial"``.
        valid: relpath -> cached entry for files whose hash and whole
            import cone still match the tree.
        dirty: relpaths that must be re-analyzed, sorted.
        externals_changed: some rule's external input changed, so
            global rules must re-run even if no file did.
    """

    status: str
    valid: Dict[str, dict] = field(default_factory=dict)
    dirty: List[str] = field(default_factory=list)
    externals_changed: bool = True


class AnalysisCache:
    """The on-disk manifest plus the reuse computation."""

    def __init__(self, cache_dir: Path) -> None:
        self.cache_dir = Path(cache_dir)
        self.manifest_path = self.cache_dir / _MANIFEST_NAME

    # -- I/O --------------------------------------------------------------

    def load(self, signature: str) -> Optional[dict]:
        """The manifest, or None when missing/corrupt/mismatched."""
        try:
            raw = self.manifest_path.read_text(encoding="utf-8")
            manifest = json.loads(raw)
        except (OSError, ValueError):
            return None
        if not isinstance(manifest, dict):
            return None
        if manifest.get("format") != _FORMAT_VERSION:
            return None
        if manifest.get("signature") != signature:
            return None
        if not isinstance(manifest.get("files"), dict):
            return None
        return manifest

    def save(self, manifest: dict) -> None:
        """Atomically persist the manifest (best-effort on readonly FS)."""
        try:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                prefix=".analysis-", suffix=".json.tmp", dir=str(self.cache_dir)
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    json.dump(manifest, handle, sort_keys=True)
                # The manifest is deliberately NOT durable (no fsync, no
                # directory fsync): a torn or vanished manifest fails the
                # signature/JSON check on the next run and the cache goes
                # cold -- an optimisation lost, never data.  The atomic
                # rename only protects concurrent readers.
                os.replace(tmp_name, self.manifest_path)  # repro: lint-disable[DP01]
            finally:
                if os.path.exists(tmp_name):
                    try:
                        os.unlink(tmp_name)  # repro: lint-disable[DP01]
                    except OSError:
                        pass  # stale temp file is harmless
        except OSError:
            pass  # caching is an optimisation, never a failure mode

    # -- planning ---------------------------------------------------------

    def plan(
        self,
        signature: str,
        current: Mapping[str, str],
        externals: Mapping[str, str],
    ) -> CachePlan:
        """Split the universe into reusable and dirty files.

        Args:
            signature: this run's signature.
            current: relpath -> content hash of every file to lint.
            externals: relpath -> content hash of the executed rules'
                external inputs.
        """
        manifest = self.load(signature)
        if manifest is None:
            return CachePlan(
                status="cold", dirty=sorted(current), externals_changed=True
            )
        entries = manifest["files"]
        valid: Dict[str, dict] = {}
        dirty: List[str] = []
        for relpath, sha in current.items():
            entry = entries.get(relpath)
            if (
                isinstance(entry, dict)
                and entry.get("sha") == sha
                and all(
                    current.get(dep) == dep_sha
                    for dep, dep_sha in (entry.get("deps") or {}).items()
                )
            ):
                valid[relpath] = entry
            else:
                dirty.append(relpath)
        externals_changed = manifest.get("externals", {}) != dict(externals)
        if not dirty and not externals_changed:
            status = "hit"
        elif valid:
            status = "partial"
        else:
            status = "cold"
        return CachePlan(
            status=status,
            valid=valid,
            dirty=sorted(dirty),
            externals_changed=externals_changed,
        )

    @staticmethod
    def build_manifest(
        signature: str,
        current: Mapping[str, str],
        deps: Mapping[str, Mapping[str, str]],
        findings_by_file: Mapping[str, Mapping[str, List[dict]]],
        externals: Mapping[str, str],
    ) -> dict:
        """Assemble the manifest for :meth:`save`.

        Args:
            current: relpath -> content hash.
            deps: relpath -> {cone relpath -> content hash}.
            findings_by_file: relpath -> {rule id -> raw finding dicts}.
            externals: external input relpath -> content hash.
        """
        files = {}
        for relpath, sha in current.items():
            files[relpath] = {
                "sha": sha,
                "deps": dict(deps.get(relpath, {})),
                "findings": {
                    rule_id: list(items)
                    for rule_id, items in (
                        findings_by_file.get(relpath) or {}
                    ).items()
                    if items
                },
            }
        return {
            "format": _FORMAT_VERSION,
            "signature": signature,
            "externals": dict(externals),
            "files": files,
        }
