"""DP: durability-protocol rules over interprocedural effect summaries.

The serving tier's crash-safety story is a protocol, not a property of
any one call: *write to a temp file, flush, fsync, atomically rename,
fsync the directory, only then acknowledge*.  Each DP rule checks one
leg of that protocol on the effect sequences built by
:mod:`repro.devtools.analysis.effects`:

* **DP01** -- atomic-replace hygiene.  (a) A file write with no fsync
  between it and a rename means the rename can publish a torn file;
  (b) a rename/unlink with no later directory fsync in the same
  function means the directory entry itself may be lost on power
  failure (the file's contents survive but its *name* does not).
  Arm (b) anchors on a function's own rename/unlink events only --
  the function that mutates the directory owns the directory fsync.
* **DP02** -- declared orderings (``__effect_contracts__``
  ``orderings``): every occurrence of the *after* effect on a
  function's flattened sequence must see the *before* effect earlier.
  This is how ``wal_append`` happens-before ``ack`` is enforced on the
  HTTP handler without the rule knowing anything about HTTP.
* **DP03** -- buffered write left unflushed at an fsync.  ``fsync``
  flushes the kernel's buffers, not Python's: ``h.write();
  os.fsync(h.fileno())`` without ``h.flush()`` syncs stale bytes.
  Checked intraprocedurally on handle-matched direct events (raw
  ``os.write`` is unbuffered and exempt).
"""

from __future__ import annotations

from typing import Iterator, List

from repro.devtools.analysis.effects import (
    FunctionEffects,
    effect_summaries,
    get_effect_index,
)
from repro.devtools.core import Finding, Rule, SourceFile, register

__all__ = ["AtomicReplaceRule", "OrderingContractRule", "UnflushedWriteRule"]


@register
class AtomicReplaceRule(Rule):
    id = "DP01"
    name = "atomic-replace-hygiene"
    rationale = (
        "An os.replace publishes whatever bytes reached the inode: a "
        "write with no fsync before the rename can publish a torn "
        "file, and a rename/unlink with no directory fsync after it "
        "can vanish entirely on power loss."
    )

    def run(self, project, files: List[SourceFile]) -> Iterator[Finding]:
        summaries = effect_summaries(project, files)
        for qualname, fn in sorted(project.functions.items()):
            effects = summaries[qualname]
            yield from self._check_torn_write(fn.file, effects)
            yield from self._check_dir_fsync(fn.file, effects)

    def _check_torn_write(
        self, file: SourceFile, effects: FunctionEffects
    ) -> Iterator[Finding]:
        pending_line = None
        for event in effects.events:
            if event.kind == "write":
                if event.direct:
                    pending_line = event.line
            elif event.kind in ("fsync", "dir_fsync", "flush"):
                # flush alone does not make the write durable, but the
                # torn-publish arm only tracks fsync; flush keeps the
                # pending write (DP03 owns the flush discipline).
                if event.kind != "flush":
                    pending_line = None
            elif event.kind == "rename" and event.direct:
                if pending_line is not None:
                    yield self.finding(
                        file,
                        event.line,
                        "rename publishes a file written at line "
                        f"{pending_line} with no fsync in between -- a "
                        "crash can publish a torn file (write, flush, "
                        "fsync, then os.replace)",
                    )
                pending_line = None

    def _check_dir_fsync(
        self, file: SourceFile, effects: FunctionEffects
    ) -> Iterator[Finding]:
        events = effects.events
        for idx, event in enumerate(events):
            if event.kind not in ("rename", "unlink") or not event.direct:
                continue
            covered = any(
                later.kind == "dir_fsync" for later in events[idx + 1 :]
            )
            if not covered:
                yield self.finding(
                    file,
                    event.line,
                    f"{event.kind} mutates a directory entry with no "
                    "directory fsync afterwards -- the entry itself can "
                    "be lost on power failure (fsync an O_RDONLY fd of "
                    "the directory after the mutation)",
                )


@register
class OrderingContractRule(Rule):
    id = "DP02"
    name = "declared-effect-ordering"
    rationale = (
        "Durability orderings (WAL append happens-before ack, snapshot "
        "write happens-before WAL GC) span several call layers; a "
        "declared ordering is checked on the function's flattened "
        "effect sequence so refactors cannot silently reorder them."
    )

    def run(self, project, files: List[SourceFile]) -> Iterator[Finding]:
        summaries = effect_summaries(project, files)
        index = get_effect_index(project, files)
        for qualname, pairs in sorted(index.orderings.items()):
            fn = project.functions.get(qualname)
            if fn is None:
                continue
            file = fn.file
            kinds = [event.kind for event in summaries[qualname].events]
            lines = [event.line for event in summaries[qualname].events]
            for before, after in pairs:
                seen_before = False
                for idx, kind in enumerate(kinds):
                    if kind == before:
                        seen_before = True
                    elif kind == after and not seen_before:
                        yield self.finding(
                            file,
                            lines[idx],
                            f"declared ordering violated: '{after}' at "
                            f"this point has no preceding '{before}' on "
                            f"any path through {qualname} "
                            "(__effect_contracts__ orderings)",
                        )
                        break


@register
class UnflushedWriteRule(Rule):
    id = "DP03"
    name = "unflushed-write-at-fsync"
    rationale = (
        "os.fsync flushes kernel buffers, not Python's userspace "
        "buffer: fsync on a handle with unflushed writes syncs stale "
        "bytes and the tail is lost on crash."
    )

    def run(self, project, files: List[SourceFile]) -> Iterator[Finding]:
        summaries = effect_summaries(project, files)
        for qualname, fn in sorted(project.functions.items()):
            file = fn.file
            dirty = {}
            for event in summaries[qualname].direct:
                if not event.detail:
                    continue
                if event.kind == "write":
                    dirty[event.detail] = event.line
                elif event.kind == "flush":
                    dirty.pop(event.detail, None)
                elif event.kind == "fsync":
                    line = dirty.pop(event.detail, None)
                    if line is not None:
                        yield self.finding(
                            file,
                            event.line,
                            f"fsync of '{event.detail}' while its write "
                            f"at line {line} is still in the userspace "
                            "buffer -- call .flush() before os.fsync or "
                            "the tail is lost on crash",
                        )
