"""Concurrency rules: lock ordering, blocking I/O, declared guards.

The serving stack (``repro.service``) nests an engine ``RLock``, a
trust lock, and the WAL's own lock.  Related
work on iterative reputation systems shows aggregation-state
corruption *compounds* across update rounds, so these rules turn the
locking discipline into a machine-checked invariant instead of a code
review item:

* **CC01** -- builds the whole-program lock-acquisition graph (lexical
  ``with`` nesting plus project-resolvable calls made while holding a
  lock) and flags cycles (lock-order inversions) and re-acquisition of
  non-reentrant locks.
* **CC02** -- flags calls that (transitively) reach blocking I/O
  (``time.sleep``, ``os.fsync``, ``subprocess``, sockets, builtin
  ``open``) while a lock is lexically held.  Latency under the engine
  lock is serialized latency for every product the engine serves.
* **CC03** -- enforces ``_GUARDED_BY`` class declarations: a write to
  a declared attribute (or a mutating call through it) outside a
  ``with <receiver>.<lock>:`` region is a data race by declaration.
  ``__init__``/``__new__`` are exempt, as are functions whose
  docstring states the synchronization contract ("lock held",
  "single-threaded") or whose name ends in ``_locked``.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.devtools.core import Finding, Rule, SourceFile, register
from repro.devtools.project import FunctionModel, LockNode, ProjectModel

# Method-name prefixes treated as mutations for CC03's call clause.
MUTATOR_PREFIXES = (
    "add", "append", "apply", "clear", "dec", "discard", "drain", "extend",
    "inc", "insert", "load", "merge", "observe", "pop", "prune", "push",
    "record", "register", "remove", "set", "update", "write",
)

_Witness = Tuple[str, int, str]  # (relpath, line, via-qualname)


def _lock_label(node: LockNode) -> str:
    return f"{node[0]}.{node[1]}"


def _collect_edges(
    project: ProjectModel,
) -> Dict[LockNode, Dict[LockNode, _Witness]]:
    """Adjacency map of ``A held -> B acquired`` with first witnesses."""
    edges: Dict[LockNode, Dict[LockNode, _Witness]] = {}

    def add(src: LockNode, dst: LockNode, witness: _Witness) -> None:
        edges.setdefault(src, {}).setdefault(dst, witness)

    for fn in project.functions.values():
        for edge in fn.edges:
            add(edge.src, edge.dst, (fn.file.relpath, edge.line, fn.qualname))
        for call in fn.calls:
            if not call.held or call.callee is None:
                continue
            for dst in project.acquires(call.callee):
                for held in call.held:
                    add(
                        held.node,
                        dst,
                        (fn.file.relpath, call.line, fn.qualname),
                    )
    return edges


@register
class LockOrderRule(Rule):
    id = "CC01"
    name = "lock-order-inversion"
    rationale = (
        "Two code paths acquiring the same locks in opposite orders can "
        "deadlock under concurrency; every lock pair must have one global "
        "order. Re-acquiring a non-reentrant lock self-deadlocks."
    )

    def run(self, project: ProjectModel, files: List[SourceFile]) -> Iterator[Finding]:
        edges = _collect_edges(project)
        by_path = {file.relpath: file for file in files}

        def finding_at(witness: _Witness, message: str) -> Optional[Finding]:
            file = by_path.get(witness[0])
            if file is None:
                return None
            return self.finding(file, witness[1], message)

        # Self-edges on non-reentrant primitives.
        for src in sorted(edges):
            witness = edges[src].get(src)
            if witness is not None and src[2] != "RLock":
                found = finding_at(
                    witness,
                    f"non-reentrant {src[2]} {_lock_label(src)} is acquired "
                    f"while already held (in {witness[2]})",
                )
                if found:
                    yield found

        # Cycles between distinct locks.
        reported: Set[frozenset] = set()
        for start in sorted(edges):
            cycle = self._shortest_cycle(edges, start)
            if cycle is None:
                continue
            key = frozenset(cycle)
            if key in reported:
                continue
            reported.add(key)
            path = " -> ".join(_lock_label(node) for node in cycle + [cycle[0]])
            witnesses = []
            for a, b in zip(cycle, cycle[1:] + [cycle[0]]):
                relpath, line, via = edges[a][b]
                witnesses.append(
                    f"{_lock_label(a)} -> {_lock_label(b)} in {via} "
                    f"({relpath}:{line})"
                )
            first = edges[cycle[0]][cycle[1]] if len(cycle) > 1 else None
            if first is None:
                continue
            found = finding_at(
                first,
                f"lock-order inversion: {path}; " + "; ".join(witnesses),
            )
            if found:
                yield found

    @staticmethod
    def _shortest_cycle(
        edges: Dict[LockNode, Dict[LockNode, _Witness]], start: LockNode
    ) -> Optional[List[LockNode]]:
        """BFS for the shortest cycle through ``start`` (length >= 2)."""
        parents: Dict[LockNode, LockNode] = {}
        queue = deque(dst for dst in sorted(edges.get(start, ())) if dst != start)
        for node in list(queue):
            parents.setdefault(node, start)
        while queue:
            node = queue.popleft()
            for nxt in sorted(edges.get(node, ())):
                if nxt == start:
                    path = [node]
                    while path[-1] != start:
                        path.append(parents[path[-1]])
                    return list(reversed(path))
                if nxt not in parents:
                    parents[nxt] = node
                    queue.append(nxt)
        return None


@register
class BlockingUnderLockRule(Rule):
    id = "CC02"
    name = "blocking-call-under-lock"
    rationale = (
        "A lock held across blocking I/O serializes every thread needing "
        "that lock behind the device; under the engine lock that is the "
        "tail latency of every product the engine serves."
    )

    def run(self, project: ProjectModel, files: List[SourceFile]) -> Iterator[Finding]:
        by_path = {file.relpath: file for file in files}
        seen: Set[Tuple[str, int, str]] = set()
        for qualname in sorted(project.functions):
            fn = project.functions[qualname]
            file = by_path.get(fn.file.relpath)
            if file is None:
                continue
            for seed in fn.seeds:
                if not seed.held:
                    continue
                key = (fn.file.relpath, seed.line, seed.seed)
                if key in seen:
                    continue
                seen.add(key)
                held = ", ".join(_lock_label(h.node) for h in seed.held)
                yield self.finding(
                    file,
                    seed.line,
                    f"blocking call {seed.seed}() while holding {held}",
                )
            for call in fn.calls:
                if not call.held or call.callee is None:
                    continue
                reason = project.blocking_reason(call.callee)
                if reason is None:
                    continue
                key = (fn.file.relpath, call.line, call.func_src)
                if key in seen:
                    continue
                seen.add(key)
                held = ", ".join(_lock_label(h.node) for h in call.held)
                yield self.finding(
                    file,
                    call.line,
                    f"blocking call {call.func_src}() while holding {held} "
                    f"(reaches {reason})",
                )


@register
class GuardedByRule(Rule):
    id = "CC03"
    name = "guarded-attribute-outside-lock"
    rationale = (
        "_GUARDED_BY declares which lock owns each piece of shared state; "
        "a write (or mutating call) outside that lock is a data race that "
        "silently corrupts trust and suspicion tallies."
    )

    def run(self, project: ProjectModel, files: List[SourceFile]) -> Iterator[Finding]:
        by_path = {file.relpath: file for file in files}
        for qualname in sorted(project.functions):
            fn = project.functions[qualname]
            if fn.node.name in ("__init__", "__new__") or fn.assume_locked:
                continue
            file = by_path.get(fn.file.relpath)
            if file is None:
                continue
            for write in fn.writes:
                if write.receiver_type is None:
                    continue
                violation = self._check(project, fn, write.receiver_type,
                                        write.receiver, write.attr, write.held)
                if violation:
                    yield self.finding(
                        file,
                        write.line,
                        f"write to {write.receiver}.{write.attr} ({violation})",
                    )
            for call in fn.guard_calls:
                if not call.method.startswith(MUTATOR_PREFIXES):
                    continue
                violation = self._check(project, fn, call.receiver_type,
                                        call.receiver, call.attr, call.held)
                if violation:
                    yield self.finding(
                        file,
                        call.line,
                        f"mutating call {call.receiver}.{call.attr}"
                        f".{call.method}() ({violation})",
                    )

    @staticmethod
    def _check(
        project: ProjectModel,
        fn: FunctionModel,
        receiver_type: str,
        receiver: str,
        attr: str,
        held,
    ) -> Optional[str]:
        """Return a violation description, or None when properly locked."""
        guard = project.guard_for(receiver_type, attr)
        if guard is None:
            return None
        lock = project.lock_node(receiver_type, guard)
        if lock is None:
            return None
        for heldlock in held:
            if heldlock.node == lock and heldlock.receiver == receiver:
                return None
        return (
            f"declared _GUARDED_BY {receiver_type}.{guard} in "
            f"{fn.qualname}, but `with {receiver}.{guard}:` is not held"
        )
