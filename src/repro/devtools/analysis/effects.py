"""Per-function I/O effect summaries for the durability rules.

The DP family reasons about *protocol orderings* -- fsync before
rename, WAL append before acknowledgement -- which no single AST can
show: the append happens three calls below the HTTP handler that acks.
This module computes, for every project function, an ordered **effect
sequence** by walking its statements and inlining the effects of every
resolvable callee (recursion-guarded, length-capped), so a rule can
ask "does a ``dir_fsync`` follow this unlink?" or "does a
``wal_append`` precede this 2xx response?" on one flat list.

Primitive effects are recognised structurally:

* ``write``   -- ``h.write/writelines/truncate``, ``json.dump(x, h)``,
  ``os.write``;
* ``flush``   -- ``h.flush()``;
* ``fsync``   -- ``os.fsync``/``os.fdatasync`` on a file handle;
* ``dir_fsync`` -- the ``fd = os.open(d, os.O_RDONLY)`` +
  ``os.fsync(fd)`` idiom that flushes a directory entry table;
* ``rename``  -- ``os.replace``/``os.rename``/``shutil.move``;
* ``unlink``  -- ``os.unlink``/``os.remove``/``path.unlink(...)``;
* ``ack``     -- a call to a registered acknowledgement provider whose
  first argument is a 2xx integer literal (4xx/5xx error responses are
  *not* acks -- rejecting before the append is the correct order).

Named effects come from the :class:`EffectRegistry`: the seed table
below maps the WAL surface (``WriteAheadLog.append`` -> ``wal_append``
and so on), and any module can add its own with a literal
``__effect_contracts__`` declaration::

    __effect_contracts__ = {
        "providers": {"Log.append": "wal_append"},
        "ack_providers": ["Server.respond"],
        "orderings": {"Server.handle": [["wal_append", "ack"]]},
    }

Names are module-relative (``Class.method`` or ``func``); ``orderings``
lists happens-before pairs checked by DP02 on the declaring function's
flattened sequence.

Soundness note (documented in docs/LINT.md): calls the resolver cannot
map to a project function contribute no effects, so the analysis
under-approximates; generator callees are never inlined (their body
runs detached from the call site).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.devtools.analysis.model import AnalysisModel, get_analysis
from repro.devtools.core import SourceFile
from repro.devtools.project import FunctionModel, ProjectModel

__all__ = [
    "EffectEvent",
    "EffectIndex",
    "EffectRegistry",
    "FunctionEffects",
    "default_effect_registry",
    "effect_summaries",
    "get_effect_index",
]

#: Flattened sequences are capped so a pathological call graph cannot
#: blow up the analysis; 400 events is far beyond any real function.
_MAX_EVENTS = 400

_RENAME_SRCS = {"os.replace", "os.rename", "shutil.move"}
_UNLINK_SRCS = {"os.unlink", "os.remove"}
_FSYNC_SRCS = {"os.fsync", "os.fdatasync"}
_WRITE_ATTRS = {"write", "writelines", "truncate"}
_DIR_FLAG_RE = re.compile(r"O_RDONLY|O_DIRECTORY")
_HANDLE_OPEN_SRCS = {"open", "os.fdopen"}


@dataclass(frozen=True)
class EffectEvent:
    """One I/O effect at one point of a function's linearisation.

    Attributes:
        kind: primitive or registry effect name (``fsync``,
            ``wal_append``, ...).
        line: line in the summarised function (inlined callee effects
            carry their call site's line).
        direct: the effect happens in this function's own body, not in
            an inlined callee.
        detail: receiver text for handle-level effects (``handle``,
            ``self._handle``) -- empty for inherited effects.
    """

    kind: str
    line: int
    direct: bool = True
    detail: str = ""


@dataclass
class FunctionEffects:
    """One function's effect summary.

    ``direct`` holds only the function's own events (with receiver
    details, for the intraprocedural buffered-write check); ``events``
    is the flattened sequence with resolvable callees inlined.
    """

    direct: List[EffectEvent] = field(default_factory=list)
    events: List[EffectEvent] = field(default_factory=list)


class EffectRegistry:
    """Declared effect providers, ack providers, and orderings -- the
    seed table plus ``__effect_contracts__``."""

    def __init__(self) -> None:
        #: dotted function name -> named effect it provides.
        self.providers: Dict[str, str] = dict(_SEED_PROVIDERS)
        #: dotted names of functions whose 2xx-literal calls are acks.
        self.ack_providers: Set[str] = set(_SEED_ACK_PROVIDERS)
        #: bare method names treated as ack providers even when the
        #: receiver cannot be resolved (stdlib handler plumbing).
        self.ack_methods: Set[str] = set(_SEED_ACK_METHODS)
        #: dotted function name -> happens-before pairs on its
        #: flattened sequence.
        self.orderings: Dict[str, List[Tuple[str, str]]] = {
            name: list(pairs) for name, pairs in _SEED_ORDERINGS.items()
        }

    # -- extension --------------------------------------------------------

    def extend_from_module(self, module_name: str, tree: ast.Module) -> None:
        """Collect ``__effect_contracts__`` declarations from a module."""
        for stmt in tree.body:
            if not isinstance(stmt, ast.Assign):
                continue
            targets = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
            if "__effect_contracts__" not in targets:
                continue
            try:
                spec = ast.literal_eval(stmt.value)
            except (ValueError, SyntaxError):
                continue
            if not isinstance(spec, dict):
                continue
            self._merge_spec(module_name, spec)

    def _merge_spec(self, module_name: str, spec: Mapping) -> None:
        providers = spec.get("providers")
        if isinstance(providers, dict):
            for name, effect in providers.items():
                self.providers[f"{module_name}.{name}"] = str(effect)
        for name in spec.get("ack_providers") or ():
            self.ack_providers.add(f"{module_name}.{name}")
        orderings = spec.get("orderings")
        if isinstance(orderings, dict):
            for name, pairs in orderings.items():
                cleaned = [
                    (str(pair[0]), str(pair[1]))
                    for pair in pairs
                    if isinstance(pair, (list, tuple)) and len(pair) == 2
                ]
                if cleaned:
                    self.orderings[f"{module_name}.{name}"] = cleaned


#: The WAL/snapshot durability surface (PR 8) expressed as effects.
_SEED_PROVIDERS: Dict[str, str] = {
    "repro.service.wal.WriteAheadLog.append": "wal_append",
    "repro.service.wal.WriteAheadLog.sync": "wal_fsync",
    "repro.service.wal.WriteAheadLog.gc": "wal_gc",
    "repro.service.wal.write_snapshot": "snapshot_write",
    "repro.service.wal.prune_snapshots": "wal_gc",
    "repro.ratings.store.RatingStore.add_rating": "store_add",
}

_SEED_ACK_PROVIDERS: Tuple[str, ...] = (
    "repro.service.http._Handler._send_json",
    "repro.service.http._Handler._send_text",
)

_SEED_ACK_METHODS: Tuple[str, ...] = ("send_response",)

#: Orderings for the engine/HTTP tier are declared next to the code
#: they constrain (``__effect_contracts__`` in engine.py / http.py);
#: the seed table stays empty so fixtures document the mechanism.
_SEED_ORDERINGS: Dict[str, List[Tuple[str, str]]] = {}


def default_effect_registry() -> EffectRegistry:
    """A fresh registry holding only the seed tables."""
    return EffectRegistry()


@dataclass
class EffectIndex:
    """The registry resolved onto this run's project qualnames."""

    #: function qualname -> named effect it provides.
    provider_effects: Dict[str, str] = field(default_factory=dict)
    #: qualnames whose 2xx-literal calls count as acks.
    ack_qualnames: Set[str] = field(default_factory=set)
    #: bare method names treated as acks without resolution.
    ack_methods: Set[str] = field(default_factory=set)
    #: function qualname -> happens-before pairs.
    orderings: Dict[str, List[Tuple[str, str]]] = field(default_factory=dict)


def get_effect_index(
    project: ProjectModel, files: Sequence[SourceFile]
) -> EffectIndex:
    """The run's resolved effect registry, built once and memoized."""
    cached = getattr(project, "_effect_index", None)
    if cached is not None:
        return cached
    analysis = get_analysis(project, files)
    registry = default_effect_registry()
    for info in analysis.modules.values():
        if info.module:
            registry.extend_from_module(info.module, info.file.tree)
    index = EffectIndex(ack_methods=set(registry.ack_methods))
    for dotted, effect in registry.providers.items():
        qualname = analysis.resolve_dotted(dotted)
        if qualname is not None:
            index.provider_effects[qualname] = effect
    for dotted in registry.ack_providers:
        qualname = analysis.resolve_dotted(dotted)
        if qualname is not None:
            index.ack_qualnames.add(qualname)
    for dotted, pairs in registry.orderings.items():
        qualname = analysis.resolve_dotted(dotted)
        if qualname is not None:
            index.orderings[qualname] = list(pairs)
    project._effect_index = index
    return index


# -- per-function collection ------------------------------------------------


@dataclass
class _Item:
    """One collected point: a primitive effect or an unresolved call."""

    kind: str  # an effect kind, or "call"
    line: int
    detail: str = ""
    call: Optional[ast.Call] = None


def _dotted_source(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted_source(node.value)
        return f"{base}.{node.attr}" if base is not None else None
    return None


class _EffectCollector:
    """Linearises one function body into effect/call items.

    Statements are visited in source order, recursing through
    ``if``/``for``/``while``/``try``/``with`` blocks (branch bodies are
    concatenated -- the linearisation over-approximates orderings the
    same way on every path that exists in the source).  Nested ``def``
    and ``class`` bodies run in their own frame and are skipped.
    """

    def __init__(self) -> None:
        self.items: List[_Item] = []
        #: local names bound to buffered file handles.
        self._handles: Set[str] = set()
        #: local names bound to directory fds (``os.open(d, O_RDONLY)``).
        self._dir_fds: Set[str] = set()

    def walk(self, stmts: Sequence[ast.stmt]) -> None:
        for stmt in stmts:
            self._statement(stmt)

    def _statement(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            self._track_binding(stmt.targets[0], stmt.value)
        if isinstance(stmt, ast.With):
            for item in stmt.items:
                if isinstance(item.optional_vars, ast.Name) and isinstance(
                    item.context_expr, ast.Call
                ):
                    self._track_handle_call(
                        item.optional_vars.id, item.context_expr
                    )
        self._collect_calls_shallow(stmt)
        if isinstance(stmt, ast.Try):
            self.walk(stmt.body)
            for handler in stmt.handlers:
                self.walk(handler.body)
            self.walk(stmt.orelse)
            self.walk(stmt.finalbody)
            return
        for fieldname in ("body", "orelse", "finalbody"):
            children = getattr(stmt, fieldname, None)
            if children:
                self.walk(children)

    def _track_binding(self, target: ast.AST, value: ast.AST) -> None:
        if not isinstance(target, ast.Name) or not isinstance(value, ast.Call):
            return
        self._track_handle_call(target.id, value)

    def _track_handle_call(self, name: str, call: ast.Call) -> None:
        src = _dotted_source(call.func)
        if src == "os.open":
            flags = " ".join(ast.unparse(arg) for arg in call.args[1:])
            if _DIR_FLAG_RE.search(flags):
                self._dir_fds.add(name)
            return
        if src in _HANDLE_OPEN_SRCS:
            self._handles.add(name)
        elif isinstance(call.func, ast.Attribute) and call.func.attr == "open":
            self._handles.add(name)

    def _collect_calls_shallow(self, stmt: ast.stmt) -> None:
        """Classify calls in this statement's own expressions."""
        blocks: Set[int] = set()
        for fieldname in ("body", "orelse", "finalbody", "handlers"):
            for child in getattr(stmt, fieldname, []) or []:
                blocks.update(id(n) for n in ast.walk(child))
        calls = [
            node
            for node in ast.walk(stmt)
            if isinstance(node, ast.Call) and id(node) not in blocks
        ]
        for call in sorted(calls, key=lambda c: (c.lineno, c.col_offset)):
            self._classify(call)

    def _classify(self, call: ast.Call) -> None:
        src = _dotted_source(call.func)
        line = call.lineno
        if src in _RENAME_SRCS:
            self.items.append(_Item("rename", line))
            return
        if src in _UNLINK_SRCS or (
            isinstance(call.func, ast.Attribute) and call.func.attr == "unlink"
        ):
            self.items.append(_Item("unlink", line))
            return
        if src in _FSYNC_SRCS and call.args:
            self.items.append(self._fsync_item(call.args[0], line))
            return
        if src == "os.write":
            self.items.append(_Item("write", line))
            return
        if src == "json.dump" and len(call.args) >= 2:
            detail = _dotted_source(call.args[1]) or ast.unparse(call.args[1])
            self.items.append(_Item("write", line, detail=detail))
            return
        if isinstance(call.func, ast.Attribute):
            receiver = ast.unparse(call.func.value)
            if call.func.attr in _WRITE_ATTRS:
                self.items.append(_Item("write", line, detail=receiver))
                return
            if call.func.attr == "flush" and not call.args:
                self.items.append(_Item("flush", line, detail=receiver))
                return
        self.items.append(_Item("call", line, call=call))

    def _fsync_item(self, arg: ast.expr, line: int) -> _Item:
        if isinstance(arg, ast.Name) and arg.id in self._dir_fds:
            return _Item("dir_fsync", line)
        # ``os.fsync(h.fileno())`` -- the usual buffered-handle form.
        if (
            isinstance(arg, ast.Call)
            and isinstance(arg.func, ast.Attribute)
            and arg.func.attr == "fileno"
        ):
            return _Item("fsync", line, detail=ast.unparse(arg.func.value))
        return _Item("fsync", line, detail=ast.unparse(arg))


# -- flattening -------------------------------------------------------------


class _SyntheticCall:
    """Duck-typed :class:`CallEvent` for the shared resolver."""

    __slots__ = ("callee", "func_src", "held", "line")

    def __init__(self, func_src: str, line: int) -> None:
        self.callee = None
        self.func_src = func_src
        self.held = ()
        self.line = line


def _call_targets(
    fn: FunctionModel,
    call: ast.Call,
    project: ProjectModel,
    analysis: AnalysisModel,
    typer,
) -> List[str]:
    func = call.func
    if isinstance(func, ast.Attribute):
        base = typer(func.value)
        if base is not None:
            method = project.method(base, func.attr)
            return [method.qualname] if method is not None else []
    src = _dotted_source(func)
    if src is None:
        return []
    return analysis.resolve_call_targets(fn, _SyntheticCall(src, call.lineno))


def _is_2xx_literal(call: ast.Call) -> bool:
    if not call.args:
        return False
    first = call.args[0]
    return (
        isinstance(first, ast.Constant)
        and isinstance(first.value, int)
        and not isinstance(first.value, bool)
        and 200 <= first.value <= 299
    )


def effect_summaries(
    project: ProjectModel, files: Sequence[SourceFile]
) -> Dict[str, FunctionEffects]:
    """Effect summaries per function qualname, built once per run."""
    cached = getattr(project, "_effect_summaries", None)
    if cached is not None:
        return cached
    analysis = get_analysis(project, files)
    index = get_effect_index(project, files)
    collected: Dict[str, _EffectCollector] = {}
    typers: Dict[str, object] = {}
    for qualname, fn in project.functions.items():
        collector = _EffectCollector()
        collector.walk(fn.node.body)
        collected[qualname] = collector
        typers[qualname] = project.function_typer(fn)

    #: memoized flattened *kinds* per function (lines are meaningless
    #: once inlined into a caller -- callers re-anchor at the call site).
    kinds_memo: Dict[str, Tuple[str, ...]] = {}

    def resolve(qualname: str, call: ast.Call) -> Tuple[List[str], bool]:
        """(targets, is_ack) for one call item of ``qualname``."""
        fn = project.functions[qualname]
        targets = _call_targets(fn, call, project, analysis, typers[qualname])
        is_ack = _is_2xx_literal(call) and (
            any(target in index.ack_qualnames for target in targets)
            or (
                isinstance(call.func, ast.Attribute)
                and call.func.attr in index.ack_methods
            )
        )
        return targets, is_ack

    def kinds_of(qualname: str, stack: Set[str]) -> Tuple[str, ...]:
        memo = kinds_memo.get(qualname)
        if memo is not None:
            return memo
        if qualname in stack:
            return ()  # recursion: contribute nothing (under-approximate)
        stack = stack | {qualname}
        out: List[str] = []
        for item in collected[qualname].items:
            if len(out) >= _MAX_EVENTS:
                break
            if item.kind != "call":
                out.append(item.kind)
                continue
            targets, is_ack = resolve(qualname, item.call)
            if is_ack:
                out.append("ack")
            for target in targets:
                effect = index.provider_effects.get(target)
                if effect is not None:
                    out.append(effect)
                if (
                    target in project.functions
                    and not project.functions[target].is_generator
                ):
                    out.extend(kinds_of(target, stack))
        result = tuple(out[:_MAX_EVENTS])
        if qualname not in stack - {qualname}:
            kinds_memo[qualname] = result
        return result

    summaries: Dict[str, FunctionEffects] = {}
    for qualname in project.functions:
        direct: List[EffectEvent] = []
        events: List[EffectEvent] = []
        for item in collected[qualname].items:
            if len(events) >= _MAX_EVENTS:
                break
            if item.kind != "call":
                event = EffectEvent(
                    item.kind, item.line, direct=True, detail=item.detail
                )
                direct.append(event)
                events.append(event)
                continue
            targets, is_ack = resolve(qualname, item.call)
            if is_ack:
                event = EffectEvent("ack", item.line, direct=True)
                direct.append(event)
                events.append(event)
            for target in targets:
                effect = index.provider_effects.get(target)
                if effect is not None:
                    events.append(EffectEvent(effect, item.line, direct=False))
                if (
                    target in project.functions
                    and not project.functions[target].is_generator
                ):
                    for kind in kinds_of(target, {qualname}):
                        events.append(
                            EffectEvent(kind, item.line, direct=False)
                        )
        summaries[qualname] = FunctionEffects(
            direct=direct, events=events[:_MAX_EVENTS]
        )
    project._effect_summaries = summaries
    return summaries
