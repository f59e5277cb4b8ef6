"""Whole-program model backing the concurrency rules.

The concurrency family needs more than one AST at a time: *which class
does this receiver belong to*, *which lock does ``engine._lock`` denote*,
and *what does this method acquire, transitively*.  This module builds
that model with deliberately lightweight inference:

* **Class index** -- every top-level class, its base classes (resolved
  by name within the linted files), the locks it creates
  (``self._lock = threading.Lock()``), its ``_GUARDED_BY``
  declaration, and the types of its attributes (from ``self.x =
  ClassName(...)`` assignments and ``self.x: ClassName`` annotations,
  unwrapping ``Optional``/unions/string annotations).
* **Local types** -- parameter annotations, assignments from known
  constructors or annotated-return calls, ``cls(...)`` in
  classmethods, and ``for x in self.list_of_T`` element types.
* **Per-function events** -- lock acquisitions (``with recv.attr:``
  where the attribute is a known lock), lock-order edges from lexical
  nesting, call sites with the lock set held at that point, writes to
  attributes, and calls to known-blocking seeds
  (``time.sleep``/``os.fsync``/...).
* **Closures** -- the locks a function acquires transitively through
  project-resolvable calls, and whether it transitively reaches
  blocking I/O.  Generator/contextmanager functions are excluded from
  propagation (their body runs detached from the call site).

Known limitations (documented in ``docs/LINT.md``): property accessors
are invisible (attribute reads never resolve to method bodies), locals
aliasing a guarded attribute escape the guard check, and calls through
unresolvable receivers are skipped rather than guessed.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.devtools.core import SourceFile

__all__ = ["ProjectModel", "ClassModel", "FunctionModel", "LockNode", "build_project"]

# A lock's identity: (defining class, attribute name, lock kind).  Two
# instances of one class share a node -- inconsistent ordering between
# instances of the same lock class is exactly the deadlock pattern.
LockNode = Tuple[str, str, str]

_LOCK_CONSTRUCTORS = {
    "threading.Lock": "Lock",
    "threading.RLock": "RLock",
    "threading.Condition": "Condition",
    "Lock": "Lock",
    "RLock": "RLock",
    "Condition": "Condition",
}

_BLOCKING_SEED_RE = re.compile(
    r"^(time\.sleep"
    r"|os\.fsync|os\.fdatasync"
    r"|select\.select"
    r"|subprocess\.(run|call|check_call|check_output|Popen)"
    r"|socket\.(socket|create_connection)"
    r"|requests\.\w+"
    r"|urllib\.request\.\w+)$"
)

# Docstring idioms this codebase already uses to state "my caller
# synchronizes for me"; such functions are exempt from lexical checks.
_ASSUME_LOCKED_RE = re.compile(r"lock held|single-threaded", re.IGNORECASE)


@dataclass
class ClassModel:
    """Everything the analyzer knows about one class."""

    name: str
    file: SourceFile
    node: ast.ClassDef
    bases: List[str] = field(default_factory=list)
    attr_types: Dict[str, str] = field(default_factory=dict)
    elem_types: Dict[str, str] = field(default_factory=dict)
    lock_attrs: Dict[str, str] = field(default_factory=dict)
    guarded_by: Dict[str, str] = field(default_factory=dict)


@dataclass
class HeldLock:
    """One lock held at a program point: identity plus receiver text."""

    node: LockNode
    receiver: str


@dataclass
class CallEvent:
    held: Tuple[HeldLock, ...]
    callee: Optional[str]
    func_src: str
    line: int


@dataclass
class SeedEvent:
    held: Tuple[HeldLock, ...]
    seed: str
    line: int


@dataclass
class WriteEvent:
    held: Tuple[HeldLock, ...]
    receiver: str
    receiver_type: Optional[str]
    attr: str
    line: int


@dataclass
class GuardCallEvent:
    """A method call routed through a possibly-guarded attribute."""

    held: Tuple[HeldLock, ...]
    receiver: str
    receiver_type: str
    attr: str
    method: str
    line: int


@dataclass
class EdgeEvent:
    src: LockNode
    dst: LockNode
    line: int
    via: str


@dataclass
class FunctionModel:
    """One function/method plus its extracted concurrency events."""

    qualname: str
    class_name: Optional[str]
    node: ast.FunctionDef
    file: SourceFile
    is_generator: bool = False
    assume_locked: bool = False
    return_type: Optional[str] = None
    acquired: Set[LockNode] = field(default_factory=set)
    edges: List[EdgeEvent] = field(default_factory=list)
    calls: List[CallEvent] = field(default_factory=list)
    seeds: List[SeedEvent] = field(default_factory=list)
    writes: List[WriteEvent] = field(default_factory=list)
    guard_calls: List[GuardCallEvent] = field(default_factory=list)
    direct_seed: Optional[str] = None


def _annotation_to_type(node: Optional[ast.AST]) -> Optional[str]:
    """Best-effort class name from an annotation node."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Subscript):
        base = _annotation_to_type(node.value)
        if base in ("Optional", "Union"):
            inner = node.slice
            parts = inner.elts if isinstance(inner, ast.Tuple) else [inner]
            for part in parts:
                resolved = _annotation_to_type(part)
                if resolved not in (None, "None"):
                    return resolved
        return None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        for side in (node.left, node.right):
            resolved = _annotation_to_type(side)
            if resolved not in (None, "None"):
                return resolved
    return None


def _call_class_name(node: ast.AST) -> Optional[str]:
    """``ClassName(...)`` -> ``ClassName`` (or None)."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id
    return None


class ProjectModel:
    """Class index, function table, and resolution helpers."""

    def __init__(
        self, files: Sequence[SourceFile], root: Optional[Path] = None
    ) -> None:
        self.files = list(files)
        self.root = root if root is not None else Path.cwd()
        self.classes: Dict[str, ClassModel] = {}
        self._ambiguous: Set[str] = set()
        self.functions: Dict[str, FunctionModel] = {}
        self._acquires_closure: Dict[str, Set[LockNode]] = {}
        self._blocking_closure: Dict[str, Optional[str]] = {}
        self._build()

    # -- construction -----------------------------------------------------

    def _build(self) -> None:
        for file in self.files:
            for node in file.tree.body:
                if isinstance(node, ast.ClassDef):
                    self._index_class(node, file)
        for file in self.files:
            for node in file.tree.body:
                if isinstance(node, ast.ClassDef):
                    model = self.classes.get(node.name)
                    if model is not None and model.node is node:
                        for item in node.body:
                            if isinstance(item, ast.FunctionDef):
                                self._index_function(item, file, node.name)
                elif isinstance(node, ast.FunctionDef):
                    self._index_function(node, file, None)
        for fn in self.functions.values():
            _FunctionAnalyzer(self, fn).analyze()
        self._close_acquires()
        self._close_blocking()

    def _index_class(self, node: ast.ClassDef, file: SourceFile) -> None:
        if node.name in self.classes or node.name in self._ambiguous:
            self._ambiguous.add(node.name)
            self.classes.pop(node.name, None)
            return
        model = ClassModel(name=node.name, file=file, node=node)
        model.bases = [b.id for b in node.bases if isinstance(b, ast.Name)]
        for item in node.body:
            if isinstance(item, ast.Assign):
                for target in item.targets:
                    if isinstance(target, ast.Name) and target.id == "_GUARDED_BY":
                        model.guarded_by.update(self._literal_str_dict(item.value))
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                # Class-level annotations (``server: SomeServer``) type
                # the attribute the same way a method-body AnnAssign does.
                annotated = _annotation_to_type(item.annotation)
                if annotated:
                    model.attr_types.setdefault(item.target.id, annotated)
            if isinstance(item, ast.FunctionDef):
                self._collect_attrs(item, model)
        self.classes[node.name] = model

    @staticmethod
    def _literal_str_dict(node: ast.AST) -> Dict[str, str]:
        out: Dict[str, str] = {}
        if isinstance(node, ast.Dict):
            for key, value in zip(node.keys, node.values):
                if (
                    isinstance(key, ast.Constant)
                    and isinstance(key.value, str)
                    and isinstance(value, ast.Constant)
                    and isinstance(value.value, str)
                ):
                    out[key.value] = value.value
        return out

    def _collect_attrs(self, method: ast.FunctionDef, model: ClassModel) -> None:
        params: Dict[str, Optional[str]] = {
            arg.arg: _annotation_to_type(arg.annotation) for arg in method.args.args
        }

        def value_type(value: ast.AST) -> Optional[str]:
            name = _call_class_name(value)
            if name in _LOCK_CONSTRUCTORS:
                return None
            if name:
                return name
            if isinstance(value, ast.Name):
                return params.get(value.id)
            if isinstance(value, ast.IfExp):
                return value_type(value.body) or value_type(value.orelse)
            return None

        for stmt in ast.walk(method):
            target: Optional[ast.AST] = None
            value: Optional[ast.AST] = None
            annotation: Optional[ast.AST] = None
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target, value = stmt.targets[0], stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                target, value, annotation = stmt.target, stmt.value, stmt.annotation
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                continue
            attr = target.attr
            if annotation is not None:
                annotated = _annotation_to_type(annotation)
                if annotated:
                    model.attr_types.setdefault(attr, annotated)
            if value is None:
                continue
            lock_name = None
            if isinstance(value, ast.Call):
                lock_name = _LOCK_CONSTRUCTORS.get(ast.unparse(value.func))
            if lock_name:
                model.lock_attrs.setdefault(attr, lock_name)
                continue
            inferred = value_type(value)
            if inferred:
                model.attr_types.setdefault(attr, inferred)
            elem: Optional[str] = None
            if isinstance(value, ast.ListComp):
                elem = _call_class_name(value.elt)
            elif isinstance(value, ast.List) and value.elts:
                elem = _call_class_name(value.elts[0])
            if elem:
                model.elem_types.setdefault(attr, elem)

    def _index_function(
        self, node: ast.FunctionDef, file: SourceFile, class_name: Optional[str]
    ) -> None:
        if class_name is not None:
            qualname = f"{class_name}.{node.name}"
        else:
            qualname = f"{file.relpath}::{node.name}"
        doc = ast.get_docstring(node) or ""
        fn = FunctionModel(
            qualname=qualname,
            class_name=class_name,
            node=node,
            file=file,
            is_generator=self._is_generator(node),
            assume_locked=(
                node.name.endswith("_locked") or bool(_ASSUME_LOCKED_RE.search(doc))
            ),
            return_type=_annotation_to_type(node.returns),
        )
        self.functions[qualname] = fn

    @staticmethod
    def _is_generator(node: ast.FunctionDef) -> bool:
        for child in ast.walk(node):
            if isinstance(child, (ast.Yield, ast.YieldFrom)):
                return True
        return False

    # -- class lookups ----------------------------------------------------

    def mro(self, class_name: str) -> List[ClassModel]:
        """The class plus project-resolvable bases, nearest first."""
        out: List[ClassModel] = []
        seen: Set[str] = set()
        queue = [class_name]
        while queue:
            name = queue.pop(0)
            if name in seen:
                continue
            seen.add(name)
            model = self.classes.get(name)
            if model is None:
                continue
            out.append(model)
            queue.extend(model.bases)
        return out

    def attr_type(self, class_name: str, attr: str) -> Optional[str]:
        for model in self.mro(class_name):
            if attr in model.attr_types:
                return model.attr_types[attr]
        return None

    def elem_type(self, class_name: str, attr: str) -> Optional[str]:
        for model in self.mro(class_name):
            if attr in model.elem_types:
                return model.elem_types[attr]
        return None

    def lock_node(self, class_name: str, attr: str) -> Optional[LockNode]:
        for model in self.mro(class_name):
            if attr in model.lock_attrs:
                return (model.name, attr, model.lock_attrs[attr])
        return None

    def guard_for(self, class_name: str, attr: str) -> Optional[str]:
        for model in self.mro(class_name):
            if attr in model.guarded_by:
                return model.guarded_by[attr]
        return None

    def method(self, class_name: str, name: str) -> Optional[FunctionModel]:
        for model in self.mro(class_name):
            fn = self.functions.get(f"{model.name}.{name}")
            if fn is not None:
                return fn
        return None

    def function_typer(self, fn: FunctionModel):
        """A callable mapping expression nodes inside ``fn`` to class
        names, using the same local-type inference as the concurrency
        analysis (parameter annotations, constructor assignments,
        attribute types).  Returns None for untypable expressions."""
        analyzer = _FunctionAnalyzer(self, fn)
        return analyzer._expr_type

    # -- closures ---------------------------------------------------------

    def _close_acquires(self) -> None:
        closure = {
            qn: set(fn.acquired) for qn, fn in self.functions.items()
        }
        changed = True
        while changed:
            changed = False
            for qn, fn in self.functions.items():
                for call in fn.calls:
                    callee = call.callee
                    if callee is None or callee not in closure:
                        continue
                    if self.functions[callee].is_generator:
                        continue
                    extra = closure[callee] - closure[qn]
                    if extra:
                        closure[qn] |= extra
                        changed = True
        self._acquires_closure = closure

    def _close_blocking(self) -> None:
        reason: Dict[str, Optional[str]] = {
            qn: (fn.direct_seed if fn.direct_seed else None)
            for qn, fn in self.functions.items()
        }
        changed = True
        while changed:
            changed = False
            for qn, fn in self.functions.items():
                if reason[qn] is not None:
                    continue
                for call in fn.calls:
                    callee = call.callee
                    if callee is None or reason.get(callee) is None:
                        continue
                    if self.functions[callee].is_generator:
                        continue
                    reason[qn] = f"{callee} -> {reason[callee]}"
                    changed = True
                    break
        self._blocking_closure = reason

    def acquires(self, qualname: str) -> Set[LockNode]:
        """Locks a function acquires, transitively through known calls."""
        return self._acquires_closure.get(qualname, set())

    def blocking_reason(self, qualname: str) -> Optional[str]:
        """Why a function is considered blocking (call chain to a seed)."""
        return self._blocking_closure.get(qualname)


class _FunctionAnalyzer(ast.NodeVisitor):
    """Extracts one function's concurrency events with a lexical held-set."""

    def __init__(self, project: ProjectModel, fn: FunctionModel) -> None:
        self.project = project
        self.fn = fn
        self.held: List[HeldLock] = []
        # _build_env resolves annotated-return calls via _expr_type,
        # which falls back to self.env -- seed it before building.
        self.env: Dict[str, str] = {}
        self.env = self._build_env()

    # -- local type environment -------------------------------------------

    def _build_env(self) -> Dict[str, str]:
        env: Dict[str, str] = {}
        fn = self.fn
        args = fn.node.args
        for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
            annotated = _annotation_to_type(arg.annotation)
            if annotated:
                env[arg.arg] = annotated
        for stmt in ast.walk(fn.node):
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
                if isinstance(target, ast.Name):
                    inferred = self._expr_type(stmt.value, env)
                    if inferred:
                        env[target.id] = inferred
            elif isinstance(stmt, ast.For) and isinstance(stmt.target, ast.Name):
                elem = self._iter_elem_type(stmt.iter, env)
                if elem:
                    env[stmt.target.id] = elem
        return env

    def _iter_elem_type(self, node: ast.AST, env: Dict[str, str]) -> Optional[str]:
        if isinstance(node, ast.Attribute):
            base = self._expr_type(node.value, env)
            if base:
                return self.project.elem_type(base, node.attr)
        if isinstance(node, ast.Name):
            # No local list element tracking; only attributes carry it.
            return None
        return None

    def _expr_type(self, node: ast.AST, env: Optional[Dict[str, str]] = None) -> Optional[str]:
        env = self.env if env is None else env
        if isinstance(node, ast.Name):
            if node.id == "self" and self.fn.class_name:
                return self.fn.class_name
            if node.id == "cls" and self.fn.class_name:
                return self.fn.class_name
            return env.get(node.id)
        if isinstance(node, ast.Attribute):
            base = self._expr_type(node.value, env)
            if base:
                return self.project.attr_type(base, node.attr)
            return None
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name):
                if node.func.id == "cls" and self.fn.class_name:
                    return self.fn.class_name
                if node.func.id in self.project.classes:
                    return node.func.id
            callee = self._resolve_call(node.func)
            if callee is not None:
                return self.project.functions[callee].return_type
            return None
        if isinstance(node, ast.IfExp):
            return self._expr_type(node.body, env) or self._expr_type(node.orelse, env)
        return None

    # -- resolution --------------------------------------------------------

    def _resolve_call(self, func: ast.AST) -> Optional[str]:
        if isinstance(func, ast.Name):
            qualname = f"{self.fn.file.relpath}::{func.id}"
            if qualname in self.project.functions:
                return qualname
            return None
        if isinstance(func, ast.Attribute):
            base = self._expr_type(func.value)
            if base:
                method = self.project.method(base, func.attr)
                if method is not None:
                    return method.qualname
        return None

    def _resolve_lock(self, expr: ast.AST) -> Optional[HeldLock]:
        if isinstance(expr, ast.Attribute):
            base = self._expr_type(expr.value)
            if base:
                node = self.project.lock_node(base, expr.attr)
                if node is not None:
                    return HeldLock(node=node, receiver=ast.unparse(expr.value))
        return None

    # -- event collection ---------------------------------------------------

    def analyze(self) -> None:
        for stmt in self.fn.node.body:
            self.visit(stmt)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass  # Nested defs run later, with their own (unknown) lock state.

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass

    def visit_With(self, node: ast.With) -> None:
        acquired = 0
        for item in node.items:
            lock = self._resolve_lock(item.context_expr)
            if lock is not None:
                self.fn.acquired.add(lock.node)
                for held in self.held:
                    self.fn.edges.append(
                        EdgeEvent(
                            src=held.node,
                            dst=lock.node,
                            line=item.context_expr.lineno,
                            via=self.fn.qualname,
                        )
                    )
                self.held.append(lock)
                acquired += 1
            else:
                self.visit(item.context_expr)
        for stmt in node.body:
            self.visit(stmt)
        for _ in range(acquired):
            self.held.pop()

    def visit_Call(self, node: ast.Call) -> None:
        func_src = ast.unparse(node.func)
        held = tuple(self.held)
        if _BLOCKING_SEED_RE.match(func_src) or (
            isinstance(node.func, ast.Name) and node.func.id == "open"
        ):
            self.fn.seeds.append(SeedEvent(held=held, seed=func_src, line=node.lineno))
            if self.fn.direct_seed is None:
                self.fn.direct_seed = func_src
        # Explicit .acquire() on a known lock attribute (scope-free).
        if isinstance(node.func, ast.Attribute) and node.func.attr == "acquire":
            lock = self._resolve_lock(node.func.value)
            if lock is not None:
                self.fn.acquired.add(lock.node)
                for heldlock in self.held:
                    self.fn.edges.append(
                        EdgeEvent(
                            src=heldlock.node,
                            dst=lock.node,
                            line=node.lineno,
                            via=self.fn.qualname,
                        )
                    )
        callee = self._resolve_call(node.func)
        self.fn.calls.append(
            CallEvent(held=held, callee=callee, func_src=func_src, line=node.lineno)
        )
        self._record_guard_chain(node)
        for child in list(node.args) + [kw.value for kw in node.keywords]:
            self.visit(child)
        if isinstance(node.func, ast.Attribute):
            self.visit(node.func.value)

    def _record_guard_chain(self, node: ast.Call) -> None:
        """Flag method calls routed through declared-guarded attributes."""
        if not isinstance(node.func, ast.Attribute):
            return
        method = node.func.attr
        # Walk each attribute link in the receiver chain.
        chain: List[ast.Attribute] = []
        probe: ast.AST = node.func
        while isinstance(probe, ast.Attribute):
            chain.append(probe)
            probe = probe.value
        # chain[-1] is the innermost attribute access; examine every
        # link except the method access itself.
        for attr_node in chain[1:]:
            base = self._expr_type(attr_node.value)
            if base is None:
                continue
            if self.project.guard_for(base, attr_node.attr) is not None:
                self.fn.guard_calls.append(
                    GuardCallEvent(
                        held=tuple(self.held),
                        receiver=ast.unparse(attr_node.value),
                        receiver_type=base,
                        attr=attr_node.attr,
                        method=method,
                        line=node.lineno,
                    )
                )

    def _record_write(self, target: ast.AST, line: int) -> None:
        if isinstance(target, ast.Tuple):
            for element in target.elts:
                self._record_write(element, line)
            return
        if isinstance(target, (ast.Subscript,)):
            target = target.value
        if isinstance(target, ast.Attribute):
            self.fn.writes.append(
                WriteEvent(
                    held=tuple(self.held),
                    receiver=ast.unparse(target.value),
                    receiver_type=self._expr_type(target.value),
                    attr=target.attr,
                    line=line,
                )
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._record_write(target, node.lineno)
        self.visit(node.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record_write(node.target, node.lineno)
        self.visit(node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._record_write(node.target, node.lineno)
            self.visit(node.value)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._record_write(target, node.lineno)


def build_project(
    files: Sequence[SourceFile], root: Optional[Path] = None
) -> ProjectModel:
    """Build the whole-program model for one lint run."""
    return ProjectModel(files, root=root)
