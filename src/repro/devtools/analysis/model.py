"""Project-wide symbol table, import resolution, and call resolution.

Built on top of the per-file parse layer (:class:`SourceFile`) and the
class/function index (:class:`ProjectModel`), this module adds what the
interprocedural rule families need:

* a **module table** -- dotted module name per file, the names each
  file imports (relative imports resolved), and the per-file reference
  index (names read, attributes accessed, words in string constants)
  that the dead-export rules consume;
* **import resolution** restricted to project-internal modules
  (``from pkg import mod`` binds ``mod`` as a module alias);
* **cross-module call resolution** extending the per-file resolver:
  ``from pkg.mod import helper; helper()`` resolves to
  ``pkg/mod.py::helper``, ``SomeClass.method(...)`` through an imported
  class resolves to the method, and constructor calls resolve to
  ``__init__`` (plus ``__post_init__`` for dataclasses) so effect
  summaries see what a constructor does.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.devtools.core import SourceFile
from repro.devtools.project import CallEvent, FunctionModel, ProjectModel

__all__ = [
    "AnalysisModel",
    "ModuleInfo",
    "get_analysis",
    "module_name_for",
]

_WORD_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def module_name_for(relpath: str) -> str:
    """Dotted module name for a project-relative path.

    ``src/repro/trust/records.py -> repro.trust.records``; a leading
    ``src`` component is dropped, ``__init__`` maps to its package.
    """
    parts = list(Path(relpath).parts)
    if parts and parts[0] == "src":
        parts = parts[1:]
    if not parts:
        return ""
    parts[-1] = Path(parts[-1]).stem
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


@dataclass
class Definition:
    """A top-level ``def`` or ``class`` in one module."""

    name: str
    line: int
    kind: str  # "function" | "class"
    decorated: bool


@dataclass
class ModuleInfo:
    """Everything module-level the analysis knows about one file."""

    file: SourceFile
    module: str
    #: local name -> (source module, original name) for ``from m import x``.
    imported_names: Dict[str, Tuple[str, str]] = field(default_factory=dict)
    #: local alias -> module name for ``import m [as a]`` (and submodule
    #: imports via ``from pkg import mod``).
    module_aliases: Dict[str, str] = field(default_factory=dict)
    #: names imported under a different local alias -- the original name
    #: counts as referenced even though it never appears as a Name.
    aliased_origs: Set[str] = field(default_factory=set)
    all_names: List[Tuple[str, int]] = field(default_factory=list)
    definitions: List[Definition] = field(default_factory=list)
    #: every Name id and Attribute attr read anywhere in the module.
    name_refs: Set[str] = field(default_factory=set)
    #: identifier words inside string constants outside ``__all__``.
    string_words: Set[str] = field(default_factory=set)

    @property
    def exported(self) -> Set[str]:
        return {name for name, _ in self.all_names}


def _collect_module_info(file: SourceFile) -> ModuleInfo:
    module = module_name_for(file.relpath)
    info = ModuleInfo(file=file, module=module)
    all_string_ids: Set[int] = set()

    for node in file.tree.body:
        if isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            if "__all__" in targets and isinstance(node.value, (ast.List, ast.Tuple)):
                for element in node.value.elts:
                    if isinstance(element, ast.Constant) and isinstance(
                        element.value, str
                    ):
                        info.all_names.append((element.value, element.lineno))
                        all_string_ids.add(id(element))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            info.definitions.append(
                Definition(
                    name=node.name,
                    line=node.lineno,
                    kind="class" if isinstance(node, ast.ClassDef) else "function",
                    decorated=bool(node.decorator_list),
                )
            )

    for node in ast.walk(file.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                info.module_aliases[local] = alias.name if alias.asname else alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base_parts = module.split(".") if module else []
                # level 1 = the containing package; __init__ modules
                # already map to their package via module_name_for.
                if file.relpath.endswith("__init__.py"):
                    base_parts = base_parts[: len(base_parts) - (node.level - 1)]
                else:
                    base_parts = base_parts[: len(base_parts) - node.level]
                base = ".".join(base_parts)
                source = f"{base}.{node.module}" if node.module else base
            else:
                source = node.module or ""
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                info.imported_names[local] = (source, alias.name)
                if alias.asname and alias.asname != alias.name:
                    info.aliased_origs.add(alias.name)
        elif isinstance(node, ast.Name):
            info.name_refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            info.name_refs.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) not in all_string_ids:
                info.string_words.update(_WORD_RE.findall(node.value))
    return info


class AnalysisModel:
    """The whole-program view shared by the DX and DP rules."""

    def __init__(
        self,
        files: Sequence[SourceFile],
        root: Path,
        project: ProjectModel,
    ) -> None:
        self.root = root
        self.project = project
        self.modules: Dict[str, ModuleInfo] = {}
        self.by_module_name: Dict[str, str] = {}
        for file in files:
            info = _collect_module_info(file)
            self.modules[file.relpath] = info
            if info.module:
                self.by_module_name[info.module] = file.relpath
        for relpath, info in self.modules.items():
            # ``from pkg import mod`` binds pkg/mod.py as a module alias.
            for source, orig in info.imported_names.values():
                target = self.module_file(f"{source}.{orig}")
                if target is not None and target != relpath:
                    info.module_aliases.setdefault(orig, f"{source}.{orig}")

    # -- imports ----------------------------------------------------------

    def module_file(self, module: str) -> Optional[str]:
        """Project file providing a module, or None for external ones."""
        return self.by_module_name.get(module)

    # -- contract / call resolution ---------------------------------------

    def resolve_dotted(self, dotted: str) -> Optional[str]:
        """Map a contract's dotted name to a project function qualname."""
        parts = dotted.split(".")
        for split in range(len(parts) - 1, 0, -1):
            module = ".".join(parts[:split])
            relpath = self.module_file(module)
            if relpath is None:
                continue
            rest = parts[split:]
            if len(rest) == 1:
                qualname = f"{relpath}::{rest[0]}"
                if qualname in self.project.functions:
                    return qualname
            elif len(rest) == 2:
                qualname = f"{rest[0]}.{rest[1]}"
                fn = self.project.functions.get(qualname)
                if fn is not None and fn.file.relpath == relpath:
                    return qualname
            return None
        return None

    def resolve_call_targets(
        self, fn: FunctionModel, call: CallEvent
    ) -> List[str]:
        """Every project function a call site may enter.

        Extends the per-file resolver with imports and constructors;
        an empty list means "unresolvable" (the call contributes no
        effects -- documented in docs/LINT.md).
        """
        if call.callee is not None:
            return [call.callee]
        info = self.modules.get(fn.file.relpath)
        if info is None:
            return []
        parts = call.func_src.split(".")
        if len(parts) == 1:
            name = parts[0]
            local = f"{fn.file.relpath}::{name}"
            if local in self.project.functions:
                return [local]
            imported = info.imported_names.get(name)
            if imported is not None:
                source, orig = imported
                target = self.module_file(source)
                if target is not None:
                    qualname = f"{target}::{orig}"
                    if qualname in self.project.functions:
                        return [qualname]
                if orig in self.project.classes:
                    return self._constructor_targets(orig)
            if name in self.project.classes:
                return self._constructor_targets(name)
            return []
        if len(parts) == 2:
            prefix, attr = parts
            alias = info.module_aliases.get(prefix)
            if alias is not None:
                target = self.module_file(alias)
                if target is not None:
                    qualname = f"{target}::{attr}"
                    if qualname in self.project.functions:
                        return [qualname]
                return []
            class_name = prefix
            imported = info.imported_names.get(prefix)
            if imported is not None and imported[1] in self.project.classes:
                class_name = imported[1]
            if class_name in self.project.classes:
                method = self.project.method(class_name, attr)
                if method is not None:
                    return [method.qualname]
        return []

    def _constructor_targets(self, class_name: str) -> List[str]:
        out: List[str] = []
        for method_name in ("__init__", "__post_init__"):
            method = self.project.method(class_name, method_name)
            if method is not None:
                out.append(method.qualname)
        return out


def get_analysis(project: ProjectModel, files: Sequence[SourceFile]) -> AnalysisModel:
    """The run's :class:`AnalysisModel`, built once and memoized."""
    cached = getattr(project, "_analysis_model", None)
    if cached is None:
        cached = AnalysisModel(files, project.root, project)
        project._analysis_model = cached
    return cached
