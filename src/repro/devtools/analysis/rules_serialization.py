"""SD: serialization-contract rules for state_dict/load_state pairs.

Every stateful component in the serving tier round-trips through a
``state_dict()`` / ``load_state()`` pair (snapshots embed them, crash
recovery replays them).  The contract has two legs the type system
cannot see, one rule each:

* **SD01** -- key symmetry.  (a) ``load_state`` strictly subscripting
  a key the paired ``state_dict`` never writes crashes on every
  snapshot the same process just wrote; (b) a written key that no
  method of the class ever reads is dead weight in every snapshot and
  usually means the load half was forgotten.
* **SD02** -- a ``"version"`` literal >= 2 in ``state_dict`` requires
  an explicit comparison against that version somewhere in the load
  path (or an ``*upgrade*`` helper) -- bumping the snapshot format
  without a registered upgrade path silently breaks recovery of every
  snapshot already on disk (the exact v1 -> v2 drift PR 6 fixed by
  hand).

Writes are collected from returned dict literals (including the
``out = {...}; out["k"] = ...; return out`` build-up idiom); reads are
string subscripts, ``.get("k")`` calls, and ``"k" in state`` tests.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.devtools.core import Finding, Rule, SourceFile, register
from repro.devtools.project import FunctionModel

__all__ = ["StateKeySymmetryRule", "VersionUpgradePathRule"]

#: The method-name pairs that form a serialization contract.
_PAIR_NAMES: Tuple[Tuple[str, str], ...] = (
    ("state_dict", "load_state"),
    ("_state_dict", "_load_state"),
)


def _dict_literal_keys(node: ast.AST) -> Optional[Dict[str, int]]:
    """String keys (with lines) of a dict literal, or None."""
    if not isinstance(node, ast.Dict):
        return None
    out: Dict[str, int] = {}
    for key in node.keys:
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            out.setdefault(key.value, key.lineno)
    return out


def _written_keys(fn: FunctionModel) -> Dict[str, int]:
    """Keys ``state_dict`` writes: returned dict literals, plus
    subscript assignments onto a returned local name."""
    writes: Dict[str, int] = {}
    returned_names: Set[str] = set()
    for node in ast.walk(fn.node):
        if isinstance(node, ast.Return) and node.value is not None:
            keys = _dict_literal_keys(node.value)
            if keys is not None:
                for key, line in keys.items():
                    writes.setdefault(key, line)
            elif isinstance(node.value, ast.Name):
                returned_names.add(node.value.id)
    if returned_names:
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if (
                    isinstance(target, ast.Name)
                    and target.id in returned_names
                ):
                    keys = _dict_literal_keys(node.value)
                    if keys is not None:
                        for key, line in keys.items():
                            writes.setdefault(key, line)
                elif (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)
                    and target.value.id in returned_names
                    and isinstance(target.slice, ast.Constant)
                    and isinstance(target.slice.value, str)
                ):
                    writes.setdefault(target.slice.value, node.lineno)
    return writes


def _state_param(fn: FunctionModel) -> Optional[str]:
    """The state-mapping parameter of a load function."""
    args = fn.node.args
    names = [arg.arg for arg in list(args.posonlyargs) + list(args.args)]
    if names and names[0] in ("self", "cls"):
        names = names[1:]
    return names[0] if names else None


def _strict_reads(fn: FunctionModel, param: str) -> List[Tuple[str, int]]:
    """``param["key"]`` subscript *reads* (assignment targets excluded)."""
    stores: Set[int] = set()
    for node in ast.walk(fn.node):
        targets: List[ast.AST] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = list(node.targets)
        for target in targets:
            stores.update(id(sub) for sub in ast.walk(target))
    out: List[Tuple[str, int]] = []
    for node in ast.walk(fn.node):
        if (
            isinstance(node, ast.Subscript)
            and id(node) not in stores
            and isinstance(node.value, ast.Name)
            and node.value.id == param
            and isinstance(node.slice, ast.Constant)
            and isinstance(node.slice.value, str)
        ):
            out.append((node.slice.value, node.lineno))
    return out


def _read_keys_anywhere(methods: List[FunctionModel]) -> Set[str]:
    """Every string key any method reads: subscripts, ``.get``, ``in``."""
    keys: Set[str] = set()
    for fn in methods:
        for node in ast.walk(fn.node):
            if (
                isinstance(node, ast.Subscript)
                and isinstance(node.slice, ast.Constant)
                and isinstance(node.slice.value, str)
            ):
                keys.add(node.slice.value)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "get"
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                keys.add(node.args[0].value)
            elif isinstance(node, ast.Compare) and any(
                isinstance(op, (ast.In, ast.NotIn)) for op in node.ops
            ):
                if isinstance(node.left, ast.Constant) and isinstance(
                    node.left.value, str
                ):
                    keys.add(node.left.value)
    return keys


def _class_pairs(project, relpaths: Set[str]):
    """(class name, dump fn, load fn) triples for classes in relpaths."""
    for class_name, model in sorted(project.classes.items()):
        if model.file.relpath not in relpaths:
            continue
        for dump_name, load_name in _PAIR_NAMES:
            dump = project.functions.get(f"{class_name}.{dump_name}")
            load = project.functions.get(f"{class_name}.{load_name}")
            if dump is None or load is None:
                continue
            yield class_name, dump, load


def _class_methods(project, class_name: str) -> List[FunctionModel]:
    prefix = f"{class_name}."
    return [
        fn
        for qualname, fn in project.functions.items()
        if qualname.startswith(prefix)
    ]


@register
class StateKeySymmetryRule(Rule):
    id = "SD01"
    name = "state-dict-key-symmetry"
    rationale = (
        "A load_state that strictly reads a key its state_dict never "
        "writes crashes on every snapshot this process wrote; a "
        "written key nothing reads means the load half was forgotten."
    )
    scope = "cone"

    def run(self, project, files: List[SourceFile]) -> Iterator[Finding]:
        emit = {file.relpath for file in files}
        by_relpath = {file.relpath: file for file in files}
        for class_name, dump, load in _class_pairs(project, emit):
            file = by_relpath[dump.file.relpath]
            writes = _written_keys(dump)
            param = _state_param(load)
            if writes and param:
                for key, line in _strict_reads(load, param):
                    if key not in writes:
                        yield self.finding(
                            file,
                            line,
                            f"{class_name}.{load.node.name} strictly "
                            f"reads key '{key}' that "
                            f"{class_name}.{dump.node.name} never "
                            "writes -- loading a fresh snapshot raises "
                            "KeyError",
                        )
            read_anywhere = _read_keys_anywhere(
                _class_methods(project, class_name)
            )
            for key, line in sorted(writes.items(), key=lambda kv: kv[1]):
                if key not in read_anywhere:
                    yield self.finding(
                        file,
                        line,
                        f"{class_name}.{dump.node.name} writes key "
                        f"'{key}' that no method of {class_name} ever "
                        "reads -- dead snapshot weight, or a forgotten "
                        "load path",
                    )


@register
class VersionUpgradePathRule(Rule):
    id = "SD02"
    name = "version-bump-upgrade-path"
    rationale = (
        "Bumping the snapshot 'version' literal without a load-side "
        "comparison against the new version silently breaks recovery "
        "of every snapshot already on disk."
    )
    scope = "cone"

    def run(self, project, files: List[SourceFile]) -> Iterator[Finding]:
        emit = {file.relpath for file in files}
        by_relpath = {file.relpath: file for file in files}
        for class_name, dump, load in _class_pairs(project, emit):
            writes = _written_keys(dump)
            if "version" not in writes:
                continue
            version = self._version_literal(dump)
            if version is None or version < 2:
                continue
            checkers = [load] + [
                fn
                for fn in _class_methods(project, class_name)
                if "upgrade" in fn.node.name.lower()
            ]
            if any(self._compares_against(fn, version) for fn in checkers):
                continue
            file = by_relpath[dump.file.relpath]
            yield self.finding(
                file,
                writes["version"],
                f"{class_name}.{dump.node.name} writes snapshot "
                f"version {version} but neither "
                f"{class_name}.{load.node.name} nor any *upgrade* "
                f"method compares against {version} -- older snapshots "
                "on disk cannot be migrated",
            )

    @staticmethod
    def _version_literal(dump: FunctionModel) -> Optional[int]:
        for node in ast.walk(dump.node):
            if not isinstance(node, ast.Dict):
                continue
            for key, value in zip(node.keys, node.values):
                if (
                    isinstance(key, ast.Constant)
                    and key.value == "version"
                    and isinstance(value, ast.Constant)
                    and isinstance(value.value, int)
                    and not isinstance(value.value, bool)
                ):
                    return value.value
        return None

    @staticmethod
    def _compares_against(fn: FunctionModel, version: int) -> bool:
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left] + list(node.comparators)
            for operand in operands:
                if (
                    isinstance(operand, ast.Constant)
                    and isinstance(operand.value, int)
                    and not isinstance(operand.value, bool)
                    and operand.value == version
                ):
                    return True
        return False

