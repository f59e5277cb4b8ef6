"""Linter framework: findings, parsed sources, suppressions, registry.

The pieces every rule shares:

* :class:`SourceFile` -- one parsed module.  The runner parses each
  file once per run, so the many rules of one run share a single AST
  per file.
* Inline suppressions -- a ``# repro: lint-disable[CC02]`` comment
  suppresses the listed rules on its own line; when the comment stands
  alone it suppresses the *next* code line; on a ``def``/``class``
  line it suppresses the whole body.
* :class:`Rule` -- the unit of analysis.  A rule sees the whole
  project (every parsed file plus the :class:`~repro.devtools.project.
  ProjectModel`) and yields :class:`Finding` objects, so whole-program
  rules (lock graphs, dead exports) and per-file rules use one interface.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Set, Type

__all__ = [
    "Finding",
    "Rule",
    "SourceFile",
    "all_rules",
    "register",
]

_SUPPRESS_RE = re.compile(r"#\s*repro:\s*lint-disable\[([A-Za-z0-9_,\s]+)\]")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    Attributes:
        rule: rule identifier (e.g. ``CC01``).
        path: project-root-relative POSIX path of the offending file.
        line: 1-based line number.
        message: human-readable description of the violation.
        line_text: the stripped source line (the baseline match key).
        suppressed: an inline ``lint-disable`` comment covers it.
        baselined: a committed baseline entry covers it.
    """

    rule: str
    path: str
    line: int
    message: str
    line_text: str = ""
    suppressed: bool = False
    baselined: bool = False

    @property
    def active(self) -> bool:
        """True when the finding should fail the run."""
        return not (self.suppressed or self.baselined)

    def location(self) -> str:
        return f"{self.path}:{self.line}"


class SourceFile:
    """A parsed module plus the lint metadata derived from its text.

    Attributes:
        path: absolute path on disk.
        relpath: POSIX path relative to the project root.
        text: raw source.
        lines: ``text.splitlines()``.
        tree: the parsed ``ast.Module``.
        suppressions: line number -> set of rule ids disabled there.
    """

    def __init__(self, path: Path, relpath: str, text: str, tree: ast.Module) -> None:
        self.path = path
        self.relpath = relpath
        self.text = text
        self.lines = text.splitlines()
        self.tree = tree
        self.suppressions = self._collect_suppressions()

    def _collect_suppressions(self) -> Dict[int, Set[str]]:
        table: Dict[int, Set[str]] = {}
        pending: Set[str] = set()
        for lineno, line in enumerate(self.lines, start=1):
            match = _SUPPRESS_RE.search(line)
            ids = set(pending)
            pending = set()
            if match:
                listed = {part.strip() for part in match.group(1).split(",")}
                listed.discard("")
                code = line[: match.start()].strip()
                if code:
                    ids |= listed
                else:
                    # Standalone comment: applies to the next code line.
                    pending = listed
            if ids:
                table[lineno] = table.get(lineno, set()) | ids
        # A suppression on a `def`/`class` line covers the whole body.
        for node in ast.walk(self.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                ids = table.get(node.lineno)
                if ids:
                    for covered in range(node.lineno, (node.end_lineno or node.lineno) + 1):
                        table[covered] = table.get(covered, set()) | ids
        return table

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        return rule_id in self.suppressions.get(line, ())

    def line_text(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""


class Rule:
    """Base class: one named check over the whole project.

    Subclasses set ``id``/``name``/``rationale`` and implement
    :meth:`run`, yielding findings.  Registration happens via the
    :func:`register` decorator; the runner instantiates each rule once
    per lint run.
    """

    id: str = ""
    name: str = ""
    rationale: str = ""

    def run(self, project: "object", files: List[SourceFile]) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, file: SourceFile, line: int, message: str) -> Finding:
        return Finding(
            rule=self.id,
            path=file.relpath,
            line=line,
            message=message,
            line_text=file.line_text(line),
        )


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(rule_class: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not rule_class.id:
        raise ValueError(f"rule {rule_class.__name__} has no id")
    if rule_class.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule_class.id}")
    _REGISTRY[rule_class.id] = rule_class
    return rule_class


def all_rules() -> Dict[str, Type[Rule]]:
    """The registered rules, importing the built-in rule modules once."""
    # Imported lazily so `core` has no circular dependency on the rules.
    from repro.devtools import rules_concurrency, rules_numeric  # noqa: F401
    from repro.devtools.analysis import (  # noqa: F401
        rules_deadcode,
        rules_durability,
    )

    return dict(_REGISTRY)
