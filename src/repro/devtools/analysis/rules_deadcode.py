"""DX: dead-export and dead-definition detection.

The public surface is declared in ``__all__`` lists and kept honest by
``tests/test_api_surface.py`` (exported, tested, documented); these
rules close the other side of the loop -- names that are *declared*
public but that nothing actually uses, and private top-level
definitions nothing references at all.

* **DX01** -- an ``__all__`` entry whose name is referenced nowhere:
  not by any linted module (its own included -- the definition and the
  ``__all__`` string itself do not count), not in string constants,
  and not by any external consumer (tests, benchmarks, examples).
  ``tests/test_api_surface.py`` is deliberately *excluded* from the
  reference scan: it enumerates every export by construction, so it
  would keep any dead export alive.
* **DX02** -- a non-exported top-level function or class with zero
  references anywhere (modules, string constants, tests, benchmarks,
  examples).  Decorated definitions are exempt (registration
  decorators are a use), as are dunder names and ``main``.

A bare ``from x import y`` does not count as a reference for DX01 --
re-export chains must bottom out in real usage -- but an ``import ...
as`` alias does (the rename is deliberate).
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Dict, Iterator, List, Set

from repro.devtools.analysis.model import AnalysisModel, get_analysis
from repro.devtools.core import Finding, Rule, SourceFile, register
from repro.devtools.project import ProjectModel

#: Importing the module registers DX01/DX02; it exports nothing.
__all__: List[str] = []

#: Project-root-relative directories scanned for external references.
_EXTERNAL_ROOTS = ("tests", "benchmarks", "examples")

#: Enumerates every export by design; useless as liveness evidence.
_SURFACE_TEST = "tests/test_api_surface.py"

_WORD_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _external_reference_files(project_root: Path) -> List[Path]:
    """Every external file whose contents feed the DX liveness scan."""
    out: List[Path] = []
    for root in _EXTERNAL_ROOTS:
        base = project_root / root
        if base.is_dir():
            out.extend(
                p
                for p in sorted(base.rglob("*.py"))
                if "__pycache__" not in p.parts
            )
    return out


class _ReferenceIndex:
    """Name liveness evidence, built once per run and memoized."""

    def __init__(self, analysis: AnalysisModel, project_root: Path) -> None:
        self.analysis = analysis
        #: relpath -> names that file references in code.
        self.code_refs: Dict[str, Set[str]] = {}
        #: names appearing in string constants of any linted file.
        self.string_refs: Set[str] = set()
        #: names any linted file exports through ``__all__``.
        self.exported_anywhere: Set[str] = set()
        for relpath, info in analysis.modules.items():
            self.code_refs[relpath] = info.name_refs | info.aliased_origs
            self.string_refs |= info.string_words
            self.exported_anywhere |= info.exported
        #: words in external consumers, split by file for the DX01
        #: surface-test exclusion.
        self.external_words: Dict[str, Set[str]] = {}
        for path in _external_reference_files(project_root):
            try:
                relpath = path.relative_to(project_root).as_posix()
                text = path.read_text(encoding="utf-8")
            except (OSError, ValueError):
                continue
            self.external_words[relpath] = set(_WORD_RE.findall(text))

    def referenced_in_code(self, name: str) -> bool:
        return any(name in refs for refs in self.code_refs.values())

    def referenced_externally(self, name: str, include_surface_test: bool) -> bool:
        return any(
            name in words
            for relpath, words in self.external_words.items()
            if include_surface_test or relpath != _SURFACE_TEST
        )


def _reference_index(
    project: ProjectModel, files: List[SourceFile]
) -> _ReferenceIndex:
    cached = getattr(project, "_dx_reference_index", None)
    if cached is None:
        analysis = get_analysis(project, files)
        cached = _ReferenceIndex(analysis, project.root)
        project._dx_reference_index = cached
    return cached


@register
class DeadExport(Rule):
    """DX01: an ``__all__`` entry nothing outside the module uses."""

    id = "DX01"
    name = "dead export"
    rationale = (
        "A name in __all__ that nothing references -- not code, not "
        "strings, not tests, benchmarks, or examples -- is API surface "
        "that must be tested and documented but delivers nothing; "
        "delete it."
    )

    def run(self, project: ProjectModel, files: List[SourceFile]) -> Iterator[Finding]:
        index = _reference_index(project, files)
        for file in files:
            info = index.analysis.modules.get(file.relpath)
            if info is None:
                continue
            for name, line in info.all_names:
                if index.referenced_in_code(name):
                    continue
                if name in index.string_refs:
                    continue
                if index.referenced_externally(name, include_surface_test=False):
                    continue
                yield self.finding(
                    file,
                    line,
                    f"exported name `{name}` is referenced nowhere -- "
                    "no module, string, test, benchmark, or example "
                    "uses it; delete it (and its __all__ entries)",
                )


@register
class DeadDefinition(Rule):
    """DX02: a top-level definition with zero references anywhere."""

    id = "DX02"
    name = "dead definition"
    rationale = (
        "A top-level function or class that nothing references -- not "
        "code, not strings, not tests or examples -- is dead weight "
        "that still costs review and refactoring effort."
    )

    def run(self, project: ProjectModel, files: List[SourceFile]) -> Iterator[Finding]:
        index = _reference_index(project, files)
        for file in files:
            info = index.analysis.modules.get(file.relpath)
            if info is None:
                continue
            for definition in info.definitions:
                name = definition.name
                if (
                    definition.decorated
                    or name.startswith("__")
                    or name == "main"
                    or name in index.exported_anywhere
                ):
                    continue
                if any(name in refs for refs in index.code_refs.values()):
                    continue
                if name in index.string_refs:
                    continue
                if index.referenced_externally(name, include_surface_test=True):
                    continue
                yield self.finding(
                    file,
                    definition.line,
                    f"{definition.kind} `{name}` is referenced nowhere "
                    "(code, strings, tests, benchmarks, examples); "
                    "delete it or export and use it",
                )
