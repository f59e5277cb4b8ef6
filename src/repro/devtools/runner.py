"""The lint runner: collect files, build the model, apply the rules.

``run_lint`` is the single entry point shared by the CLI, the
``repro lint`` subcommand, and the test suite.  It never prints and
never exits -- it returns a :class:`LintResult`; exit-code policy
lives in :mod:`repro.devtools.cli`.

Every run parses the whole lint universe once and runs every selected
rule over it (the whole-program rules need the whole tree anyway).  A
run writes nothing to disk.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Set

from repro.devtools.baseline import Baseline, BaselineEntry
from repro.devtools.core import Finding, SourceFile, all_rules
from repro.devtools.project import build_project

__all__ = ["LintResult", "collect_files", "run_lint"]


@dataclass
class LintResult:
    """Everything one lint run produced.

    Attributes:
        findings: all findings, sorted by (path, line, rule), with
            ``suppressed``/``baselined`` already resolved.
        files: the source files that were parsed and checked.
        stale_baseline: committed entries nothing matched.
        show_all: reporters include suppressed/baselined lines too.
    """

    findings: List[Finding] = field(default_factory=list)
    files: List[SourceFile] = field(default_factory=list)
    stale_baseline: List[BaselineEntry] = field(default_factory=list)
    show_all: bool = False

    def active_findings(self) -> List[Finding]:
        return [finding for finding in self.findings if finding.active]

    @property
    def ok(self) -> bool:
        return not self.active_findings()


def collect_files(paths: Iterable[Path]) -> List[Path]:
    """Expand files/directories into a sorted list of .py files."""
    out: Set[Path] = set()
    for path in paths:
        path = Path(path)
        if path.is_dir():
            for candidate in path.rglob("*.py"):
                if "__pycache__" in candidate.parts:
                    continue
                out.add(candidate.resolve())
        elif path.suffix == ".py" and path.is_file():
            out.add(path.resolve())
    return sorted(out)


def _relpath_for(path: Path, root: Path) -> str:
    try:
        return path.relative_to(root).as_posix()
    except ValueError:
        return path.as_posix()


def run_lint(
    paths: Sequence[Path],
    project_root: Optional[Path] = None,
    baseline_path: Optional[Path] = None,
    select: Optional[Set[str]] = None,
    show_all: bool = False,
) -> LintResult:
    """Run the registered rules over ``paths``.

    Args:
        paths: files and/or directories to lint.
        project_root: repository root; defaults to the current
            directory.  Relative finding paths, the baseline, and the
            dead-export reference roots resolve against it.
        baseline_path: baseline JSON file (missing file = empty
            baseline; None = no baselining).
        select: rule ids to run (None = all registered rules).
        show_all: carry suppressed/baselined findings into reports.
    """
    root = (project_root or Path.cwd()).resolve()

    rule_classes = all_rules()
    if select:
        unknown = select - set(rule_classes)
        if unknown:
            raise ValueError(f"unknown rule id(s): {', '.join(sorted(unknown))}")
        rule_classes = {rule_id: rule_classes[rule_id] for rule_id in select}

    files: List[SourceFile] = []
    for path in collect_files(paths):
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text, filename=str(path))
        files.append(SourceFile(path, _relpath_for(path, root), text, tree))
    by_path = {file.relpath: file for file in files}
    project = build_project(files, root=root)
    baseline = Baseline.load(baseline_path) if baseline_path else Baseline()

    findings: List[Finding] = []
    for rule_id in sorted(rule_classes):
        for finding in rule_classes[rule_id]().run(project, files):
            file = by_path.get(finding.path)
            suppressed = finding.suppressed or (
                file is not None and file.is_suppressed(finding.rule, finding.line)
            )
            findings.append(
                replace(
                    finding,
                    suppressed=suppressed,
                    baselined=not suppressed and baseline.matches(finding),
                )
            )
    findings.sort(key=lambda f: (f.path, f.line, f.rule, f.message))

    return LintResult(
        findings=findings,
        files=files,
        stale_baseline=baseline.stale_entries() if baseline_path else [],
        show_all=show_all,
    )
