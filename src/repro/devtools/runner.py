"""The lint runner: collect files, build the model, apply the rules.

``run_lint`` is the single entry point shared by the CLI, the
``repro lint`` subcommand, and the test suite.  It never prints and
never exits -- it returns a :class:`LintResult`; exit-code policy
lives in :mod:`repro.devtools.cli`.

Incrementality: with ``use_cache=True`` (the default) the runner
hashes every file, consults the manifest under ``.lint-cache/``
(:mod:`repro.devtools.analysis.cache`), and

* on a **hit** (nothing changed) reuses every cached finding without
  parsing a single file;
* on a **partial** run parses everything once (the whole-program model
  is always built from the full universe) but re-runs file- and
  cone-scoped rules only over the invalid files, reusing cached
  findings for the rest; global rules always re-run.

Suppression state is cached with the findings (it is a pure function
of the unchanged file text); baseline matching is recomputed fresh on
every run so baseline edits take effect immediately.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.devtools.baseline import Baseline, BaselineEntry
from repro.devtools.core import Finding, Rule, SourceFile, all_rules
from repro.devtools.project import build_project

__all__ = ["LintResult", "collect_files", "run_lint"]

DEFAULT_CACHE_DIR = ".lint-cache"


@dataclass
class LintResult:
    """Everything one lint run produced.

    Attributes:
        findings: all findings, sorted by (path, line, rule), with
            ``suppressed``/``baselined`` already resolved.
        files: the source files that were parsed this run (empty on a
            full cache hit -- see ``files_total``).
        stale_baseline: committed entries nothing matched.
        show_all: reporters include suppressed/baselined lines too.
        files_total: number of files in the lint universe (always set,
            even when nothing was parsed).
        reanalyzed: relpaths actually re-analyzed this run -- empty on
            a full cache hit, everything on a cold run.
        cache_status: ``"disabled"``, ``"cold"``, ``"hit"``, or
            ``"partial"``.
    """

    findings: List[Finding] = field(default_factory=list)
    files: List[SourceFile] = field(default_factory=list)
    stale_baseline: List[BaselineEntry] = field(default_factory=list)
    show_all: bool = False
    files_total: Optional[int] = None
    reanalyzed: List[str] = field(default_factory=list)
    cache_status: str = "disabled"

    def active_findings(self) -> List[Finding]:
        return [finding for finding in self.findings if finding.active]

    @property
    def ok(self) -> bool:
        return not self.active_findings()

    @property
    def checked_count(self) -> int:
        return self.files_total if self.files_total is not None else len(self.files)


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


def _finding_to_raw(finding: Finding) -> dict:
    return {
        "rule": finding.rule,
        "line": finding.line,
        "message": finding.message,
        "line_text": finding.line_text,
        "suppressed": finding.suppressed,
    }


def _finding_from_raw(path: str, raw: dict) -> Optional[Finding]:
    try:
        return Finding(
            rule=str(raw["rule"]),
            path=path,
            line=int(raw["line"]),
            message=str(raw["message"]),
            line_text=str(raw.get("line_text", "")),
            suppressed=bool(raw.get("suppressed", False)),
        )
    except (KeyError, TypeError, ValueError):
        return None


def _external_hashes(
    rules: Sequence[Rule], root: Path
) -> Dict[str, str]:
    from repro.devtools.analysis.cache import content_hash

    out: Dict[str, str] = {}
    for rule in rules:
        for path in rule.external_inputs(root):
            relpath = _relpath_for(Path(path), root)
            if relpath in out:
                continue
            try:
                out[relpath] = content_hash(
                    Path(path).read_text(encoding="utf-8")
                )
            except OSError:
                out[relpath] = "<missing>"
    return out


def run_lint(
    paths: Sequence[Path],
    project_root: Optional[Path] = None,
    baseline_path: Optional[Path] = None,
    select: Optional[Set[str]] = None,
    show_all: bool = False,
    use_cache: bool = True,
    cache_dir: Optional[Path] = None,
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
        use_cache: reuse findings for files whose content and import
            cone are unchanged since the cached run.
        cache_dir: cache directory (default: ``.lint-cache`` under the
            project root).
    """
    from repro.devtools.analysis.cache import (
        AnalysisCache,
        compute_signature,
        content_hash,
    )
    from repro.devtools.analysis.contracts import default_registry
    from repro.devtools.analysis.effects import default_effect_registry

    root = (project_root or Path.cwd()).resolve()
    file_paths = collect_files(paths)

    rule_classes = all_rules()
    if select:
        unknown = select - set(rule_classes)
        if unknown:
            raise ValueError(f"unknown rule id(s): {', '.join(sorted(unknown))}")
        rule_classes = {rule_id: rule_classes[rule_id] for rule_id in select}
    rules = {rule_id: rule_classes[rule_id]() for rule_id in sorted(rule_classes)}

    # Read and hash every file up front; parsing happens only if needed.
    texts: Dict[str, Tuple[Path, str]] = {}
    current: Dict[str, str] = {}
    for path in file_paths:
        relpath = _relpath_for(path, root)
        text = path.read_text(encoding="utf-8")
        texts[relpath] = (path, text)
        current[relpath] = content_hash(text)

    externals = _external_hashes(list(rules.values()), root)
    signature = compute_signature(
        list(rules),
        default_registry().digest(),
        list(current),
        effects_digest=default_effect_registry().digest(),
    )

    cache: Optional[AnalysisCache] = None
    if use_cache:
        cache = AnalysisCache(cache_dir or (root / DEFAULT_CACHE_DIR))
        plan = cache.plan(signature, current, externals)
    else:
        from repro.devtools.analysis.cache import CachePlan

        plan = CachePlan(
            status="disabled", dirty=sorted(current), externals_changed=True
        )

    baseline = Baseline.load(baseline_path) if baseline_path else Baseline()

    #: relpath -> rule id -> raw finding dicts, for the next manifest.
    raw_by_file: Dict[str, Dict[str, List[dict]]] = {
        relpath: {} for relpath in current
    }
    unresolved: List[Finding] = []
    files: List[SourceFile] = []
    deps: Dict[str, Dict[str, str]] = {}

    if plan.status == "hit":
        # Nothing changed: reuse every finding without parsing.
        for relpath, entry in plan.valid.items():
            for rule_id, items in (entry.get("findings") or {}).items():
                if rule_id not in rules:
                    continue
                kept: List[dict] = []
                for raw in items:
                    finding = _finding_from_raw(relpath, raw)
                    if finding is not None:
                        unresolved.append(finding)
                        kept.append(raw)
                raw_by_file[relpath][rule_id] = kept
            deps[relpath] = dict(entry.get("deps") or {})
    else:
        for relpath in sorted(current):
            path, text = texts[relpath]
            tree = ast.parse(text, filename=str(path))
            files.append(SourceFile(path, relpath, text, tree))
        project = build_project(files, root=root)
        project._all_files = files

        dirty_set = set(plan.dirty)
        scoped_targets = [file for file in files if file.relpath in dirty_set]
        for rule_id, rule in rules.items():
            scoped = rule.scope in ("file", "cone")
            targets = scoped_targets if scoped else files
            fresh: List[Finding] = []
            by_path = {file.relpath: file for file in files}
            for finding in rule.run(project, targets):
                file = by_path.get(finding.path)
                if file is not None and finding.suppressed is False:
                    finding = replace(
                        finding,
                        suppressed=file.is_suppressed(
                            finding.rule, finding.line
                        ),
                    )
                fresh.append(finding)
            if scoped:
                # Keep cached findings for files this rule skipped.
                for relpath, entry in plan.valid.items():
                    for raw in (entry.get("findings") or {}).get(rule_id, []):
                        finding = _finding_from_raw(relpath, raw)
                        if finding is not None:
                            fresh.append(finding)
            for finding in fresh:
                unresolved.append(finding)
                raw_by_file.setdefault(finding.path, {}).setdefault(
                    rule_id, []
                ).append(_finding_to_raw(finding))

        from repro.devtools.analysis.model import get_analysis

        analysis = get_analysis(project, files)
        for relpath in current:
            deps[relpath] = {
                dep: current[dep]
                for dep in analysis.transitive_imports(relpath)
                if dep in current
            }

    findings: List[Finding] = []
    for finding in unresolved:
        findings.append(
            replace(
                finding,
                baselined=(not finding.suppressed)
                and baseline.matches(finding),
            )
        )
    findings.sort(key=lambda f: (f.path, f.line, f.rule, f.message))

    if cache is not None:
        cache.save(
            AnalysisCache.build_manifest(
                signature=signature,
                current=current,
                deps=deps,
                findings_by_file={
                    relpath: rules_map
                    for relpath, rules_map in raw_by_file.items()
                    if relpath in current
                },
                externals=externals,
            )
        )

    return LintResult(
        findings=findings,
        files=files,
        stale_baseline=baseline.stale_entries() if baseline_path else [],
        show_all=show_all,
        files_total=len(current),
        reanalyzed=list(plan.dirty),
        cache_status=plan.status,
    )
