"""Reporters: render a lint run as text.  No printing here -- the CLI
owns the output stream."""

from __future__ import annotations

import json
from typing import List

__all__ = ["format_human", "format_json", "format_sarif"]


def format_human(result: "LintResult") -> str:
    """One line per finding, grouped status summary at the end."""
    lines: List[str] = []
    for finding in result.findings:
        status = ""
        if finding.suppressed:
            status = " [suppressed]"
        elif finding.baselined:
            status = " [baselined]"
        if status and not result.show_all:
            continue
        lines.append(
            f"{finding.path}:{finding.line}: {finding.rule} "
            f"{finding.message}{status}"
        )
    for entry in result.stale_baseline:
        lines.append(
            f"warning: stale baseline entry {entry.rule} at {entry.path} "
            f"({entry.line_text!r}) -- remove it"
        )
    active = result.active_findings()
    lines.append(
        f"{len(active)} finding(s)"
        f" ({len(result.findings) - len(active)} suppressed/baselined,"
        f" {len(result.files)} file(s) checked)"
    )
    return "\n".join(lines)


def format_json(result: "LintResult") -> str:
    """Machine-readable report for CI."""
    payload = {
        "files_checked": len(result.files),
        "findings": [
            {
                "rule": finding.rule,
                "path": finding.path,
                "line": finding.line,
                "message": finding.message,
                "line_text": finding.line_text,
                "suppressed": finding.suppressed,
                "baselined": finding.baselined,
            }
            for finding in result.findings
        ],
        "stale_baseline": [
            {
                "rule": entry.rule,
                "path": entry.path,
                "line_text": entry.line_text,
            }
            for entry in result.stale_baseline
        ],
        "active_count": len(result.active_findings()),
    }
    return json.dumps(payload, indent=2)


def format_sarif(result: "LintResult") -> str:
    """SARIF 2.1.0 report -- the interchange format CI code-scanning
    UIs ingest to annotate pull requests.

    Suppressed and baselined findings are carried as SARIF
    suppressions (``inSource`` for inline ``lint-disable`` comments,
    ``external`` for baseline entries) so viewers show them as
    reviewed rather than hiding them.
    """
    from repro.devtools.core import all_rules

    rules = [
        {
            "id": rule_id,
            "name": rule_class.name,
            "fullDescription": {"text": rule_class.rationale},
            "defaultConfiguration": {"level": "error"},
        }
        for rule_id, rule_class in sorted(all_rules().items())
    ]
    results = []
    for finding in result.findings:
        entry = {
            "ruleId": finding.rule,
            "level": "error",
            "message": {"text": finding.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": finding.path,
                            "uriBaseId": "SRCROOT",
                        },
                        "region": {"startLine": finding.line},
                    }
                }
            ],
        }
        if finding.suppressed or finding.baselined:
            entry["suppressions"] = [
                {"kind": "inSource" if finding.suppressed else "external"}
            ]
        results.append(entry)
    payload = {
        "$schema": (
            "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
            "master/Schemata/sarif-schema-2.1.0.json"
        ),
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "informationUri": "docs/LINT.md",
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(payload, indent=2)
