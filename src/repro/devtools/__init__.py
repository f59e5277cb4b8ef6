"""Development tooling: the project's own static-analysis framework.

``repro.devtools`` is a dependency-free, stdlib-``ast`` linter built
for this codebase's specific hazards: a threaded serving stack whose
trust math must not race, and numeric trust/suspicion state that must
never be compared with ``==``.  It ships four rule families, each
kept because it catches a seeded fault the test suite misses (see the
mutation table in ``docs/LINT.md``): concurrency (CC, lock-order
inversions, blocking I/O under locks, ``_GUARDED_BY`` violations),
numeric hygiene (NH), and -- via the whole-program engine in
``repro.devtools.analysis`` -- dead code (DX) and the durability
protocol (DP).  All of it sits behind a rule registry, inline
``# repro: lint-disable[RULE]`` suppressions, a committed baseline for
grandfathered findings, and human/JSON/SARIF reporters.  A run checks
the whole tree and writes nothing.

Run it as ``repro lint src`` or ``python -m repro.devtools src``; the
exit code is the CLI convention (0 clean, 1 findings, 2 usage or
internal error).  See ``docs/LINT.md`` for the rule catalog.
"""

from repro.devtools.baseline import Baseline, BaselineEntry
from repro.devtools.core import Finding, Rule, SourceFile, all_rules
from repro.devtools.runner import LintResult, run_lint

__all__ = [
    "Baseline",
    "BaselineEntry",
    "Finding",
    "LintResult",
    "Rule",
    "SourceFile",
    "all_rules",
    "run_lint",
]
