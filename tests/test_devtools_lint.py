"""Tests for the repro.devtools static analyzer.

Per-rule fixture tests (positive, negative, suppressed, baselined)
plus the self-check that the committed baseline keeps ``repro lint``
clean on ``src/``.
"""

from __future__ import annotations

import json
import os
import textwrap
from pathlib import Path

import pytest

import repro
from repro.devtools import Baseline, BaselineEntry, run_lint
from repro.devtools.cli import main as lint_main
from repro.devtools.core import all_rules

PROJECT_ROOT = Path(repro.__file__).resolve().parents[2]


def lint_snippet(tmp_path, source, name="mod.py", baseline=None, select=None):
    """Write ``source`` into a scratch project and lint it."""
    path = tmp_path / name
    path.write_text(textwrap.dedent(source))
    baseline_path = None
    if baseline is not None:
        baseline_path = tmp_path / "baseline.json"
        Baseline(baseline).save(baseline_path)
    return run_lint(
        [path],
        project_root=tmp_path,
        baseline_path=baseline_path,
        select=select,
    )


def rules_of(result, *, active_only=True):
    findings = result.active_findings() if active_only else result.findings
    return [f.rule for f in findings]


LOCK_INVERSION = """
    import threading


    class Pair:
        def __init__(self) -> None:
            self.la = threading.Lock()
            self.lb = threading.Lock()

        def one(self) -> None:
            with self.la:
                with self.lb:
                    pass

        def two(self) -> None:
            with self.lb:
                with self.la:
                    pass
"""


class TestLockOrderRule:
    def test_flags_inversion(self, tmp_path):
        result = lint_snippet(tmp_path, LOCK_INVERSION)
        assert "CC01" in rules_of(result)
        finding = next(f for f in result.findings if f.rule == "CC01")
        assert "Pair.la" in finding.message and "Pair.lb" in finding.message

    def test_flags_inversion_through_a_call(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            """
            import threading


            class Pair:
                def __init__(self) -> None:
                    self.la = threading.Lock()
                    self.lb = threading.Lock()

                def grab_a(self) -> None:
                    with self.la:
                        pass

                def one(self) -> None:
                    with self.la:
                        with self.lb:
                            pass

                def two(self) -> None:
                    with self.lb:
                        self.grab_a()
            """,
        )
        assert "CC01" in rules_of(result)

    def test_flags_nonreentrant_self_acquire(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            """
            import threading


            class Once:
                def __init__(self) -> None:
                    self.lock = threading.Lock()

                def outer(self) -> None:
                    with self.lock:
                        self.inner()

                def inner(self) -> None:
                    with self.lock:
                        pass
            """,
        )
        messages = [f.message for f in result.findings if f.rule == "CC01"]
        assert any("non-reentrant" in m for m in messages)

    def test_consistent_order_is_clean(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            """
            import threading


            class Pair:
                def __init__(self) -> None:
                    self.la = threading.Lock()
                    self.lb = threading.Lock()

                def one(self) -> None:
                    with self.la:
                        with self.lb:
                            pass

                def two(self) -> None:
                    with self.la:
                        with self.lb:
                            pass
            """,
        )
        assert "CC01" not in rules_of(result)

    def test_rlock_reacquire_is_clean(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            """
            import threading


            class Re:
                def __init__(self) -> None:
                    self.lock = threading.RLock()

                def outer(self) -> None:
                    with self.lock:
                        self.inner()

                def inner(self) -> None:
                    with self.lock:
                        pass
            """,
        )
        assert "CC01" not in rules_of(result)


class TestBlockingUnderLockRule:
    def test_flags_direct_sleep(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            """
            import threading
            import time


            class Slow:
                def __init__(self) -> None:
                    self.lock = threading.Lock()

                def nap(self) -> None:
                    with self.lock:
                        time.sleep(1.0)
            """,
        )
        assert "CC02" in rules_of(result)

    def test_flags_transitive_fsync(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            """
            import os
            import threading


            class Log:
                def __init__(self) -> None:
                    self.lock = threading.Lock()

                def _sync(self) -> None:
                    os.fsync(0)

                def write(self) -> None:
                    with self.lock:
                        self._sync()
            """,
        )
        findings = [f for f in result.active_findings() if f.rule == "CC02"]
        assert any("os.fsync" in f.message for f in findings)

    def test_sleep_outside_lock_is_clean(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            """
            import threading
            import time


            class Fine:
                def __init__(self) -> None:
                    self.lock = threading.Lock()

                def nap(self) -> None:
                    with self.lock:
                        pass
                    time.sleep(1.0)
            """,
        )
        assert "CC02" not in rules_of(result)

    def test_suppression_comment(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            """
            import threading
            import time


            class Slow:
                def __init__(self) -> None:
                    self.lock = threading.Lock()

                def nap(self) -> None:
                    with self.lock:
                        time.sleep(1.0)  # repro: lint-disable[CC02]
            """,
        )
        assert "CC02" not in rules_of(result)
        suppressed = [f for f in result.findings if f.rule == "CC02"]
        assert suppressed and all(f.suppressed for f in suppressed)


class TestGuardedByRule:
    GUARDED = """
        import threading


        class Box:
            _GUARDED_BY = {"value": "lock", "items": "lock"}

            def __init__(self) -> None:
                self.lock = threading.Lock()
                self.value = 0
                self.items = []

            def locked_write(self) -> None:
                with self.lock:
                    self.value += 1

            def unlocked_write(self) -> None:
                self.value += 1

            def unlocked_mutating_call(self) -> None:
                self.items.append(1)

            def documented_helper(self) -> None:
                \"\"\"Increment the tally (lock held by the caller).\"\"\"
                self.value += 1

            def _bump_locked(self) -> None:
                self.value += 1
    """

    def test_flags_unlocked_write_and_call_only(self, tmp_path):
        result = lint_snippet(tmp_path, self.GUARDED)
        findings = [f for f in result.active_findings() if f.rule == "CC03"]
        assert len(findings) == 2
        assert any("self.value" in f.message for f in findings)
        assert any("self.items.append" in f.message for f in findings)

    def test_init_and_assume_locked_are_exempt(self, tmp_path):
        result = lint_snippet(tmp_path, self.GUARDED)
        flagged = {f.line for f in result.findings if f.rule == "CC03"}
        text = (tmp_path / "mod.py").read_text().splitlines()
        # Each finding must sit inside one of the two unlocked methods;
        # __init__, the documented helper, and *_locked stay exempt.
        def def_line(name):
            return next(
                i for i, line in enumerate(text, 1) if f"def {name}" in line
            )

        methods = ("__init__", "locked_write", "unlocked_write",
                   "unlocked_mutating_call", "documented_helper",
                   "_bump_locked")
        for lineno in flagged:
            above = [name for name in methods if def_line(name) < lineno]
            enclosing = max(above, key=def_line)
            assert enclosing in ("unlocked_write", "unlocked_mutating_call")


class TestFloatEqualityRule:
    def test_flags_trust_comparison(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            """
            def decide(trust: float) -> bool:
                return trust == 0.5
            """,
        )
        assert "NH01" in rules_of(result)

    def test_flags_named_float_literal_in_trust_package(self, tmp_path):
        path = tmp_path / "src" / "repro" / "trust" / "mod.py"
        path.parent.mkdir(parents=True)
        path.write_text(
            textwrap.dedent(
                """
                def weight(w: float) -> float:
                    if w == 0.0:
                        return 0.0
                    return 1.0 / w
                """
            )
        )
        result = run_lint([path], project_root=tmp_path)
        assert "NH01" in rules_of(result)

    def test_int_comparison_is_clean(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            """
            def decide(n_trust_updates: int) -> bool:
                return n_trust_updates == 0
            """,
        )
        assert "NH01" not in rules_of(result)

    def test_unrelated_float_guard_is_clean(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            """
            def normalize(scale: float) -> float:
                if scale == 0.0:
                    return 0.0
                return 1.0 / scale
            """,
        )
        assert "NH01" not in rules_of(result)

    def test_baselined_finding_does_not_fail(self, tmp_path):
        source = """
        def decide(trust: float) -> bool:
            return trust == 0.5
        """
        entry = BaselineEntry(
            rule="NH01",
            path="mod.py",
            line_text="return trust == 0.5",
            reason="fixture",
        )
        result = lint_snippet(tmp_path, source, baseline=[entry])
        assert "NH01" not in rules_of(result)
        assert any(f.baselined for f in result.findings if f.rule == "NH01")
        assert not result.stale_baseline

    def test_stale_baseline_entry_is_reported(self, tmp_path):
        entry = BaselineEntry(
            rule="NH01",
            path="mod.py",
            line_text="return trust == 0.9",
            reason="fixture",
        )
        result = lint_snippet(tmp_path, "x = 1\n", baseline=[entry])
        assert [e.line_text for e in result.stale_baseline] == [
            "return trust == 0.9"
        ]


class TestNumericMiscRules:
    def test_unseeded_random_in_experiments(self, tmp_path):
        path = tmp_path / "src" / "repro" / "experiments" / "mod.py"
        path.parent.mkdir(parents=True)
        path.write_text(
            "import numpy as np\n"
            "values = np.random.normal(size=3)\n"
            "rng = np.random.default_rng()\n"
        )
        result = run_lint([path], project_root=tmp_path)
        assert rules_of(result).count("NH02") == 2

    def test_seeded_rng_outside_experiments_is_clean(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            """
            import numpy as np

            rng = np.random.default_rng(7)
            values = np.random.normal(size=3)
            """,
        )
        assert "NH02" not in rules_of(result)

    def test_silent_except(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            """
            def load():
                try:
                    return open("x").read()
                except Exception:
                    pass
            """,
        )
        assert "NH03" in rules_of(result)

    def test_handled_except_is_clean(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            """
            def load(log):
                try:
                    return int("x")
                except ValueError:
                    pass
                except Exception as exc:
                    log(exc)
                return 0
            """,
        )
        assert "NH03" not in rules_of(result)


class TestRunnerAndCli:
    def test_select_unknown_rule_raises(self, tmp_path):
        with pytest.raises(ValueError, match="unknown rule"):
            lint_snippet(tmp_path, "x = 1\n", select={"ZZ99"})

    def test_cli_exit_codes(self, tmp_path, capsys):
        dirty = tmp_path / "mod.py"
        dirty.write_text(
            "def decide(trust: float) -> bool:\n    return trust == 0.5\n"
        )
        assert lint_main([str(dirty), "--project-root", str(tmp_path)]) == 1
        clean = tmp_path / "ok.py"
        clean.write_text("x = 1\n")
        assert lint_main([str(clean), "--project-root", str(tmp_path)]) == 0
        assert lint_main(["/nonexistent", "--project-root", str(tmp_path)]) == 2
        capsys.readouterr()

    def test_cli_json_format(self, tmp_path, capsys):
        dirty = tmp_path / "mod.py"
        dirty.write_text(
            "def decide(trust: float) -> bool:\n    return trust == 0.5\n"
            "\n\ncheck = decide\n"
        )
        code = lint_main(
            [str(dirty), "--project-root", str(tmp_path), "--format=json"]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["active_count"] == 1
        assert payload["findings"][0]["rule"] == "NH01"

    def test_update_baseline_roundtrip(self, tmp_path, capsys):
        dirty = tmp_path / "mod.py"
        dirty.write_text(
            "def decide(trust: float) -> bool:\n    return trust == 0.5\n"
            "\n\ncheck = decide\n"
        )
        root = ["--project-root", str(tmp_path)]
        assert lint_main([str(dirty)] + root + ["--update-baseline"]) == 0
        baseline = Baseline.load(tmp_path / ".lint-baseline.json")
        assert len(baseline.entries) == 1
        # Baselined now; the same run is clean.
        assert lint_main([str(dirty)] + root) == 0
        capsys.readouterr()

    def test_all_rule_families_registered(self):
        ids = set(all_rules())
        assert {"CC01", "CC02", "CC03",
                "NH01", "NH02", "NH03",
                "DX01", "DX02",
                "DP01", "DP02", "DP03"} == ids


def _checkout_state(root: Path) -> dict:
    """Every file (size, mtime) and directory under ``root``, minus
    ``.git`` and the interpreter's ``__pycache__`` directories."""
    state = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d not in (".git", "__pycache__")]
        for name in dirnames:
            state[os.path.join(dirpath, name)] = None
        for name in filenames:
            path = os.path.join(dirpath, name)
            stat = os.stat(path)
            state[path] = (stat.st_size, stat.st_mtime_ns)
    return state


class TestSelfCheck:
    def test_repro_lint_is_clean_on_src_with_committed_baseline(self):
        before = _checkout_state(PROJECT_ROOT)
        result = run_lint(
            [PROJECT_ROOT / "src"],
            project_root=PROJECT_ROOT,
            baseline_path=PROJECT_ROOT / ".lint-baseline.json",
        )
        assert result.active_findings() == []
        assert result.stale_baseline == []
        # Linting reads the checkout and writes nothing into it.
        after = _checkout_state(PROJECT_ROOT)
        assert sorted(set(after) - set(before)) == []
        assert sorted(p for p in before if after.get(p) != before[p]) == []

    def test_committed_baseline_is_small_and_justified(self):
        baseline = Baseline.load(PROJECT_ROOT / ".lint-baseline.json")
        assert 0 < len(baseline.entries) <= 10
        for entry in baseline.entries:
            assert entry.reason.strip(), f"baseline entry {entry} needs a reason"
            assert "TODO" not in entry.reason
