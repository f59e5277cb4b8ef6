"""Tests for the whole-program analysis engine (repro.devtools.analysis).

Covers the whole-program rule families (DX dead code, DP durability
protocol), ``--strict``, and the runtime domain-boundary fixes that the
since-retired DI rules surfaced in ``repro.aggregation`` and
``repro.trust``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.devtools.cli import main as lint_main
from repro.devtools.runner import run_lint
from repro.errors import ConfigurationError, EmptyWindowError


def write(root: Path, relpath: str, text: str) -> Path:
    path = root / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


def lint(root: Path, select=None):
    return run_lint([root], project_root=root, select=select)


# ---------------------------------------------------------------------------
# DX: dead exports and definitions
# ---------------------------------------------------------------------------


class TestDeadCodeRules:
    def test_dx01_flags_export_nothing_references(self, tmp_path):
        write(
            tmp_path,
            "pkg/mod.py",
            '"""Fixture."""\n\n'
            '__all__ = ["dead_export"]\n\n\n'
            "def dead_export():\n"
            '    """Nothing references this."""\n'
            "    return None\n",
        )
        findings = lint(tmp_path, select={"DX01"}).active_findings()
        assert len(findings) == 1
        assert "dead_export" in findings[0].message
        assert findings[0].line == 3

    def test_dx01_test_reference_keeps_export_alive(self, tmp_path):
        write(
            tmp_path,
            "pkg/mod.py",
            '"""Fixture."""\n\n'
            '__all__ = ["live_export"]\n\n\n'
            "def live_export():\n"
            '    """Referenced by a test."""\n'
            "    return None\n",
        )
        write(
            tmp_path,
            "tests/test_mod.py",
            '"""Consumer."""\n\nfrom pkg.mod import live_export\n\n'
            "RESULT = live_export\n",
        )
        result = run_lint(
            [tmp_path / "pkg"], project_root=tmp_path, select={"DX01"}
        )
        assert result.active_findings() == []

    def test_dx02_flags_unreferenced_definition(self, tmp_path):
        write(
            tmp_path,
            "pkg/mod.py",
            '"""Fixture."""\n\n\n'
            "def unused_thing():\n"
            '    """Dead weight."""\n'
            "    return 1\n",
        )
        findings = lint(tmp_path, select={"DX02"}).active_findings()
        assert len(findings) == 1
        assert "unused_thing" in findings[0].message

    def test_dx02_exemptions(self, tmp_path):
        write(
            tmp_path,
            "pkg/mod.py",
            '"""Fixture: decorated, dunder-adjacent, and main are exempt."""\n\n'
            "import functools\n\n\n"
            "@functools.lru_cache\n"
            "def registered():\n"
            '    """Decorators count as a use."""\n'
            "    return 1\n\n\n"
            "def main():\n"
            '    """Entry points are exempt."""\n'
            "    return 0\n",
        )
        assert lint(tmp_path, select={"DX02"}).active_findings() == []

    def test_dx02_test_reference_keeps_definition_alive(self, tmp_path):
        write(
            tmp_path,
            "pkg/mod.py",
            '"""Fixture."""\n\n\n'
            "def unused_thing():\n"
            '    """Dead until a test references it."""\n'
            "    return 1\n",
        )
        first = run_lint(
            [tmp_path / "pkg"], project_root=tmp_path, select={"DX02"}
        )
        assert [f.rule for f in first.active_findings()] == ["DX02"]
        # No linted file changes, but a new external consumer appears.
        write(
            tmp_path,
            "tests/test_mod.py",
            '"""Consumer."""\n\nfrom pkg.mod import unused_thing\n',
        )
        second = run_lint(
            [tmp_path / "pkg"], project_root=tmp_path, select={"DX02"}
        )
        assert second.active_findings() == []


# ---------------------------------------------------------------------------
# DP: durability-protocol rules over interprocedural effect summaries
# ---------------------------------------------------------------------------


class TestEffectRuleRegistration:
    def test_new_families_are_registered_under_their_ids(self):
        from repro.devtools.analysis.rules_durability import (
            AtomicReplaceRule,
            OrderingContractRule,
            UnflushedWriteRule,
        )
        from repro.devtools.core import all_rules

        catalog = all_rules()
        assert catalog["DP01"] is AtomicReplaceRule
        assert catalog["DP02"] is OrderingContractRule
        assert catalog["DP03"] is UnflushedWriteRule


_DIR_FSYNC = (
    "def flush_dir(directory):\n"
    '    """Makes directory-entry mutations durable."""\n'
    "    fd = os.open(directory, os.O_RDONLY)\n"
    "    try:\n"
    "        os.fsync(fd)\n"
    "    finally:\n"
    "        os.close(fd)\n"
)


class TestDurabilityRules:
    def test_dp01_flags_rename_of_unfsynced_write(self, tmp_path):
        write(
            tmp_path,
            "pkg/pub.py",
            "import os\n\n\n"
            "def publish(tmp, final):\n"
            '    handle = open(tmp, "w")\n'
            '    handle.write("x")\n'
            "    handle.close()\n"
            "    os.replace(tmp, final)\n",
        )
        result = lint(tmp_path, select={"DP01"})
        messages = [f.message for f in result.active_findings()]
        assert any("torn file" in m for m in messages)
        assert any("directory fsync" in m for m in messages)

    def test_dp01_full_protocol_is_clean(self, tmp_path):
        write(
            tmp_path,
            "pkg/pub.py",
            "import os\n\n\n" + _DIR_FSYNC + "\n\n"
            "def publish(tmp, final, directory):\n"
            '    handle = open(tmp, "w")\n'
            '    handle.write("x")\n'
            "    handle.flush()\n"
            "    os.fsync(handle.fileno())\n"
            "    handle.close()\n"
            "    os.replace(tmp, final)\n"
            "    flush_dir(directory)\n",
        )
        result = lint(tmp_path, select={"DP01"})
        assert result.active_findings() == []

    def test_dp01_sees_dir_fsync_through_a_callee(self, tmp_path):
        # The dir fsync lives two files away; the flattened effect
        # sequence still covers the unlink.
        write(tmp_path, "pkg/__init__.py", "")
        write(tmp_path, "pkg/util.py", "import os\n\n\n" + _DIR_FSYNC)
        write(
            tmp_path,
            "pkg/gc.py",
            "import os\n\n"
            "from pkg.util import flush_dir\n\n\n"
            "def drop(path, directory):\n"
            "    os.unlink(path)\n"
            "    flush_dir(directory)\n",
        )
        result = lint(tmp_path, select={"DP01"})
        assert result.active_findings() == []

    def test_dp02_flags_ack_before_append(self, tmp_path):
        _seed_acceptance_fixture(tmp_path)
        result = lint(tmp_path, select={"DP02"})
        findings = result.active_findings()
        assert [f.path for f in findings] == ["src/repro/service/ackflow.py"]
        assert "wal_append" in findings[0].message

    def test_dp02_append_before_ack_is_clean(self, tmp_path):
        _seed_acceptance_fixture(tmp_path)
        ackflow = tmp_path / "src/repro/service/ackflow.py"
        text = ackflow.read_text()
        assert '        self.ack(201, "ok")\n        self.log.append(entry)\n' in text
        ackflow.write_text(
            text.replace(
                '        self.ack(201, "ok")\n        self.log.append(entry)\n',
                '        self.log.append(entry)\n        self.ack(201, "ok")\n',
            )
        )
        result = lint(tmp_path, select={"DP02"})
        assert result.active_findings() == []

    def test_dp03_flags_fsync_of_unflushed_handle(self, tmp_path):
        write(
            tmp_path,
            "pkg/sync.py",
            "import os\n\n\n"
            "def persist(path):\n"
            '    handle = open(path, "w")\n'
            '    handle.write("x")\n'
            "    os.fsync(handle.fileno())\n"
            "    handle.close()\n",
        )
        result = lint(tmp_path, select={"DP03"})
        assert [f.rule for f in result.active_findings()] == ["DP03"]
        assert "flush" in result.active_findings()[0].message

    def test_dp03_flushed_handle_is_clean(self, tmp_path):
        write(
            tmp_path,
            "pkg/sync.py",
            "import os\n\n\n"
            "def persist(path):\n"
            '    handle = open(path, "w")\n'
            '    handle.write("x")\n'
            "    handle.flush()\n"
            "    os.fsync(handle.fileno())\n"
            "    handle.close()\n",
        )
        result = lint(tmp_path, select={"DP03"})
        assert result.active_findings() == []


# ---------------------------------------------------------------------------
# Effect summaries across modules
# ---------------------------------------------------------------------------


class TestEffectConeInvalidation:
    def _seed(self, root: Path) -> None:
        write(root, "src/repro/__init__.py", '"""Fixture root."""\n')
        write(root, "src/repro/service/__init__.py", '"""Fixture svc."""\n')
        write(
            root,
            "src/repro/service/callee.py",
            '"""Durability helper fixture."""\n\n'
            "import os\n\n\n" + _DIR_FSYNC + "\n\n"
            "FLUSH_DIR = flush_dir\n",
        )
        write(
            root,
            "src/repro/service/caller.py",
            '"""Publisher fixture depending on the helper."""\n\n'
            "import os\n\n"
            "from repro.service.callee import flush_dir\n\n\n"
            "def publish(tmp, final, directory):\n"
            '    """Atomic replace, dir fsync delegated to the helper."""\n'
            "    os.replace(tmp, final)\n"
            "    flush_dir(directory)\n\n\n"
            "PUBLISH = publish\n",
        )

    def test_editing_callee_fsync_reanalyzes_caller_cone(self, tmp_path):
        self._seed(tmp_path)
        first = lint(tmp_path, select={"DP01"})
        assert first.active_findings() == []
        # Remove the fsync from the callee: the caller's rename loses
        # its directory-fsync cover even though caller.py is untouched.
        callee = tmp_path / "src/repro/service/callee.py"
        callee.write_text(
            callee.read_text().replace("        os.fsync(fd)\n", "        pass\n")
        )
        second = lint(tmp_path, select={"DP01"})
        got = {(f.rule, f.path) for f in second.active_findings()}
        assert ("DP01", "src/repro/service/caller.py") in got


# ---------------------------------------------------------------------------
# The seeded acceptance fixture: one violation per family, end to end.
# ---------------------------------------------------------------------------


def _seed_acceptance_fixture(root: Path) -> None:
    write(root, "src/repro/__init__.py", '"""Fixture root package."""\n')
    write(root, "src/repro/trust/__init__.py", '"""Fixture trust."""\n')
    write(root, "src/repro/service/__init__.py", '"""Fixture service."""\n')
    # DX01: a dead export.
    write(
        root,
        "src/repro/trust/dead.py",
        '"""Dead-export fixture."""\n\n'
        '__all__ = ["dead_export"]\n\n\n'
        "def dead_export():\n"
        '    """Nothing references this export."""\n'
        "    return None\n",
    )
    # DP01 + DP03: torn rename plus fsync of an unflushed handle.
    write(
        root,
        "src/repro/service/walx.py",
        '"""Atomic-publish fixture (torn rename, unflushed fsync)."""\n\n'
        "import os\n\n\n"
        "def publish(tmp, final):\n"
        '    """Publishes tmp at final without durability discipline."""\n'
        '    handle = open(tmp, "w")\n'
        '    handle.write("state")\n'
        "    os.fsync(handle.fileno())\n"
        "    handle.close()\n"
        "    os.replace(tmp, final)\n\n\n"
        "PUBLISH = publish\n",
    )
    # DP02: acking the client before the entry reaches the log.
    write(
        root,
        "src/repro/service/ackflow.py",
        '"""Ack-before-append fixture for declared orderings."""\n\n'
        "__effect_contracts__ = {\n"
        '    "providers": {"Log.append": "wal_append"},\n'
        '    "ack_providers": ["Server.ack"],\n'
        '    "orderings": {"Server.handle": [["wal_append", "ack"]]},\n'
        "}\n\n\n"
        "class Log:\n"
        '    """Fixture append-only log."""\n\n'
        "    def __init__(self):\n"
        "        self.entries = []\n\n"
        "    def append(self, entry):\n"
        '        """Records one entry."""\n'
        "        self.entries.append(entry)\n\n\n"
        "class Server:\n"
        '    """Fixture server that acks before logging."""\n\n'
        "    def __init__(self):\n"
        "        self.log = Log()\n\n"
        "    def ack(self, status, message):\n"
        '        """Sends a status response."""\n'
        "        return (status, message)\n\n"
        "    def handle(self, entry):\n"
        '        """Acks the client before the entry is logged."""\n'
        '        self.ack(201, "ok")\n'
        "        self.log.append(entry)\n\n\n"
        "SERVER = Server\n"
        "LOGGER = Log\n",
    )


class TestAcceptanceFixture:
    EXPECTED = {
        ("DX01", "src/repro/trust/dead.py"),
        ("DP01", "src/repro/service/walx.py"),
        ("DP03", "src/repro/service/walx.py"),
        ("DP02", "src/repro/service/ackflow.py"),
    }

    def test_exactly_the_seeded_findings(self, tmp_path):
        _seed_acceptance_fixture(tmp_path)
        result = lint(tmp_path)
        got = {(f.rule, f.path) for f in result.active_findings()}
        assert got == self.EXPECTED
        assert len(result.active_findings()) == len(self.EXPECTED)

    def test_human_reporter_shows_all_families(self, tmp_path, capsys):
        _seed_acceptance_fixture(tmp_path)
        code = lint_main(
            [str(tmp_path / "src"), "--project-root", str(tmp_path)]
        )
        out = capsys.readouterr().out
        assert code == 1
        for rule, path in self.EXPECTED:
            assert rule in out
            assert path in out
        assert f"{len(self.EXPECTED)} finding(s)" in out

    def test_json_reporter_shows_all_families(self, tmp_path, capsys):
        _seed_acceptance_fixture(tmp_path)
        code = lint_main(
            [
                str(tmp_path / "src"),
                "--project-root",
                str(tmp_path),
                "--format=json",
            ]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["active_count"] == len(self.EXPECTED)
        got = {(f["rule"], f["path"]) for f in payload["findings"]}
        assert got == self.EXPECTED

    def test_sarif_reporter_carries_all_families(self, tmp_path, capsys):
        _seed_acceptance_fixture(tmp_path)
        code = lint_main(
            [
                str(tmp_path / "src"),
                "--project-root",
                str(tmp_path),
                "--format=sarif",
            ]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == "2.1.0"
        run = payload["runs"][0]
        catalog = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
        assert {"DP01", "DP02", "DP03"} <= catalog
        got = {
            (
                entry["ruleId"],
                entry["locations"][0]["physicalLocation"]["artifactLocation"]["uri"],
            )
            for entry in run["results"]
        }
        assert got == self.EXPECTED
        assert all("suppressions" not in entry for entry in run["results"])


# ---------------------------------------------------------------------------
# CLI: --strict
# ---------------------------------------------------------------------------


_NH01_FIXTURE = (
    "def decide(trust: float) -> bool:\n"
    "    return trust == 0.5\n"
    "\n\ncheck = decide\n"
)


class TestStrictMode:
    def test_stale_baseline_fails_only_under_strict(self, tmp_path, capsys):
        mod = write(tmp_path, "mod.py", _NH01_FIXTURE)
        root = ["--project-root", str(tmp_path)]
        assert lint_main([str(mod)] + root + ["--update-baseline"]) == 0
        # Fix the finding: the baseline entry goes stale.
        mod.write_text(_NH01_FIXTURE.replace("==", ">"))
        assert lint_main([str(mod)] + root) == 0
        assert lint_main([str(mod)] + root + ["--strict"]) == 1
        err = capsys.readouterr().err
        assert "stale baseline" in err

    def test_strict_is_quiet_when_baseline_is_fresh(self, tmp_path, capsys):
        mod = write(tmp_path, "mod.py", _NH01_FIXTURE)
        root = ["--project-root", str(tmp_path)]
        assert lint_main([str(mod)] + root + ["--update-baseline"]) == 0
        assert lint_main([str(mod)] + root + ["--strict"]) == 0
        capsys.readouterr()


# ---------------------------------------------------------------------------
# Runtime domain fixes the retired DI rules surfaced (regression pins)
# ---------------------------------------------------------------------------


class TestAsArraysDomainValidation:
    def test_accepts_the_closed_unit_interval(self):
        from repro.aggregation.base import as_arrays

        values, trusts = as_arrays([0.0, 0.5, 1.0], [1.0, 0.0, 0.5])
        assert values.shape == trusts.shape == (3,)

    @pytest.mark.parametrize("bad", [[1.2, 0.5], [-0.1, 0.5]])
    def test_rejects_out_of_domain_ratings(self, bad):
        from repro.aggregation.base import as_arrays

        with pytest.raises(ConfigurationError, match="ratings"):
            as_arrays(bad, [0.5, 0.5])

    @pytest.mark.parametrize("bad", [[1.0001, 0.5], [-0.0001, 0.5]])
    def test_rejects_out_of_domain_trusts(self, bad):
        from repro.aggregation.base import as_arrays

        with pytest.raises(ConfigurationError, match="trusts"):
            as_arrays([0.5, 0.5], bad)

    def test_prior_error_contracts_are_preserved(self):
        from repro.aggregation.base import as_arrays

        with pytest.raises(EmptyWindowError):
            as_arrays([], [])
        with pytest.raises(ValueError, match="parallel"):
            as_arrays([0.5], [0.5, 0.5])


class TestMultipathDomainValidation:
    def test_boundary_values_are_legal(self):
        from repro.trust.entropy_trust import multipath

        assert multipath([1.0], [-1.0]) == -1.0
        assert multipath([], []) == 0.0

    def test_rejects_out_of_domain_recommendation_trusts(self):
        from repro.trust.entropy_trust import multipath

        with pytest.raises(ConfigurationError, match="recommendation_trusts"):
            multipath([1.5, 0.5], [0.5, 0.5])

    def test_rejects_out_of_domain_remote_trusts(self):
        from repro.trust.entropy_trust import multipath

        with pytest.raises(ConfigurationError, match="remote_trusts"):
            multipath([0.5, 0.5], [0.5, -2.0])

    def test_weighting_unchanged_for_legal_inputs(self):
        from repro.trust.entropy_trust import multipath

        got = multipath([0.5, -0.5], [1.0, 1.0])
        assert np.isclose(got, 1.0)
