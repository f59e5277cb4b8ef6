"""Tests for the whole-program analysis engine (repro.devtools.analysis).

Covers the interval domain and contract registry, the whole-program
rule families (DI domain invariants, EX exception flow, DX dead
exports, DP durability protocol, SD serialization contracts), the
incremental content-hash cache, ``--strict``, and the runtime
domain-boundary fixes the DI rules surfaced in ``repro.aggregation``
and ``repro.trust``.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

import numpy as np
import pytest

from repro.devtools.analysis.contracts import (
    NAME_DOMAINS,
    default_registry,
    parse_interval,
)
from repro.devtools.analysis.intervals import (
    Evaluator,
    Interval,
    NON_NEGATIVE,
    OPEN_UNIT,
    SYMMETRIC_UNIT,
    UNIT,
    fraction_interval,
    point,
)
from repro.devtools.cli import main as lint_main
from repro.devtools.runner import run_lint
from repro.errors import ConfigurationError, EmptyWindowError

PROJECT_ROOT = Path(__file__).resolve().parents[1]


def write(root: Path, relpath: str, text: str) -> Path:
    path = root / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


def lint(root: Path, select=None, **kwargs):
    return run_lint([root], project_root=root, select=select, **kwargs)


def rules_of(result):
    return sorted({f.rule for f in result.active_findings()})


# ---------------------------------------------------------------------------
# Interval domain
# ---------------------------------------------------------------------------


class TestIntervals:
    def test_parse_interval_notation(self):
        assert parse_interval("(0, 1)") == OPEN_UNIT
        assert parse_interval("[0, 1]") == UNIT
        assert parse_interval("[-1, 1]") == SYMMETRIC_UNIT
        assert parse_interval("[0, inf)") == NON_NEGATIVE

    @pytest.mark.parametrize("bad", ["", "0, 1", "(0;1)", "{0, 1}", "(1)"])
    def test_parse_interval_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            parse_interval(bad)

    def test_open_endpoints_are_strict(self):
        assert UNIT.contains_value(0.0)
        assert not OPEN_UNIT.contains_value(0.0)
        assert not OPEN_UNIT.contains_value(1.0)
        assert OPEN_UNIT.contains_value(0.5)
        assert OPEN_UNIT.within(UNIT)
        assert not UNIT.within(OPEN_UNIT)

    def test_meet_and_hull(self):
        assert UNIT.meet(Interval(2.0, 3.0)) is None
        met = UNIT.meet(Interval(0.5, 2.0))
        assert met == Interval(0.5, 1.0)
        hull = point(0.0).hull(point(2.0))
        assert hull == Interval(0.0, 2.0)

    def test_fraction_lemma_proves_beta_trust_open_unit(self):
        # (s + 1) / (s + f + 2) with s, f >= 0 lies strictly in (0, 1).
        node = ast.parse("(s + 1.0) / (s + f + 2.0)", mode="eval").body
        got = fraction_interval(
            node.left, node.right, lambda _term: NON_NEGATIVE
        )
        assert got is not None
        assert got.within(OPEN_UNIT)

    def test_fraction_lemma_refuses_unmatched_terms(self):
        # Numerator term `g` has no denominator partner: no conclusion.
        node = ast.parse("(g + 1.0) / (s + 2.0)", mode="eval").body
        assert (
            fraction_interval(node.left, node.right, lambda _t: NON_NEGATIVE)
            is None
        )

    def test_evaluator_convex_combination_refinement(self):
        # Naive interval arithmetic gives a*x + (1-a)*y in [0, 2] for
        # unit inputs; the convex-combination refinement keeps [0, 1].
        ev = Evaluator({"a": UNIT, "x": UNIT, "y": UNIT})
        node = ast.parse("a * x + (1.0 - a) * y", mode="eval").body
        got = ev.eval(node)
        assert got is not None
        assert got.within(UNIT)

    def test_evaluator_clip_and_abs(self):
        ev = Evaluator({"x": Interval(-5.0, 5.0)})
        clip = ast.parse("np.clip(x, 0.0, 1.0)", mode="eval").body
        assert ev.eval(clip).within(UNIT)
        absx = ast.parse("abs(x)", mode="eval").body
        assert ev.eval(absx).within(Interval(0.0, 5.0))


class TestContracts:
    def test_seed_registry_covers_paper_invariants(self):
        registry = default_registry()
        beta = registry.functions["repro.trust.records.beta_trust"]
        assert beta.returns == OPEN_UNIT
        assert beta.param_map["successes"] == NON_NEGATIVE
        ent = registry.functions["repro.trust.entropy_trust.entropy_trust"]
        assert ent.returns == SYMMETRIC_UNIT
        assert NAME_DOMAINS["trust"] == UNIT

    def test_digest_is_stable_and_sensitive(self):
        a, b = default_registry(), default_registry()
        assert a.digest() == b.digest()
        b.attributes["Fixture.attr"] = UNIT
        assert a.digest() != b.digest()

    def test_extend_from_module_parses_declarations(self):
        registry = default_registry()
        tree = ast.parse(
            '__lint_contracts__ = {\n'
            '    "poison": {"params": {"amount": "[0, 1]"},'
            ' "returns": "(0, 1)", "validates": ["amount"]},\n'
            '}\n'
        )
        registry.extend_from_module("pkg.mod", tree)
        contract = registry.functions["pkg.mod.poison"]
        assert contract.param_map["amount"] == UNIT
        assert contract.returns == OPEN_UNIT
        assert contract.validates == ("amount",)


# ---------------------------------------------------------------------------
# DI: domain invariants
# ---------------------------------------------------------------------------


class TestDomainRules:
    def test_di01_flags_out_of_domain_argument(self, tmp_path):
        write(
            tmp_path,
            "pkg/mod.py",
            '"""Fixture."""\n\n'
            "__lint_contracts__ = {\n"
            '    "poison": {"params": {"amount": "[0, 1]"}},\n'
            "}\n\n\n"
            "def poison(amount):\n"
            '    """Contracted sink."""\n'
            "    return amount\n\n\n"
            "def bad():\n"
            '    """Passes an impossible amount."""\n'
            "    return poison(2.0)\n\n\n"
            "USES = (poison, bad)\n",
        )
        result = lint(tmp_path, select={"DI01"})
        findings = result.active_findings()
        assert len(findings) == 1
        assert "amount" in findings[0].message
        assert "poison" in findings[0].message
        assert "outside its contracted domain [0, 1]" in findings[0].message

    def test_di01_accepts_in_domain_argument(self, tmp_path):
        write(
            tmp_path,
            "pkg/mod.py",
            '"""Fixture."""\n\n'
            "__lint_contracts__ = {\n"
            '    "poison": {"params": {"amount": "[0, 1]"}},\n'
            "}\n\n\n"
            "def poison(amount):\n"
            '    """Contracted sink."""\n'
            "    return amount\n\n\n"
            "def good():\n"
            '    """Passes a legal amount."""\n'
            "    return poison(0.5)\n\n\n"
            "USES = (poison, good)\n",
        )
        assert lint(tmp_path, select={"DI01"}).active_findings() == []

    def test_di02_flags_out_of_domain_return(self, tmp_path):
        write(
            tmp_path,
            "pkg/mod.py",
            '"""Fixture."""\n\n'
            "__lint_contracts__ = {\n"
            '    "grow": {"returns": "[0, 1]"},\n'
            "}\n\n\n"
            "def grow():\n"
            '    """Returns out of its contracted domain."""\n'
            "    return 1.5\n\n\n"
            "USES = (grow,)\n",
        )
        findings = lint(tmp_path, select={"DI02"}).active_findings()
        assert len(findings) == 1
        assert "outside" in findings[0].message

    def test_di02_flags_out_of_domain_trust_write(self, tmp_path):
        write(
            tmp_path,
            "pkg/mod.py",
            '"""Fixture."""\n\n\n'
            "def promote():\n"
            '    """Writes an impossible trust value."""\n'
            "    trust = 1.5\n"
            "    return trust\n\n\n"
            "USES = (promote,)\n",
        )
        findings = lint(tmp_path, select={"DI02"}).active_findings()
        assert len(findings) == 1
        assert "'trust'" in findings[0].message
        assert findings[0].line == 6

    def test_di02_guard_refinement_accepts_clamped_write(self, tmp_path):
        write(
            tmp_path,
            "pkg/mod.py",
            '"""Fixture."""\n\n\n'
            "def promote(raw):\n"
            '    """Clamps before writing."""\n'
            "    if raw < 0.0 or raw > 1.0:\n"
            '        raise ValueError("raw out of range")\n'
            "    trust = raw\n"
            "    return trust\n\n\n"
            "USES = (promote,)\n",
        )
        assert lint(tmp_path, select={"DI02"}).active_findings() == []

    def test_di03_flags_unguarded_contracted_param(self, tmp_path):
        write(
            tmp_path,
            "pkg/mod.py",
            '"""Fixture."""\n\n'
            "__lint_contracts__ = {\n"
            '    "use": {"params": {"level": "[0, 1]"}},\n'
            "}\n\n\n"
            "def use(level):\n"
            '    """Uses level without any guard."""\n'
            "    return level * 2.0\n\n\n"
            "USES = (use,)\n",
        )
        findings = lint(tmp_path, select={"DI03"}).active_findings()
        assert len(findings) == 1
        assert "'level'" in findings[0].message

    def test_di03_accepts_boundary_guard(self, tmp_path):
        write(
            tmp_path,
            "pkg/mod.py",
            '"""Fixture."""\n\n'
            "__lint_contracts__ = {\n"
            '    "use": {"params": {"level": "[0, 1]"}},\n'
            "}\n\n\n"
            "def use(level):\n"
            '    """Raises on a boundary violation first."""\n'
            "    if level < 0.0 or level > 1.0:\n"
            '        raise ValueError("level out of range")\n'
            "    return level * 2.0\n\n\n"
            "USES = (use,)\n",
        )
        assert lint(tmp_path, select={"DI03"}).active_findings() == []

    def test_di03_accepts_guard_through_local_alias(self, tmp_path):
        # Mirrors multipath(): the guard runs on the converted array,
        # which is a single-source alias of the parameter.
        write(
            tmp_path,
            "pkg/mod.py",
            '"""Fixture."""\n\n'
            "__lint_contracts__ = {\n"
            '    "scale": {"params": {"xs": "[-1, 1]"}},\n'
            "}\n\n\n"
            "def scale(xs):\n"
            '    """Guards via an alias and a negative literal bound."""\n'
            "    arr = list(xs)\n"
            "    if min(arr) < -1.0 or max(arr) > 1.0:\n"
            '        raise ValueError("xs out of range")\n'
            "    return arr\n\n\n"
            "USES = (scale,)\n",
        )
        assert lint(tmp_path, select={"DI03"}).active_findings() == []

    def test_di03_accepts_clamp_reassignment(self, tmp_path):
        write(
            tmp_path,
            "pkg/mod.py",
            '"""Fixture."""\n\n'
            "__lint_contracts__ = {\n"
            '    "use": {"params": {"level": "[0, 1]"}},\n'
            "}\n\n\n"
            "def use(level):\n"
            '    """Clamps instead of raising."""\n'
            "    level = min(max(level, 0.0), 1.0)\n"
            "    return level * 2.0\n\n\n"
            "USES = (use,)\n",
        )
        assert lint(tmp_path, select={"DI03"}).active_findings() == []

    def test_di03_accepts_delegation_to_validator(self, tmp_path):
        write(
            tmp_path,
            "pkg/mod.py",
            '"""Fixture."""\n\n'
            "__lint_contracts__ = {\n"
            '    "check": {"params": {"x": "[0, 1]"}, "validates": ["x"]},\n'
            '    "use": {"params": {"x": "[0, 1]"}},\n'
            "}\n\n\n"
            "def check(x):\n"
            '    """Validator."""\n'
            "    if x < 0.0 or x > 1.0:\n"
            '        raise ValueError("x out of range")\n'
            "    return x\n\n\n"
            "def use(x):\n"
            '    """Delegates the check."""\n'
            "    x = check(x)\n"
            "    return x * 0.5\n\n\n"
            "USES = (check, use)\n",
        )
        assert lint(tmp_path, select={"DI03"}).active_findings() == []


# ---------------------------------------------------------------------------
# EX: exception flow
# ---------------------------------------------------------------------------


class TestExceptionRules:
    def test_ex02_flags_leaking_main(self, tmp_path):
        write(
            tmp_path,
            "pkg/cli.py",
            '"""Fixture."""\n\n\n'
            "def main():\n"
            '    """Leaks to the interpreter."""\n'
            '    raise RuntimeError("boom")\n',
        )
        findings = lint(tmp_path, select={"EX02"}).active_findings()
        assert len(findings) == 1
        assert "RuntimeError" in findings[0].message

    def test_ex02_interprocedural_escape_through_callee(self, tmp_path):
        write(
            tmp_path,
            "pkg/cli.py",
            '"""Fixture."""\n\n\n'
            "def helper():\n"
            '    """Raises."""\n'
            '    raise ValueError("bad")\n\n\n'
            "def main():\n"
            '    """Calls helper without catching."""\n'
            "    return helper()\n",
        )
        findings = lint(tmp_path, select={"EX02"}).active_findings()
        assert len(findings) == 1
        assert "ValueError" in findings[0].message

    def test_ex02_catching_the_hierarchy_silences(self, tmp_path):
        write(
            tmp_path,
            "pkg/cli.py",
            '"""Fixture."""\n\n\n'
            "def helper():\n"
            '    """Raises a ValueError subclass context."""\n'
            '    raise ValueError("bad")\n\n\n'
            "def main():\n"
            '    """Catches through the hierarchy."""\n'
            "    try:\n"
            "        return helper()\n"
            "    except Exception:\n"
            "        return 1\n",
        )
        assert lint(tmp_path, select={"EX02"}).active_findings() == []

    def test_ex01_flags_handler_escape(self, tmp_path):
        write(
            tmp_path,
            "pkg/http.py",
            '"""Fixture."""\n\n'
            "from http.server import BaseHTTPRequestHandler\n\n\n"
            "class Handler(BaseHTTPRequestHandler):\n"
            '    """Handler that drops the connection."""\n\n'
            "    def do_GET(self):\n"
            '        """Lets ValueError escape."""\n'
            '        raise ValueError("boom")\n\n\n'
            "APP = Handler\n",
        )
        findings = lint(tmp_path, select={"EX01"}).active_findings()
        assert len(findings) == 1
        assert "ValueError" in findings[0].message
        assert "do_GET" in findings[0].message


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
        from repro.devtools.analysis.rules_serialization import (
            StateKeySymmetryRule,
            VersionUpgradePathRule,
        )
        from repro.devtools.core import all_rules

        catalog = all_rules()
        assert catalog["DP01"] is AtomicReplaceRule
        assert catalog["DP02"] is OrderingContractRule
        assert catalog["DP03"] is UnflushedWriteRule
        assert catalog["SD01"] is StateKeySymmetryRule
        assert catalog["SD02"] is VersionUpgradePathRule


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
# SD: serialization-contract rules
# ---------------------------------------------------------------------------


class TestSerializationRules:
    def test_sd01_flags_key_asymmetry_both_ways(self, tmp_path):
        write(
            tmp_path,
            "pkg/state.py",
            "class Box:\n"
            "    def state_dict(self):\n"
            '        return {"kept": 1, "orphan": 2}\n\n'
            "    def load_state(self, state):\n"
            '        self.kept = state["kept"]\n'
            '        self.ghost = state["ghost"]\n',
        )
        result = lint(tmp_path, select={"SD01"})
        messages = sorted(f.message for f in result.active_findings())
        assert len(messages) == 2
        assert "'ghost'" in messages[0] and "never" in messages[0]
        assert "'orphan'" in messages[1] and "no method" in messages[1]

    def test_sd01_symmetric_pair_is_clean(self, tmp_path):
        write(
            tmp_path,
            "pkg/state.py",
            "class Box:\n"
            "    def state_dict(self):\n"
            '        return {"kept": self.kept}\n\n'
            "    def load_state(self, state):\n"
            '        self.kept = state["kept"]\n',
        )
        result = lint(tmp_path, select={"SD01"})
        assert result.active_findings() == []

    def test_sd02_flags_version_bump_without_upgrade(self, tmp_path):
        _seed_acceptance_fixture(tmp_path)
        result = lint(tmp_path, select={"SD02"})
        findings = result.active_findings()
        assert [f.path for f in findings] == ["src/repro/service/snapver.py"]
        assert "version 3" in findings[0].message

    def test_sd02_version_with_upgrade_compare_is_clean(self, tmp_path):
        write(
            tmp_path,
            "pkg/state.py",
            "class Box:\n"
            "    def state_dict(self):\n"
            '        return {"version": 2, "kept": self.kept}\n\n'
            "    def load_state(self, state):\n"
            '        if int(state.get("version", 1)) < 2:\n'
            "            state = dict(state)\n"
            '        self.kept = state["kept"]\n',
        )
        result = lint(tmp_path, select={"SD02"})
        assert result.active_findings() == []

# ---------------------------------------------------------------------------
# Effect summaries and the incremental cache
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
        assert first.cache_status == "cold"
        assert first.active_findings() == []
        # Remove the fsync from the callee: the caller's rename loses
        # its directory-fsync cover even though caller.py is untouched.
        callee = tmp_path / "src/repro/service/callee.py"
        callee.write_text(
            callee.read_text().replace("        os.fsync(fd)\n", "        pass\n")
        )
        second = lint(tmp_path, select={"DP01"})
        assert second.cache_status == "partial"
        assert "src/repro/service/caller.py" in second.reanalyzed
        got = {(f.rule, f.path) for f in second.active_findings()}
        assert ("DP01", "src/repro/service/caller.py") in got

    def test_unchanged_tree_reuses_effect_findings(self, tmp_path):
        self._seed(tmp_path)
        lint(tmp_path, select={"DP01"})
        again = lint(tmp_path, select={"DP01"})
        assert again.cache_status == "hit"
        assert again.reanalyzed == []
        assert again.active_findings() == []


# ---------------------------------------------------------------------------
# The seeded acceptance fixture: one violation per family, end to end.
# ---------------------------------------------------------------------------


def _seed_acceptance_fixture(root: Path) -> None:
    write(root, "src/repro/__init__.py", '"""Fixture root package."""\n')
    write(root, "src/repro/trust/__init__.py", '"""Fixture trust."""\n')
    write(root, "src/repro/service/__init__.py", '"""Fixture service."""\n')
    # DI02: an out-of-domain trust write.
    write(
        root,
        "src/repro/trust/records.py",
        '"""Trust records fixture."""\n\n\n'
        "def promote():\n"
        '    """Raises trust past its ceiling."""\n'
        "    trust = 1.5\n"
        "    return trust\n\n\n"
        "PROMOTE = promote\n",
    )
    # EX01: a non-ReproError escaping an HTTP handler.
    write(
        root,
        "src/repro/service/http.py",
        '"""HTTP handler fixture."""\n\n'
        "from http.server import BaseHTTPRequestHandler\n\n\n"
        "class Handler(BaseHTTPRequestHandler):\n"
        '    """Fixture handler."""\n\n'
        "    def do_GET(self):\n"
        '        """Drops the connection on bad input."""\n'
        '        raise ValueError("boom")\n\n\n'
        "APP = Handler\n",
    )
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
    # SD01: load_state reads a key state_dict never writes.
    write(
        root,
        "src/repro/service/snapstate.py",
        '"""State-dict key-asymmetry fixture."""\n\n\n'
        "class Snapshotter:\n"
        '    """Round-trips its hot window through snapshots."""\n\n'
        "    def __init__(self):\n"
        "        self.hot = []\n\n"
        "    def state_dict(self):\n"
        '        """Serialized state."""\n'
        '        return {"hot": list(self.hot)}\n\n'
        "    def load_state(self, state):\n"
        '        """Restores from a snapshot."""\n'
        '        self.hot = list(state["hot"])\n'
        '        self.extra = state["missing"]\n\n\n'
        "SNAPSHOTTER = Snapshotter\n",
    )
    # SD02: snapshot version bumped to 3 with only a v1 upgrade path.
    write(
        root,
        "src/repro/service/snapver.py",
        '"""Version-bump-without-upgrade fixture."""\n\n\n'
        "class Versioned:\n"
        '    """Writes snapshot version 3 with only a v2 upgrade path."""\n\n'
        "    def __init__(self):\n"
        "        self.hot = []\n\n"
        "    def state_dict(self):\n"
        '        """Serialized state (format v3)."""\n'
        '        return {"version": 3, "hot": list(self.hot)}\n\n'
        "    def load_state(self, state):\n"
        '        """Restores from a snapshot, upgrading v1 only."""\n'
        '        version = int(state.get("version", 1))\n'
        "        if version < 2:\n"
        "            state = dict(state)\n"
        '            state.setdefault("hot", [])\n'
        '        self.hot = list(state["hot"])\n\n\n'
        "VERSIONED = Versioned\n",
    )


class TestAcceptanceFixture:
    EXPECTED = {
        ("DI02", "src/repro/trust/records.py"),
        ("EX01", "src/repro/service/http.py"),
        ("DX01", "src/repro/trust/dead.py"),
        ("DP01", "src/repro/service/walx.py"),
        ("DP03", "src/repro/service/walx.py"),
        ("DP02", "src/repro/service/ackflow.py"),
        ("SD01", "src/repro/service/snapstate.py"),
        ("SD02", "src/repro/service/snapver.py"),
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
        assert "8 finding(s)" in out

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
        assert payload["active_count"] == 8
        got = {(f["rule"], f["path"]) for f in payload["findings"]}
        assert got == self.EXPECTED
        assert payload["cache_status"] == "cold"

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
        assert {"DP01", "DP02", "DP03", "SD01", "SD02"} <= catalog
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
# Incremental cache
# ---------------------------------------------------------------------------


def _seed_clean_tree(root: Path) -> None:
    write(root, "src/repro/__init__.py", '"""Fixture root package."""\n')
    write(root, "src/repro/trust/__init__.py", '"""Fixture trust."""\n')
    write(
        root,
        "src/repro/trust/a.py",
        '"""Fixture a."""\n\n\n'
        "def helper():\n"
        '    """Shared helper."""\n'
        "    return 0.5\n",
    )
    write(
        root,
        "src/repro/trust/b.py",
        '"""Fixture b (depends on a)."""\n\n'
        "from repro.trust.a import helper\n\n\n"
        "def wrap():\n"
        '    """Wraps helper."""\n'
        "    return helper()\n\n\n"
        "WRAP = wrap\n",
    )
    write(
        root,
        "src/repro/trust/c.py",
        '"""Fixture c (independent)."""\n\n\n'
        "def solo():\n"
        '    """No project imports."""\n'
        "    return 0.25\n\n\n"
        "SOLO = solo\n",
    )


class TestIncrementalCache:
    def test_unchanged_tree_is_a_full_hit(self, tmp_path):
        _seed_clean_tree(tmp_path)
        first = lint(tmp_path)
        assert first.cache_status == "cold"
        assert first.active_findings() == []
        second = lint(tmp_path)
        assert second.cache_status == "hit"
        assert second.reanalyzed == []
        assert second.active_findings() == []
        assert second.files_total == first.files_total

    def test_editing_one_file_reanalyzes_only_dependents(self, tmp_path):
        _seed_clean_tree(tmp_path)
        lint(tmp_path)
        a = tmp_path / "src/repro/trust/a.py"
        a.write_text(a.read_text() + "\n# touched\n")
        result = lint(tmp_path)
        assert result.cache_status == "partial"
        assert result.reanalyzed == [
            "src/repro/trust/a.py",
            "src/repro/trust/b.py",
        ]
        assert result.active_findings() == []

    def test_corrupt_cache_falls_back_to_clean_cold_run(self, tmp_path):
        _seed_clean_tree(tmp_path)
        first = lint(tmp_path)
        manifest = tmp_path / ".lint-cache" / "analysis.json"
        assert manifest.is_file()
        manifest.write_text("{{{ not json")
        again = lint(tmp_path)
        assert again.cache_status == "cold"
        assert sorted(again.reanalyzed) == sorted(first.reanalyzed)
        assert again.active_findings() == []

    def test_cached_findings_survive_a_hit(self, tmp_path):
        _seed_acceptance_fixture(tmp_path)
        first = lint(tmp_path)
        second = lint(tmp_path)
        assert second.cache_status == "hit"
        assert second.reanalyzed == []
        assert {(f.rule, f.path) for f in second.active_findings()} == {
            (f.rule, f.path) for f in first.active_findings()
        }

    def test_external_reference_change_reruns_global_rules(self, tmp_path):
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
        assert second.cache_status in ("partial", "cold")

    def test_contract_change_invalidates_the_whole_manifest(self, tmp_path):
        write(
            tmp_path,
            "pkg/mod.py",
            '"""Fixture."""\n\n'
            "__lint_contracts__ = {\n"
            '    "use": {"params": {"x": "[0, 2]"}},\n'
            "}\n\n\n"
            "def use(x):\n"
            '    """Contracted."""\n'
            "    return min(max(x, 0.0), 2.0)\n\n\n"
            "USES = (use,)\n",
        )
        lint(tmp_path, select={"DI01"})
        mod = tmp_path / "pkg/mod.py"
        mod.write_text(mod.read_text().replace("[0, 2]", "[0, 1]"))
        result = lint(tmp_path, select={"DI01"})
        # The contract digest is part of the signature: full cold run.
        assert result.cache_status == "cold"

    def test_no_cache_flag_disables_the_cache(self, tmp_path):
        _seed_clean_tree(tmp_path)
        result = lint(tmp_path, use_cache=False)
        assert result.cache_status == "disabled"
        assert not (tmp_path / ".lint-cache").exists()


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
# Runtime domain-boundary fixes surfaced by DI (regression pins)
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
