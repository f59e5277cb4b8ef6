"""Tests for the command-line interface."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main
from repro.experiments import REGISTRY

SRC_ROOT = Path(repro.__file__).resolve().parents[1]


def _python(args, cwd=None):
    """Run ``python ARGS`` with this checkout's ``repro`` importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC_ROOT), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable] + list(args),
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_command_with_options(self):
        args = build_parser().parse_args(
            ["run", "table1", "--seed", "7", "--runs", "10"]
        )
        assert args.experiment == "table1"
        assert args.seed == 7
        assert args.runs == 10

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig99"])


class TestMain:
    def test_list_prints_all_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in REGISTRY:
            assert name in out

    def test_no_command_lists(self, capsys):
        assert main([]) == 0
        assert "available experiments" in capsys.readouterr().out

    def test_run_table1(self, capsys):
        assert main(["run", "table1", "--runs", "20"]) == 0
        out = capsys.readouterr().out
        assert "modified weighted average" in out

    def test_run_detection_small(self, capsys):
        assert main(["run", "detection", "--runs", "5"]) == 0
        assert "Detection Ratio" in capsys.readouterr().out

    def test_run_fig4(self, capsys):
        assert main(["run", "fig4"]) == 0
        assert "model error" in capsys.readouterr().out


class TestStartupImports:
    def test_serve_import_cone_is_numpy_only(self):
        # Spawned cluster workers re-import repro.__main__; serve/replay
        # and every worker must start without the offline research stack.
        proc = _python(
            [
                "-c",
                "import sys\n"
                "from repro.cli import build_parser\n"
                "build_parser()\n"
                "import repro.__main__\n"
                "import repro.service.cluster.worker\n"
                "import repro.service.http\n"
                "heavy = ('scipy', 'networkx', 'repro.experiments',"
                " 'repro.simulation', 'repro.devtools')\n"
                "print(sorted(m for m in sys.modules"
                " if any(m == h or m.startswith(h + '.') for h in heavy)))",
            ]
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_lazy_package_surface(self):
        proc = _python(
            [
                "-c",
                "import repro\n"
                "namespace = {}\n"
                "exec('from repro import *', namespace)\n"
                "missing = [n for n in repro.__all__ if n not in namespace]\n"
                "assert not missing, missing\n"
                "assert set(repro.__all__) <= set(dir(repro))\n"
                "try:\n"
                "    repro.no_such_name\n"
                "except AttributeError as exc:\n"
                "    print('AttributeError', exc)\n",
            ]
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("AttributeError")
        assert "no_such_name" in proc.stdout

    def test_list_output_is_unchanged(self):
        proc = _python(["-m", "repro", "list"])
        assert proc.returncode == 0, proc.stderr
        expected = "available experiments:\n" + "".join(
            f"  {name:<12} {REGISTRY[name][2]}\n" for name in sorted(REGISTRY)
        )
        assert proc.stdout == expected

    def test_unknown_experiment_lists_the_choices(self):
        proc = _python(["-m", "repro", "run", "nosuch"])
        assert proc.returncode == 2
        assert "invalid choice: 'nosuch'" in proc.stderr
        for name in REGISTRY:
            assert repr(name) in proc.stderr


class TestLintSubcommand:
    def test_build_parser_does_not_import_the_linter(self):
        # serve/replay launches build the parser; they must not pay for
        # importing repro.devtools.
        proc = _python(
            [
                "-c",
                "import sys\n"
                "from repro.cli import build_parser\n"
                "build_parser()\n"
                "print(sorted(m for m in sys.modules"
                " if m.startswith('repro.devtools')))",
            ]
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_repro_lint_matches_python_m_repro_devtools(self, tmp_path):
        # Two identical scratch projects, so both commands run cold.
        runs = []
        for entry in (["-m", "repro", "lint"], ["-m", "repro.devtools"]):
            project = tmp_path / entry[-1]
            (project / "src").mkdir(parents=True)
            (project / "src" / "mod.py").write_text(
                "def decide(trust: float) -> bool:\n"
                "    return trust == 0.5\n\n\n"
                "check = decide\n"
            )
            runs.append(_python(entry + ["src"], cwd=project))
        lint, devtools = runs
        assert lint.returncode == devtools.returncode == 1
        assert lint.stdout == devtools.stdout
        assert lint.stderr == devtools.stderr
        assert "NH01" in lint.stdout
